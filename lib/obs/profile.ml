(* Query profiling: per-operator cardinalities and timings, per-destination
   message accounting, and the remote peer's phase breakdown — the data
   behind the shell's :profile command and Xrpc_client.call_profiled.

   A profile is a view over Trace.  [profiled] opens a "profile" span that
   owns a Trace scope, so every span opened under it, on any thread its
   work is handed to, is recorded whether or not tracing is on.  A plan
   node is a span with a plan (label, output cardinality, merged kernel-op
   stats): Looplift opens one per algebra expression (ids in pre-order),
   Eval one per top-level function application (its eval.apply
   span) and one per Bulk RPC dispatch.  [nodes], [render] and [to_json]
   rebuild the plan tree from the scope with [Trace.tree_of].  What is not
   a span stays here, updated under Trace's lock: destination stats
   (messages, logical calls, bytes both ways, and the remote phases parsed
   from the serverProfile attribute), ops outside any node, and the
   optimizer's annotations.  With no profile open every entry point
   returns after one test. *)

type op_stat = Trace.op_stat = {
  mutable os_calls : int;
  mutable os_rows_in : int;
  mutable os_rows_out : int;
  mutable os_ms : float;
}

type node = {
  id : int;
  name : string;
  detail : string;
  parent : int option;
  rows_out : int; (* -1 = not set *)
  incl_ms : float; (* inclusive wall time *)
  ops : (string * op_stat) list; (* insertion order *)
  children : node list;
}

type dest_stat = {
  mutable d_msgs : int; (* serialized request messages *)
  mutable d_calls : int; (* logical calls carried inside them *)
  mutable d_bytes_out : int;
  mutable d_bytes_in : int;
  mutable d_remote : (string * float) list; (* phase -> total ms *)
}

type t = {
  label : string;
  scope : Trace.scope; (* the spans recorded under the profile *)
  mutable root_ops : (string * op_stat) list; (* ops outside any node *)
  dests : (string, dest_stat) Hashtbl.t;
  mutable annotations : string list;
      (* free-form analysis notes, newest first — the optimizer attaches
         its cost estimates here so a rendered profile shows the predicted
         cost next to the measured one *)
}

let current : t option ref = ref None
let enabled () = !current <> None

(* The spans a profile records are bounded: a query that re-evaluates a
   subtree per tuple (If branches under loop-lifting, recursive functions
   under Eval) could otherwise grow the profile with the data.  Past the
   cap new spans are counted as dropped; op stats still accumulate into
   the nearest recorded node. *)
let capacity = ref 10_000
let set_capacity n = capacity := n

(* Run [f] as plan node [name] when a profile is open. *)
let with_node ?detail name f =
  if enabled () then Trace.with_span ?detail ~plan:name name f else f ()

let current_plan () = Option.bind (Trace.current ()) Trace.plan_of

(* Set the output cardinality of the innermost open node. *)
let set_rows rows =
  if enabled () then Option.iter (fun pl -> pl.Trace.rows <- rows) (current_plan ())

let merge_op ops name ~rows_in ~rows_out ms =
  match List.assoc_opt name ops with
  | Some os ->
      os.os_calls <- os.os_calls + 1;
      os.os_rows_in <- os.os_rows_in + rows_in;
      os.os_rows_out <- os.os_rows_out + rows_out;
      os.os_ms <- os.os_ms +. ms;
      ops
  | None ->
      ops
      @ [ (name, { os_calls = 1; os_rows_in = rows_in;
                   os_rows_out = rows_out; os_ms = ms }) ]

(* Called by Ops.timed for every kernel invocation while profiling is on;
   attributes the work to the innermost open plan node, which may have
   been opened on the thread that handed this work over. *)
let record_op name ~rows_in ~rows_out ms =
  match !current with
  | None -> ()
  | Some p ->
      let plan = current_plan () in
      Trace.locked (fun () ->
          match plan with
          | Some pl ->
              pl.Trace.ops <- merge_op pl.Trace.ops name ~rows_in ~rows_out ms
          | None -> p.root_ops <- merge_op p.root_ops name ~rows_in ~rows_out ms)

(* ------------------------------------------------------------------ *)
(* Destination accounting                                              *)
(* ------------------------------------------------------------------ *)

let dest_stat_locked p dest =
  match Hashtbl.find_opt p.dests dest with
  | Some d -> d
  | None ->
      let d =
        { d_msgs = 0; d_calls = 0; d_bytes_out = 0; d_bytes_in = 0;
          d_remote = [] }
      in
      Hashtbl.replace p.dests dest d;
      d

let with_dest dest f =
  match !current with
  | None -> ()
  | Some p -> Trace.locked (fun () -> f (dest_stat_locked p dest))

let note_send ~dest ~bytes =
  with_dest dest (fun d ->
      d.d_msgs <- d.d_msgs + 1;
      d.d_bytes_out <- d.d_bytes_out + bytes)

let note_recv ~dest ~bytes =
  with_dest dest (fun d -> d.d_bytes_in <- d.d_bytes_in + bytes)

let note_calls ~dest n = with_dest dest (fun d -> d.d_calls <- d.d_calls + n)

(* Attach a free-form note to the current profile (no-op when profiling
   is off) — e.g. the optimizer's estimated cost of a dispatch. *)
let note_annotation s =
  match !current with
  | None -> ()
  | Some p -> Trace.locked (fun () -> p.annotations <- s :: p.annotations)

(* Remote phase costs parsed from the response's serverProfile attribute;
   summed per phase name across all messages to this destination. *)
let note_remote ~dest phases =
  with_dest dest (fun d ->
      List.iter
        (fun (name, ms) ->
          d.d_remote <-
            (if List.mem_assoc name d.d_remote then
               List.map
                 (fun (n, v) -> if n = name then (n, v +. ms) else (n, v))
                 d.d_remote
             else d.d_remote @ [ (name, ms) ]))
        phases)

(* ------------------------------------------------------------------ *)
(* Collection                                                          *)
(* ------------------------------------------------------------------ *)

(* Run [f] with profiling on and a fresh profile collecting; returns the
   result together with the finished profile.  Nests: the previous
   profile (if any) is restored afterwards. *)
let profiled ?(label = "") f =
  let p =
    { label; scope = Trace.new_scope ~capacity:!capacity (); root_ops = [];
      dests = Hashtbl.create 8; annotations = [] }
  in
  let old = !current in
  current := Some p;
  let r =
    Fun.protect
      ~finally:(fun () -> current := old)
      (fun () -> Trace.with_span ~scope:p.scope ~detail:label "profile" f)
  in
  (r, p)

let label p = p.label

(* the profile span's duration: nan until the profiled run finishes *)
let total_ms p =
  match p.scope.Trace.sc_owner with
  | Some s -> Trace.duration_ms s
  | None -> nan

let dropped_count p = p.scope.Trace.sc_dropped

let dests p =
  Hashtbl.fold (fun dest d acc -> (dest, d) :: acc) p.dests []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let annotations p = List.rev p.annotations

(* ------------------------------------------------------------------ *)
(* The plan tree, rebuilt from the profile's spans                     *)
(* ------------------------------------------------------------------ *)

(* The plan nodes among the profile's spans, as a forest: the plain
   spans between them are skipped, and ids number the nodes in pre-order,
   which is evaluation order. *)
let plan p =
  let roots, kids = Trace.tree_of (Trace.scope_spans p.scope) in
  let next = ref 0 in
  let rec build parent s =
    match s.Trace.plan with
    | Some pl ->
        incr next;
        let id = !next and ms = Trace.duration_ms s in
        [ { id; name = pl.Trace.label; detail = s.Trace.detail; parent;
            rows_out = pl.Trace.rows;
            incl_ms = (if Float.is_nan ms then 0. else ms);
            ops = pl.Trace.ops;
            children = List.concat_map (build (Some id)) (kids s.Trace.span_id) } ]
    | None -> List.concat_map (build parent) (kids s.Trace.span_id)
  in
  List.concat_map (build None) roots

let nodes p =
  let rec flat n = n :: List.concat_map flat n.children in
  List.concat_map flat (plan p)

let node_count p = List.length (nodes p)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let render_ops buf indent ops =
  List.iter
    (fun (name, os) ->
      Buffer.add_string buf
        (Printf.sprintf "%sops: %s x%d  %d->%d rows  %.3f ms\n" indent name
           os.os_calls os.os_rows_in os.os_rows_out os.os_ms))
    ops

let render p =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "profile%s: total %s  (%d plan nodes%s)\n"
       (if p.label = "" then "" else " " ^ p.label)
       (if Float.is_nan (total_ms p) then "OPEN"
        else Printf.sprintf "%.3f ms" (total_ms p))
       (node_count p)
       (let d = dropped_count p in
        if d > 0 then Printf.sprintf ", %d dropped" d else ""));
  let rec pr indent n =
    Buffer.add_string buf
      (Printf.sprintf "%s#%d %s%s  %.3f ms%s\n" indent n.id n.name
         (if n.detail = "" then "" else " (" ^ n.detail ^ ")")
         n.incl_ms
         (if n.rows_out >= 0 then Printf.sprintf "  rows=%d" n.rows_out
          else ""));
    render_ops buf (indent ^ "   ") n.ops;
    List.iter (pr (indent ^ "  ")) n.children
  in
  List.iter (pr "") (plan p);
  render_ops buf "" p.root_ops;
  let ds = dests p in
  if ds <> [] then begin
    Buffer.add_string buf "destinations:\n";
    List.iter
      (fun (dest, d) ->
        Buffer.add_string buf
          (Printf.sprintf "  %s  %d msg%s, %d call%s, %d B out, %d B in\n"
             dest d.d_msgs
             (if d.d_msgs = 1 then "" else "s")
             d.d_calls
             (if d.d_calls = 1 then "" else "s")
             d.d_bytes_out d.d_bytes_in);
        if d.d_remote <> [] then
          Buffer.add_string buf
            (Printf.sprintf "    remote: %s\n"
               (String.concat "; "
                  (List.map
                     (fun (n, ms) -> Printf.sprintf "%s %.3f ms" n ms)
                     d.d_remote))))
      ds
  end;
  (match annotations p with
  | [] -> ()
  | notes ->
      Buffer.add_string buf "optimizer:\n";
      List.iter
        (fun s -> Buffer.add_string buf (Printf.sprintf "  %s\n" s))
        notes);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON export                                                         *)
(* ------------------------------------------------------------------ *)

let jnum v = if Float.is_nan v then "null" else Printf.sprintf "%.6g" v
let jstr s = "\"" ^ Metrics.json_escape s ^ "\""

let ops_json ops =
  "["
  ^ String.concat ","
      (List.map
         (fun (name, os) ->
           Printf.sprintf
             "{\"op\":%s,\"calls\":%d,\"rows_in\":%d,\"rows_out\":%d,\"ms\":%s}"
             (jstr name) os.os_calls os.os_rows_in os.os_rows_out
             (jnum os.os_ms))
         ops)
  ^ "]"

let to_json p =
  let buf = Buffer.create 1024 in
  let rec node_json n =
    Printf.sprintf
      "{\"id\":%d,\"name\":%s%s,\"ms\":%s%s,\"ops\":%s,\"children\":[%s]}"
      n.id (jstr n.name)
      (if n.detail = "" then "" else ",\"detail\":" ^ jstr n.detail)
      (jnum n.incl_ms)
      (if n.rows_out >= 0 then Printf.sprintf ",\"rows\":%d" n.rows_out
       else "")
      (ops_json n.ops)
      (String.concat "," (List.map node_json n.children))
  in
  Buffer.add_string buf "{";
  if p.label <> "" then
    Buffer.add_string buf (Printf.sprintf "\"label\":%s," (jstr p.label));
  Buffer.add_string buf (Printf.sprintf "\"total_ms\":%s," (jnum (total_ms p)));
  Buffer.add_string buf
    (Printf.sprintf "\"plan\":[%s]"
       (String.concat "," (List.map node_json (plan p))));
  if p.root_ops <> [] then
    Buffer.add_string buf (Printf.sprintf ",\"ops\":%s" (ops_json p.root_ops));
  let ds = dests p in
  if ds <> [] then begin
    Buffer.add_string buf ",\"dests\":{";
    List.iteri
      (fun i (dest, d) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf
          (Printf.sprintf
             "%s:{\"msgs\":%d,\"calls\":%d,\"bytes_out\":%d,\"bytes_in\":%d"
             (jstr dest) d.d_msgs d.d_calls d.d_bytes_out d.d_bytes_in);
        if d.d_remote <> [] then
          Buffer.add_string buf
            (Printf.sprintf ",\"remote\":{%s}"
               (String.concat ","
                  (List.map
                     (fun (n, ms) ->
                       Printf.sprintf "%s:%s" (jstr n) (jnum ms))
                     d.d_remote)));
        Buffer.add_char buf '}')
      ds;
    Buffer.add_char buf '}'
  end;
  let d = dropped_count p in
  if d > 0 then Buffer.add_string buf (Printf.sprintf ",\"dropped\":%d" d);
  Buffer.add_string buf "}";
  Buffer.contents buf
