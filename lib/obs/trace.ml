(* Distributed tracing: per-query trace IDs and nested spans.

   The model is deliberately small:
   - a span has a trace id, its own id, an optional parent id, a name, a
     detail string, start/end timestamps and a list of point events;
   - span ids are drawn from a process-local counter (optionally prefixed
     with a process tag for multi-process deployments), so a replayed
     deterministic schedule — Simnet virtual clock + seeded faults —
     yields bit-identical trees;
   - the clock is injectable ([set_clock]); tests and benches point it at
     the Simnet virtual clock, binaries use the wall clock;
   - the ambient "current span" is tracked per thread (Http fan-out runs
     one thread per destination), so nested [with_span] calls on any
     thread build a well-formed tree;
   - context crosses peers as a (trace-id, parent-span) pair carried in
     the SOAP envelope header (see Soap.Message / protocol/XRPC.xsd);
     [propagation] reads the pair to stamp outgoing requests and
     [with_span ~remote] adopts it on the serving side;
   - this is the only span machinery: a Profile plan node is a span with
     a [plan]; profiles and serverProfile requests collect spans in scopes.

   When tracing is disabled (the default) and no scope is open, every
   entry point returns after a single flag test — the instrumented hot
   paths stay at ~0%% cost. *)

type event = { e_name : string; e_detail : string; e_at : float }

(* Kernel-operator stats merged into a plan node (see Profile). *)
type op_stat = {
  mutable os_calls : int;
  mutable os_rows_in : int;
  mutable os_rows_out : int;
  mutable os_ms : float;
}

(* A plan node's label, output cardinality and kernel-op stats. *)
type plan = {
  label : string;
  mutable rows : int; (* -1 = not set *)
  mutable ops : (string * op_stat) list; (* insertion order *)
}

type span = {
  trace_id : string;
  span_id : string;
  parent : string option;
  name : string;
  detail : string;
  start_ms : float;
  mutable end_ms : float; (* nan while the span is still open *)
  mutable events : event list; (* newest first *)
  plan : plan option; (* Some for a plan node *)
  up : span option; (* the span under this one on its thread's stack *)
  scope : scope option; (* innermost scope this span records into *)
}

(* A bounded collection of spans, recorded at start in creation order;
   past its capacity new spans are counted as dropped.  A scope opened by
   a span records every span opened under it, on any thread the work is
   handed to, whether or not tracing is on, and nests: a span records
   into its scope and every enclosing one.  With tracing off, the only
   spans opened under a scope are plan nodes and its owner's direct
   children (a request's phases).  The global buffer is the scope that
   records every span while tracing is on. *)
and scope = {
  mutable sc_capacity : int;
  mutable sc_owner : span option; (* the span that opened the scope *)
  mutable sc_outer : scope option;
  mutable sc_spans : span list; (* newest first *)
  mutable sc_n : int;
  mutable sc_dropped : int;
}

let new_scope ?(capacity = max_int) () =
  { sc_capacity = capacity; sc_owner = None; sc_outer = None; sc_spans = [];
    sc_n = 0; sc_dropped = 0 }

let buffer = new_scope ~capacity:50_000 ()
let set_capacity n = buffer.sc_capacity <- n

(* [recording_flag] is [!enabled_flag || !open_scopes > 0], kept up to
   date under the state lock, so "nothing records" is one flag test. *)
let enabled_flag = ref false
let open_scopes = ref 0
let recording_flag = ref false
let refresh () = recording_flag := !enabled_flag || !open_scopes > 0
let enabled () = !enabled_flag

let wall_clock_ms () = Unix.gettimeofday () *. 1000.

let clock = ref wall_clock_ms
let set_clock f = clock := f
let use_wall_clock () = clock := wall_clock_ms
let now_ms () = !clock ()

(* Deterministic ids. [process_tag] disambiguates ids across OS processes
   (e.g. two xrpc_server instances); in-process it stays "" so replays of
   a seeded schedule mint identical ids.  Id minting and span recording
   share one mutex: the dispatch executor runs spans on pool threads, and
   two threads must never mint the same id or lose a recorded span. *)
let state_mutex = Mutex.create ()

let locked f =
  Mutex.lock state_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock state_mutex) f

let set_enabled b =
  locked (fun () ->
      enabled_flag := b;
      refresh ())

let process_tag = ref ""
let set_process_tag t = process_tag := t
let next_trace = ref 0
let next_span = ref 0

(* Per-thread stack of open spans, under the state mutex.  A thread's
   entry exists only while its stack is non-empty, so short-lived threads
   leave nothing behind. *)
let stacks : (int, span list) Hashtbl.t = Hashtbl.create 8
let self_id () = Thread.id (Thread.self ())
let stack_locked id = Option.value ~default:[] (Hashtbl.find_opt stacks id)

(* Pop down to (and including) [s]; an emptied stack leaves the table. *)
let pop_locked id s =
  let rec drop = function [] -> [] | x :: rest -> if x == s then rest else drop rest in
  match drop (stack_locked id) with
  | [] -> Hashtbl.remove stacks id
  | l -> Hashtbl.replace stacks id l

let live_stacks () = locked (fun () -> Hashtbl.length stacks)

(* The innermost open span on this thread, or [None] after one flag test
   when nothing records. *)
let current () =
  if not !recording_flag then None
  else begin
    Mutex.lock state_mutex;
    let stack = stack_locked (self_id ()) in
    Mutex.unlock state_mutex;
    match stack with s :: _ -> Some s | [] -> None
  end

(* Is this thread collecting spans: tracing on, or inside a scope? *)
let recording () =
  !recording_flag
  && (!enabled_flag
     || match current () with Some s -> s.scope <> None | None -> false)

let reset () =
  locked (fun () ->
      buffer.sc_spans <- [];
      buffer.sc_n <- 0;
      buffer.sc_dropped <- 0;
      next_trace := 0;
      next_span := 0;
      Hashtbl.reset stacks)

let rec record_locked s = function
  | None -> ()
  | Some sc ->
      if sc.sc_n >= sc.sc_capacity then sc.sc_dropped <- sc.sc_dropped + 1
      else begin
        sc.sc_spans <- s :: sc.sc_spans;
        sc.sc_n <- sc.sc_n + 1
      end;
      record_locked s sc.sc_outer

let scope_spans sc = locked (fun () -> List.rev sc.sc_spans)

(* Run [f] inside a span.  [remote] adopts a propagated (trace id, parent
   span) pair, rooting the span under the remote parent (server side);
   [plan] makes the span a plan node with that label; [scope]
   is a fresh scope for this span to open; [traced:false] keeps the span
   out of the global buffer, so only scopes see it.  A span that nothing
   would record is not opened at all. *)
let with_span ?(detail = "") ?remote ?plan ?scope ?(traced = true) name f =
  if scope = None && not !recording_flag then f ()
  else begin
    let id = self_id () in
    Mutex.lock state_mutex;
    (* nothing below raises *)
    let stack = stack_locked id in
    let up = match stack with u :: _ -> Some u | [] -> None in
    let outer = match up with Some u -> u.scope | None -> None in
    let global = traced && !enabled_flag in
    let wanted =
      match (outer, up) with
      | Some sc, Some u ->
          plan <> None || Option.fold ~none:false ~some:(( == ) u) sc.sc_owner
      | _ -> false
    in
    if not (global || scope <> None || wanted) then begin
      Mutex.unlock state_mutex;
      f ()
    end
    else begin
      let trace_id, parent =
        match (remote, up) with
        | Some (t, p), _ -> (t, Some p)
        | None, Some u -> (u.trace_id, Some u.span_id)
        | None, None ->
            incr next_trace;
            (!process_tag ^ "t" ^ string_of_int !next_trace, None)
      in
      incr next_span;
      let s =
        { trace_id; span_id = !process_tag ^ "s" ^ string_of_int !next_span;
          parent; name; detail; start_ms = now_ms (); end_ms = nan;
          events = []; up;
          scope = (if scope = None then outer else scope);
          (* a plan node its scope has no room for stays a plain span, so
             its kernel ops land in the nearest kept node *)
          plan =
            (match (plan, outer) with
            | Some _, Some o when o.sc_n >= o.sc_capacity -> None
            | Some label, _ -> Some { label; rows = -1; ops = [] }
            | None, _ -> None) }
      in
      if global then record_locked s (Some buffer);
      record_locked s outer;
      Option.iter
        (fun nsc ->
          nsc.sc_owner <- Some s;
          nsc.sc_outer <- outer;
          incr open_scopes;
          refresh ())
        scope;
      Hashtbl.replace stacks id (s :: stack);
      Mutex.unlock state_mutex;
      Fun.protect
        ~finally:(fun () ->
          s.end_ms <- now_ms ();
          Mutex.lock state_mutex;
          pop_locked id s;
          if scope <> None then begin
            decr open_scopes;
            refresh ()
          end;
          Mutex.unlock state_mutex)
        f
    end
  end

(* The plan node [s] is, or is under: the nearest on its stack, across
   the threads its work was handed to. *)
let rec plan_of s =
  match (s.plan, s.up) with
  | Some p, _ -> Some p
  | None, Some u -> plan_of u
  | None, None -> None

(* Run [f] with [span] installed as this thread's ambient current span.
   The span is NOT re-recorded and NOT finished here — it belongs to the
   thread that started it.  The dispatch executor uses this to carry the
   submitting thread's open span onto a pool thread, so spans and plan
   nodes opened by the shipped work keep their logical parent and their
   scopes instead of becoming roots of orphan traces. *)
let with_ambient span f =
  if not !recording_flag then f ()
  else begin
    let id = self_id () in
    locked (fun () -> Hashtbl.replace stacks id (span :: stack_locked id));
    Fun.protect ~finally:(fun () -> locked (fun () -> pop_locked id span)) f
  end

let event ?(detail = "") name =
  if !enabled_flag then
    match current () with
    | None -> ()
    | Some s -> s.events <- { e_name = name; e_detail = detail; e_at = now_ms () } :: s.events

(* Outgoing context: what to stamp into the SOAP header. *)
let propagation () =
  if not !enabled_flag then None
  else match current () with Some s -> Some (s.trace_id, s.span_id) | None -> None

let spans () = List.rev buffer.sc_spans (* creation order *)

(* Mark/since: capture the spans created during one request without
   copying the buffer.  [mark] snapshots the recorded count; [since m]
   returns the spans recorded after that point, in creation order.  The
   flight recorder uses the pair to attach each request's span slice to
   its ring entry. *)
let mark () = locked (fun () -> buffer.sc_n)

let since m =
  let all, n = locked (fun () -> (buffer.sc_spans, buffer.sc_n)) in
  if n <= m then []
  else
    (* [all] is newest first: the spans since the mark are its first
       [n - m] elements. *)
    let rec take k acc = function
      | s :: rest when k > 0 -> take (k - 1) (s :: acc) rest
      | _ -> acc
    in
    take (n - m) [] all

let dropped_count () = buffer.sc_dropped

let open_count () =
  List.length (List.filter (fun s -> Float.is_nan s.end_ms) buffer.sc_spans)

let duration_ms s = if Float.is_nan s.end_ms then nan else s.end_ms -. s.start_ms

(* ------------------------------------------------------------------ *)
(* Tree reconstruction and rendering                                   *)
(* ------------------------------------------------------------------ *)

(* Children of each span id, in creation order; roots are spans whose
   parent is absent from the recorded set (covers both true roots and
   remote parents living in another process's collector). *)
let tree_of all =
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.span_id s) all;
  let children = Hashtbl.create 64 in
  let roots = ref [] in
  List.iter
    (fun s ->
      match s.parent with
      | Some p when Hashtbl.mem by_id p ->
          let l = try Hashtbl.find children p with Not_found -> [] in
          Hashtbl.replace children p (s :: l)
      | _ -> roots := s :: !roots)
    all;
  let kids id = List.rev (try Hashtbl.find children id with Not_found -> []) in
  (List.rev !roots, kids)

let render () =
  let all = spans () in
  let roots, kids = tree_of all in
  let buf = Buffer.create 1024 in
  let rec pr indent s =
    let dur = duration_ms s in
    Buffer.add_string buf
      (Printf.sprintf "%s%s%s  %s  [%s/%s]\n" indent s.name
         (if s.detail = "" then "" else " (" ^ s.detail ^ ")")
         (if Float.is_nan dur then "OPEN" else Printf.sprintf "%.3f ms" dur)
         s.trace_id s.span_id);
    List.iter
      (fun e ->
        Buffer.add_string buf
          (Printf.sprintf "%s  * %s%s @%.3f\n" indent e.e_name
             (if e.e_detail = "" then "" else " " ^ e.e_detail)
             (e.e_at -. s.start_ms)))
      (List.rev s.events);
    List.iter (pr (indent ^ "  ")) (kids s.span_id)
  in
  List.iter (pr "") roots;
  if buffer.sc_dropped > 0 then
    Buffer.add_string buf
      (Printf.sprintf "(%d spans dropped: buffer full)\n" buffer.sc_dropped);
  Buffer.contents buf

(* Structure-only rendering — span names, nesting and event names, but no
   timestamps or durations. Two runs of the same seeded schedule must
   produce equal signatures (replay determinism extended to traces). *)
let signature_of all =
  let roots, kids = tree_of all in
  let buf = Buffer.create 512 in
  let rec pr s =
    Buffer.add_string buf s.name;
    let evs = List.rev_map (fun e -> e.e_name) s.events in
    if evs <> [] then Buffer.add_string buf ("!" ^ String.concat "!" evs);
    let cs = kids s.span_id in
    if cs <> [] then begin
      Buffer.add_char buf '(';
      List.iteri (fun i c -> if i > 0 then Buffer.add_char buf ','; pr c) cs;
      Buffer.add_char buf ')'
    end
  in
  List.iteri (fun i r -> if i > 0 then Buffer.add_char buf ';'; pr r) roots;
  Buffer.contents buf

let signature () = signature_of (spans ())

(* Aggregate per-phase totals: (name, count, total inclusive ms), sorted by
   total descending — the paper's Table-2-style cost breakdown. *)
let phase_summary_of all =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let d = duration_ms s in
      if not (Float.is_nan d) then
        let n, t = try Hashtbl.find tbl s.name with Not_found -> (0, 0.) in
        Hashtbl.replace tbl s.name (n + 1, t +. d))
    all;
  Hashtbl.fold (fun name (n, t) acc -> (name, n, t) :: acc) tbl []
  |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)

let phase_summary () = phase_summary_of (spans ())
