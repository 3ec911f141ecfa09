(** SOAP XRPC messages (§2.1, §2.2, §3.2 of the paper).

    A request names a module (URI + at-hint location), a function and its
    arity, and carries one or more [xrpc:call] bodies — more than one makes
    it a {e Bulk RPC} (§3.2).  The optional [queryID] child selects
    repeatable-read isolation (§2.2); responses piggyback the list of
    participating peers needed for 2PC registration (§2.3).  Faults use the
    SOAP Fault format.  The same channel also carries the
    WS-AtomicTransaction-style Prepare/Commit/Rollback control messages. *)

open Xrpc_xml

(** Repeatable-read isolation handle: originating host, UTC start timestamp
    and a {e relative} timeout in seconds (§2.2, "SOAP XRPC Extension:
    Isolation"). *)
type isolation_level = Repeatable | Snapshot

type query_id = {
  host : string;
  timestamp : string;
  timeout : int;
  level : isolation_level;
      (** [Snapshot] asks peers to pin the state as of [timestamp] (the
          distributed snapshot isolation sketched in §2.2); [Repeatable]
          pins at first contact *)
}

type request = {
  module_uri : string;  (** target namespace of the module *)
  location : string;  (** at-hint URL of the module source *)
  method_ : string;  (** function local name *)
  arity : int;
  updating : bool;  (** calls an XQUF updating function *)
  fragments : bool;
      (** footnote-4 extension: descendant node parameters are sent as
          [xrpc:nodeid] references into earlier parameters *)
  query_id : query_id option;
  idem_key : string option;
      (** idempotency key: peers cache the response under this key so a
          retried or duplicated request (at-least-once transports) returns
          the cached reply instead of re-executing updating functions *)
  cache_ok : bool;
      (** [false] rides as [cache="off"] and forbids the serving peer to
          answer from its semantic result cache — the escape hatch the
          differential tests use to compare cached vs fresh answers.  The
          default [true] leaves the wire format unchanged. *)
  calls : Xdm.sequence list list;
      (** one entry per call; each call is [arity] parameter sequences *)
}

type response = {
  resp_module : string;
  resp_method : string;
  results : Xdm.sequence list;  (** one result sequence per call *)
  peers : string list;  (** piggybacked participating peers (§2.3) *)
  cached : bool;
      (** the serving peer answered from its semantic result cache
          (rides as [cached="true"], omitted otherwise) *)
  db_version : int option;
      (** the serving peer's database version token ([dbVersion]
          attribute) — lets callers observe remote data movement without
          another round trip *)
}

type fault = { fault_code : [ `Sender | `Receiver ]; reason : string }

type tx_op =
  | Prepare
  | Commit
  | Rollback
  | Status
      (** in-doubt recovery: a participant that prepared but missed the
          decision asks the coordinator for the outcome (presumed abort:
          an unknown transaction means "aborted") *)

(** The wire name of a 2PC operation ([operation] attribute). *)
let tx_op_name = function
  | Prepare -> "prepare"
  | Commit -> "commit"
  | Rollback -> "rollback"
  | Status -> "status"

type t =
  | Request of request
  | Response of response
  | Fault of fault
  | Tx_request of tx_op * query_id
  | Tx_response of { ok : bool; info : string }

exception Protocol_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Protocol_error s)) fmt

let query_id_key (q : query_id) = q.host ^ "@" ^ q.timestamp

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* Profiled responses carry the serving peer's per-phase wall costs back
   as one [serverProfile="name=ms;..."] attribute on xrpc:response
   (protocol/XRPC.xsd), so a client profile of a distributed query can
   break down remote time into parse/compile/exec/commit without a second
   round trip.  An attribute rather than a header element because XML
   serialization and parsing cost per *node*, and this rides every
   profiled response — measured, a Header/serverProfile element pair cost
   ~5 µs per response against ~0.5 µs for the attribute. *)
(* %.3f by hand: Printf's interpreted float formatting costs ~0.5 µs per
   call, and there are four phases on every profiled response *)
let fixed3 ms =
  let thousandths = int_of_float ((ms *. 1000.) +. 0.5) in
  let whole = thousandths / 1000 and frac = thousandths mod 1000 in
  string_of_int whole ^ "."
  ^ (if frac < 10 then "00" else if frac < 100 then "0" else "")
  ^ string_of_int frac

(* The envelope start tag, declaring the prefixes of
   [Marshal.envelope_scope], behind the XML declaration. *)
let envelope_start =
  let buf = Buffer.create 512 in
  Buffer.add_string buf Serialize.xml_declaration;
  Buffer.add_string buf "<env:Envelope";
  List.iter
    (fun (prefix, uri) ->
      if prefix <> "xml" then Serialize.add_attr buf ("xmlns:" ^ prefix) uri)
    Marshal.envelope_scope;
  Serialize.add_attr buf "xsi:schemaLocation"
    "http://monetdb.cwi.nl/XQuery http://monetdb.cwi.nl/XQuery/XRPC.xsd";
  Buffer.add_char buf '>';
  Buffer.contents buf

let add = Buffer.add_string
let add_attr = Serialize.add_attr

(* The end of a start tag whose content [write_content] may leave empty:
   [/>] then, or [>content</name>]. *)
let close_tag buf name ~empty write_content =
  if empty then add buf "/>"
  else (
    Buffer.add_char buf '>';
    write_content ();
    add buf "</";
    add buf name;
    Buffer.add_char buf '>')

let write_query_id buf (q : query_id) =
  add buf "<xrpc:queryID";
  add_attr buf "host" q.host;
  add_attr buf "timestamp" q.timestamp;
  add_attr buf "timeout" (string_of_int q.timeout);
  (match q.level with
  | Repeatable -> ()
  | Snapshot -> add_attr buf "level" "snapshot");
  add buf "/>"

let write_request buf ~profile_flag r =
  add buf "<xrpc:request";
  add_attr buf "module" r.module_uri;
  add_attr buf "method" r.method_;
  add_attr buf "arity" (string_of_int r.arity);
  add_attr buf "location" r.location;
  if r.updating then add_attr buf "updCall" "true";
  Option.iter (add_attr buf "idemKey") r.idem_key;
  (* profile="true" asks the serving peer to measure and return its phase
     costs; an attribute (like idemKey, not a header element) to keep the
     flag at one node of cost *)
  if profile_flag then add_attr buf "profile" "true";
  (* cache="off" only when the caller opts out — the common case costs
     zero wire bytes *)
  if not r.cache_ok then add_attr buf "cache" "off";
  if r.fragments then add_attr buf "fragments" "true";
  close_tag buf "xrpc:request" ~empty:(r.query_id = None && r.calls = [])
    (fun () ->
      Option.iter (write_query_id buf) r.query_id;
      List.iter
        (fun params ->
          add buf "<xrpc:call";
          close_tag buf "xrpc:call" ~empty:(params = []) (fun () ->
              Marshal.write_call ~fragments:r.fragments buf params))
        r.calls)

let write_response buf ?server_profile r =
  add buf "<xrpc:response";
  add_attr buf "module" r.resp_module;
  add_attr buf "method" r.resp_method;
  if r.cached then add_attr buf "cached" "true";
  Option.iter (fun v -> add_attr buf "dbVersion" (string_of_int v)) r.db_version;
  (match server_profile with
  | None | Some [] -> ()
  | Some phases ->
      add_attr buf "serverProfile"
        (String.concat ";"
           (List.map (fun (name, ms) -> name ^ "=" ^ fixed3 ms) phases)));
  close_tag buf "xrpc:response" ~empty:(r.peers = [] && r.results = [])
    (fun () ->
      if r.peers <> [] then (
        add buf "<xrpc:participatingPeers>";
        List.iter
          (fun p ->
            add buf "<xrpc:peer";
            add_attr buf "uri" p;
            add buf "/>")
          r.peers;
        add buf "</xrpc:participatingPeers>");
      List.iter (Marshal.write_sequence buf) r.results)

(** Append a message's on-the-wire form (with XML declaration) to [buf].
    The event-loop server hands each connection's reused output buffer
    here, so an envelope goes straight from the store into the socket's
    write queue.  When tracing is enabled and no explicit [?trace] pair is
    given, the ambient span context ([Xrpc_obs.Trace.propagation]) is
    stamped into the envelope header automatically; with tracing off the
    wire format is byte-identical to previous releases. *)
let to_buffer ?trace ?server_profile buf m =
  let trace =
    match trace with Some _ as t -> t | None -> Xrpc_obs.Trace.propagation ()
  in
  add buf envelope_start;
  (* When tracing is active the envelope grows a SOAP Header carrying the
     (trace-id, parent-span) pair — see protocol/XRPC.xsd, xrpc:trace — so
     a serving peer can hang its spans under the caller's span tree. *)
  Option.iter
    (fun (trace_id, parent_span) ->
      add buf "<env:Header><xrpc:trace";
      add_attr buf "traceId" trace_id;
      add_attr buf "parentSpan" parent_span;
      add buf "/></env:Header>")
    trace;
  add buf "<env:Body>";
  (match m with
  | Request r ->
      (* a request serialized while client-side profiling is on asks the
         serving peer for its phase breakdown (the profile attribute) —
         this is what lets call_profiled see a remote process's costs *)
      write_request buf ~profile_flag:(Xrpc_obs.Profile.enabled ()) r
  | Response r -> write_response buf ?server_profile r
  | Fault f ->
      add buf "<env:Fault><env:Code><env:Value>";
      add buf (match f.fault_code with `Sender -> "env:Sender" | `Receiver -> "env:Receiver");
      add buf "</env:Value></env:Code><env:Reason><env:Text xml:lang=\"en\">";
      Serialize.add_escaped_text buf f.reason;
      add buf "</env:Text></env:Reason></env:Fault>"
  | Tx_request (op, q) ->
      add buf "<xrpc:transaction";
      add_attr buf "operation" (tx_op_name op);
      add buf ">";
      write_query_id buf q;
      add buf "</xrpc:transaction>"
  | Tx_response r ->
      add buf "<xrpc:transactionResult";
      add_attr buf "ok" (if r.ok then "true" else "false");
      add_attr buf "info" r.info;
      add buf "/>");
  add buf "</env:Body></env:Envelope>"

(** Serialize a message to its on-the-wire form; see {!to_buffer}. *)
let to_string ?trace ?server_profile m =
  let buf = Buffer.create 1024 in
  to_buffer ?trace ?server_profile buf m;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let find_attr attrs local =
  List.find_map
    (fun (a : Tree.attr) ->
      if a.name.Qname.local = local then Some a.value else None)
    attrs

let elem_children children =
  List.filter_map
    (function Tree.Element _ as e -> Some e | _ -> None)
    children

let parse_query_id = function
  | Tree.Element { attrs; _ } ->
      {
        host = Option.value ~default:"" (find_attr attrs "host");
        timestamp = Option.value ~default:"" (find_attr attrs "timestamp");
        timeout =
          (match find_attr attrs "timeout" with
          | Some s -> ( try int_of_string s with _ -> 30)
          | None -> 30);
        level =
          (match find_attr attrs "level" with
          | Some "snapshot" -> Snapshot
          | _ -> Repeatable);
      }
  | _ -> err "malformed queryID"

let of_tree tree =
  let body =
    match tree with
    | Tree.Document [ Tree.Element { name; children; _ } ]
      when name.Qname.local = "Envelope" -> (
        match
          List.find_opt
            (function
              | Tree.Element { name; _ } -> name.Qname.local = "Body"
              | _ -> false)
            (elem_children children)
        with
        | Some (Tree.Element { children; _ }) -> elem_children children
        | _ -> err "SOAP envelope without Body")
    | _ -> err "not a SOAP envelope"
  in
  match body with
  | [ Tree.Element { name; attrs; children } ] when name.Qname.local = "request" ->
      let get what =
        match find_attr attrs what with
        | Some v -> v
        | None -> err "request missing %s attribute" what
      in
      let kids = elem_children children in
      let query_id =
        List.find_opt
          (function
            | Tree.Element { name; _ } -> name.Qname.local = "queryID"
            | _ -> false)
          kids
        |> Option.map parse_query_id
      in
      let calls =
        List.filter_map
          (function
            | Tree.Element { name; children; _ } when name.Qname.local = "call" ->
                Some (Marshal.n2s_call (elem_children children))
            | _ -> None)
          kids
      in
      Request
        {
          module_uri = get "module";
          location = Option.value ~default:"" (find_attr attrs "location");
          method_ = get "method";
          arity = (try int_of_string (get "arity") with _ -> 0);
          updating = find_attr attrs "updCall" = Some "true";
          fragments = find_attr attrs "fragments" = Some "true";
          query_id;
          idem_key = find_attr attrs "idemKey";
          cache_ok = find_attr attrs "cache" <> Some "off";
          calls;
        }
  | [ Tree.Element { name; attrs; children } ] when name.Qname.local = "response" ->
      let kids = elem_children children in
      let peers =
        List.concat_map
          (function
            | Tree.Element { name; children; _ }
              when name.Qname.local = "participatingPeers" ->
                List.filter_map
                  (function
                    | Tree.Element { name; attrs; _ }
                      when name.Qname.local = "peer" ->
                        find_attr attrs "uri"
                    | _ -> None)
                  (elem_children children)
            | _ -> [])
          kids
      in
      let results =
        List.filter_map
          (function
            | Tree.Element { name; _ } as e when name.Qname.local = "sequence" ->
                Some (Marshal.n2s e)
            | _ -> None)
          kids
      in
      Response
        {
          resp_module = Option.value ~default:"" (find_attr attrs "module");
          resp_method = Option.value ~default:"" (find_attr attrs "method");
          results;
          peers;
          cached = find_attr attrs "cached" = Some "true";
          db_version =
            Option.bind (find_attr attrs "dbVersion") int_of_string_opt;
        }
  | [ Tree.Element { name; children; _ } ] when name.Qname.local = "Fault" ->
      let kids = elem_children children in
      let code =
        match
          List.find_opt
            (function
              | Tree.Element { name; _ } -> name.Qname.local = "Code"
              | _ -> false)
            kids
        with
        | Some c
          when String.ends_with ~suffix:"Sender"
                 (String.trim (Tree.string_value c)) -> `Sender
        | _ -> `Receiver
      in
      let reason =
        match
          List.find_opt
            (function
              | Tree.Element { name; _ } -> name.Qname.local = "Reason"
              | _ -> false)
            kids
        with
        | Some r -> String.trim (Tree.string_value r)
        | None -> ""
      in
      Fault { fault_code = code; reason }
  | [ Tree.Element { name; attrs; children } ] when name.Qname.local = "transaction" ->
      let op =
        match find_attr attrs "operation" with
        | Some "prepare" -> Prepare
        | Some "commit" -> Commit
        | Some "rollback" -> Rollback
        | Some "status" -> Status
        | _ -> err "unknown transaction operation"
      in
      let qid =
        match elem_children children with
        | q :: _ -> parse_query_id q
        | [] -> err "transaction without queryID"
      in
      Tx_request (op, qid)
  | [ Tree.Element { name; attrs; _ } ] when name.Qname.local = "transactionResult" ->
      Tx_response
        {
          ok = find_attr attrs "ok" = Some "true";
          info = Option.value ~default:"" (find_attr attrs "info");
        }
  | _ -> err "unrecognized SOAP body"

(* The attributes of the first element named [local] in the envelope's
   [section] ("Header" or "Body"). *)
let envelope_child tree ~section ~local =
  match tree with
  | Tree.Document [ Tree.Element { name; children; _ } ]
    when name.Qname.local = "Envelope" ->
      List.find_map
        (function
          | Tree.Element { name; children; _ } when name.Qname.local = section ->
              List.find_map
                (function
                  | Tree.Element { name; attrs; _ } when name.Qname.local = local ->
                      Some attrs
                  | _ -> None)
                children
          | _ -> None)
        children
  | _ -> None

(* The propagated (trace-id, parent-span) pair, if the envelope carries an
   xrpc:trace header. *)
let trace_of_tree tree =
  Option.bind (envelope_child tree ~section:"Header" ~local:"trace") (fun attrs ->
      match (find_attr attrs "traceId", find_attr attrs "parentSpan") with
      | Some t, Some p -> Some (t, p)
      | _ -> None)

(* The serving peer's phase costs, if the response element carries a
   serverProfile attribute. *)
let parse_phase_list text =
  List.filter_map
    (fun pair ->
      match String.index_opt pair '=' with
      | Some i ->
          Option.map
            (fun v -> (String.sub pair 0 i, v))
            (float_of_string_opt
               (String.sub pair (i + 1) (String.length pair - i - 1)))
      | None -> None)
    (String.split_on_char ';' text)

let server_profile_of_tree tree =
  Option.bind (envelope_child tree ~section:"Body" ~local:"response") (fun attrs ->
      Option.map parse_phase_list (find_attr attrs "serverProfile"))

(* Did the caller stamp profile="true" on the request element? *)
let profile_requested_of_tree tree =
  match envelope_child tree ~section:"Body" ~local:"request" with
  | Some attrs -> find_attr attrs "profile" = Some "true"
  | None -> false

(* Whitespace is kept: it may be the value of an atomic or a text node,
   and the structure readers above skip it between elements. *)
let parse s = Xml_parse.document ~preserve_space:true s

(** Parse an on-the-wire message. *)
let of_string s = of_tree (parse s)

(** Parse a message together with the serving peer's phase costs, if the
    response element carries a serverProfile attribute. *)
let of_string_profiled s =
  let tree = parse s in
  (of_tree tree, server_profile_of_tree tree)

(** Parse a reply from [dest]; under a profile, the serving peer's
    serverProfile phases are noted against [dest]. *)
let of_reply ~dest s =
  if not (Xrpc_obs.Profile.enabled ()) then of_string s
  else begin
    let m, phases = of_string_profiled s in
    Option.iter (Xrpc_obs.Profile.note_remote ~dest) phases;
    m
  end

(** Server-side parse: the message, its propagated trace context, and
    whether the caller asked for the phase breakdown (xrpc:profile).
    [?pos]/[?len] parse the envelope out of a window of [s] — the
    streaming-parse hook: the event-loop server points this directly at
    the request body inside its connection buffer, copy-free. *)
let of_string_server ?(pos = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - pos in
  let tree = Xml_parse.document_sub ~preserve_space:true s ~pos ~len in
  (of_tree tree, trace_of_tree tree, profile_requested_of_tree tree)

(** Parse a message together with its propagated trace context, if any. *)
let of_string_traced s =
  let tree = parse s in
  (of_tree tree, trace_of_tree tree)
