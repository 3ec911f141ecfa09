(* Per-layer instruments that sit outside the program: a wrapped
   transport (bytes, exchanges, send time), a wrapped serving handler
   (handler time, captured bodies), re-timing of the SOAP codec on the
   captured bodies, and self times of the program's own Trace spans. *)

module Transport = Xrpc_net.Transport
module Trace = Xrpc_obs.Trace
module Message = Xrpc_soap.Message

type t = {
  mutable timing : bool;  (* traced phase: time sends and handlers *)
  mutable exchanges : int;  (* request/response pairs *)
  mutable bytes : int;  (* request + response SOAP bytes *)
  mutable send_s : float;  (* time inside the wrapped transport *)
  mutable handler_s : float;  (* time inside wrapped handlers *)
  mutable captured : (string * string * float) list;
      (* (request, response, handler seconds or nan), newest first *)
}

let create () =
  { timing = false; exchanges = 0; bytes = 0; send_s = 0.; handler_s = 0.;
    captured = [] }

let count p req resp =
  p.exchanges <- p.exchanges + 1;
  p.bytes <- p.bytes + String.length req + String.length resp

(* The client-side wrapper: counts every exchange; while timing, also the
   time the inner transport takes (handler included on Simnet).  With
   [capture], bodies are kept for the codec re-timing — the HTTP
   workload's only view of them. *)
let wrap_transport ?(capture = false) p (inner : Transport.t) : Transport.t =
  let send ~dest body =
    if not p.timing then begin
      let resp = inner.Transport.send ~dest body in
      count p body resp;
      resp
    end
    else begin
      let resp, dt = Measure.time (fun () -> inner.Transport.send ~dest body) in
      count p body resp;
      p.send_s <- p.send_s +. dt;
      if capture then p.captured <- (body, resp, nan) :: p.captured;
      resp
    end
  in
  let send_parallel pairs =
    let resps, dt =
      Measure.time (fun () -> inner.Transport.send_parallel pairs)
    in
    List.iter2 (fun (_, body) resp -> count p body resp) pairs resps;
    if p.timing then p.send_s <- p.send_s +. dt;
    resps
  in
  { Transport.send; send_parallel }

(* The serving-side wrapper around a peer's raw handler (what
   Simnet.register calls): while timing, records each request with its
   reply and handler time. *)
let wrap_handler p handler body =
  if not p.timing then handler body
  else begin
    let resp, dt = Measure.time (fun () -> handler body) in
    p.handler_s <- p.handler_s +. dt;
    p.captured <- (body, resp, dt) :: p.captured;
    resp
  end

(* ------------------------------------------------------------------ *)
(* SOAP codec, re-timed on captured bodies                             *)
(* ------------------------------------------------------------------ *)

type codec = {
  mutable n : int;  (* exchanges re-timed *)
  mutable req_decode : float;  (* seconds, summed *)
  mutable req_encode : float;
  mutable resp_decode : float;
  mutable resp_encode : float;
  mutable minor_words : float;
  mutable commit_handler : float;
      (* handler time of 2PC Commit requests minus their codec: the
         participant's Database.commit, which no span covers *)
  mutable phases : (string * float) list;
      (* serverProfile phase sums (ms) carried by traced responses *)
}

let codec () =
  { n = 0; req_decode = 0.; req_encode = 0.; resp_decode = 0.;
    resp_encode = 0.; minor_words = 0.; commit_handler = 0.; phases = [] }

let add_phase c (name, ms) =
  let prev = Option.value ~default:0. (List.assoc_opt name c.phases) in
  c.phases <- (name, prev +. ms) :: List.remove_assoc name c.phases

(* Decode and re-encode both bodies of an exchange, timing each step
   and the minor words it allocates.  Runs outside any measured
   interval, with no span open, so the re-encode carries no trace
   header.  With [server_phases], the serving peer's phase breakdown is
   also read off the response. *)
let retime ?(server_phases = false) c (req, resp, handler_s) =
  let w0 = Gc.minor_words () in
  let req_msg, d1 = Measure.time (fun () -> Message.of_string req) in
  let _, e1 = Measure.time (fun () -> Message.to_string req_msg) in
  let resp_msg, d2 = Measure.time (fun () -> Message.of_string resp) in
  let _, e2 = Measure.time (fun () -> Message.to_string resp_msg) in
  c.minor_words <- c.minor_words +. (Gc.minor_words () -. w0);
  c.n <- c.n + 1;
  c.req_decode <- c.req_decode +. d1;
  c.req_encode <- c.req_encode +. e1;
  c.resp_decode <- c.resp_decode +. d2;
  c.resp_encode <- c.resp_encode +. e2;
  (match req_msg with
  | Message.Tx_request (Message.Commit, _) when not (Float.is_nan handler_s) ->
      c.commit_handler <- c.commit_handler +. (handler_s -. d1 -. e2)
  | _ -> ());
  if server_phases then
    Option.iter (List.iter (add_phase c))
      (snd (Message.of_string_profiled resp))

let retime_captured ?server_phases c p =
  List.iter (retime ?server_phases c) (List.rev p.captured);
  p.captured <- []

(* ------------------------------------------------------------------ *)
(* Span self times                                                     *)
(* ------------------------------------------------------------------ *)

(* name -> (count, inclusive seconds, self seconds); a span's self time
   is its duration minus the durations of its direct children (spans of
   one thread nest, so children never overlap). *)
type spans = (string, int * float * float) Hashtbl.t

let spans () : spans = Hashtbl.create 32

let add_spans (tbl : spans) (all : Trace.span list) =
  let child = Hashtbl.create 64 in
  let dur s = Trace.duration_ms s /. 1000. in
  List.iter
    (fun s ->
      match s.Trace.parent with
      | Some p ->
          Hashtbl.replace child p
            (dur s +. Option.value ~default:0. (Hashtbl.find_opt child p))
      | None -> ())
    all;
  List.iter
    (fun s ->
      let d = dur s in
      if not (Float.is_nan d) then begin
        let self =
          d -. Option.value ~default:0. (Hashtbl.find_opt child s.Trace.span_id)
        in
        let n, i, sf =
          Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt tbl s.Trace.name)
        in
        Hashtbl.replace tbl s.Trace.name (n + 1, i +. d, sf +. self)
      end)
    all

let incl (tbl : spans) name =
  match Hashtbl.find_opt tbl name with Some (_, i, _) -> i | None -> 0.

(* Run [f] with the tracer on, then fold the spans it recorded into
   [tbl]; returns [f]'s result and the seconds [f] took, which exclude
   the folding.  The buffer is reset first so it never fills up. *)
let traced tbl f =
  Trace.reset ();
  Trace.set_enabled true;
  let r, dt =
    Fun.protect ~finally:(fun () -> Trace.set_enabled false) (fun () ->
        Measure.time f)
  in
  add_spans tbl (Trace.spans ());
  Trace.reset ();
  (r, dt)
