(* rpc_http: small XRPC requests to a real server.  The xrpc_server
   binary runs as its own process on loopback with default flags and a
   generated data directory holding the test module; the generator sends
   single-call tst:echo requests of short, distinct strings over two
   keep-alive connections (one client and one thread each).  A closed
   loop gives throughput and the per-echo latency; an open loop over a
   fixed ladder of offered rates gives latency measured from when each
   request was due, and the highest rate that meets the p99 limit. *)

module Http = Xrpc_net.Http
module Client = Xrpc_core.Xrpc_client
module Xdm = Xrpc_xml.Xdm
module Trace = Xrpc_obs.Trace
open Measure

let connections = 2

(* ------------------------------------------------------------------ *)
(* The server process                                                  *)
(* ------------------------------------------------------------------ *)

type server = { pid : int; port : int; out : in_channel; mutable scrapes : int }

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* the generated data directory, inside the working directory *)
let data_dir () =
  let dir = Printf.sprintf ".perfbench/rpc_http-%d" (Unix.getpid ()) in
  if not (Sys.file_exists ".perfbench") then Sys.mkdir ".perfbench" 0o755;
  rm_rf dir;
  Sys.mkdir dir 0o755;
  let oc = open_out (Filename.concat dir "test.xq") in
  output_string oc Xrpc_workloads.Testmod.test_module;
  close_out oc;
  dir

let listening_prefix = "XRPC peer listening on xrpc://127.0.0.1:"

let spawn ~exe ~dir =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe [| exe; "-p"; "0"; "--data"; dir |] Unix.stdin w
      Unix.stderr
  in
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  let rec wait_port () =
    match input_line out with
    | exception End_of_file -> failwith "xrpc_server exited before listening"
    | line ->
        let n = String.length listening_prefix in
        if String.length line > n && String.sub line 0 n = listening_prefix then
          Scanf.sscanf (String.sub line n (String.length line - n)) "%d" Fun.id
        else wait_port ()
  in
  match wait_port () with
  | port -> { pid; port; out; scrapes = 0 }
  | exception e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      close_in out;
      raise e

let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] s.pid);
  close_in_noerr s.out

(* One GET on a fresh connection (the monitoring routes). *)
let get s path =
  s.scrapes <- s.scrapes + 1;
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close sock)
    (fun () ->
      Unix.setsockopt_float sock Unix.SO_RCVTIMEO 10.;
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, s.port));
      let req =
        Printf.sprintf
          "GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n" path
      in
      ignore (Unix.write_substring sock req 0 (String.length req));
      let buf = Buffer.create 4096 and chunk = Bytes.create 4096 in
      let rec read () =
        match Unix.read sock chunk 0 4096 with
        | 0 -> ()
        | k ->
            Buffer.add_subbytes buf chunk 0 k;
            read ()
      in
      read ();
      let all = Buffer.contents buf in
      let rec body_start i =
        if i + 4 > String.length all then failwith ("no body from " ^ path)
        else if String.sub all i 4 = "\r\n\r\n" then i + 4
        else body_start (i + 1)
      in
      let b = body_start 0 in
      String.sub all b (String.length all - b))

(* The number after ["sub": ] inside the JSON object under ["key"]
   (the monitoring routes print one object per series). *)
let json_num text ~key ~sub =
  let find_from i pat =
    let n = String.length pat in
    let rec go i =
      if i + n > String.length text then raise Not_found
      else if String.sub text i n = pat then i + n
      else go (i + 1)
    in
    go i
  in
  let i = find_from (find_from 0 ("\"" ^ key ^ "\"")) ("\"" ^ sub ^ "\":") in
  let j = ref i in
  while !j < String.length text && not (List.mem text.[!j] [ ','; '}' ]) do
    incr j
  done;
  match float_of_string_opt (String.trim (String.sub text i (!j - i))) with
  | Some v -> v
  | None -> nan

(* a "name value" line of /statz *)
let statz_num text name =
  List.find_map
    (fun line ->
      match String.split_on_char ' ' line with
      | [ k; v ] when k = name -> float_of_string_opt v
      | _ -> None)
    (String.split_on_char '\n' text)
  |> Option.value ~default:nan

type handle_stats = { count : float; sum_ms : float }

let handle_stats s =
  let m = get s "/metrics.json" in
  {
    count = json_num m ~key:"peer.handle_ms" ~sub:"count";
    sum_ms = json_num m ~key:"peer.handle_ms" ~sub:"sum";
  }

type cachez = {
  result_hits : float;
  result_misses : float;
  result_evictions : float;
  idem_evictions : float;
}

let cachez s =
  let c = get s "/cachez.json" in
  {
    result_hits = json_num c ~key:"result_cache" ~sub:"hits";
    result_misses = json_num c ~key:"result_cache" ~sub:"misses";
    result_evictions = json_num c ~key:"result_cache" ~sub:"evictions";
    idem_evictions = json_num c ~key:"idem_cache" ~sub:"evictions";
  }

(* ------------------------------------------------------------------ *)
(* The generator                                                       *)
(* ------------------------------------------------------------------ *)

type gen = {
  client : Client.t;
  probe : Probe.t;
}

type env = {
  server : server;
  dest : string;
  gens : gen array;  (* one per connection/thread *)
  seed : int;
  dir : string;
}

(* fixed-width distinct strings: byte counts do not depend on how many
   operations ran *)
let echo_arg seed i =
  Printf.sprintf "%08x%08x" (Hashtbl.hash (seed, i, 1)) (Hashtbl.hash (seed, i, 2))

(* One echo; returns false (after recording the failure) when the call
   raised or returned anything but its own argument. *)
let echo env r g i =
  let arg = echo_arg env.seed i in
  match
    Client.call g.client ~dest:env.dest ~module_uri:"test" ~fn:"echo"
      [ [ Xdm.str arg ] ]
  with
  | [ item ] when Xdm.string_value item = arg -> true
  | v ->
      fail r ~wrong:true "echo %d returned %s, expected %s" i
        (Xdm.to_display v) arg;
      false
  | exception e ->
      fail r ~wrong:false "echo %d raised %s" i (Printexc.to_string e);
      false

(* Run [body k] on one thread per connection and wait for all. *)
let on_connections body =
  let ts = Array.init connections (fun k -> Thread.create body k) in
  Array.iter Thread.join ts

let build ~exe seed =
  let dir = data_dir () in
  let server = spawn ~exe ~dir in
  let dest = Printf.sprintf "xrpc://127.0.0.1:%d" server.port in
  let gens =
    Array.init connections (fun k ->
        let probe = Probe.create () in
        let transport =
          Probe.wrap_transport ~capture:true probe
            (Http.transport ~keep_alive:true ~timeout_ms:10_000. ())
        in
        {
          client =
            Client.connect_transport ~origin:(Printf.sprintf "xrpc://gen%d" k)
              transport;
          probe;
        })
  in
  let env = { server; dest; gens; seed; dir } in
  (* warm-up: a fixed number of echoes per connection (negative indices,
     never reused by measured operations) *)
  let warm = result () and per = param_int "warmup_ops" / connections in
  on_connections (fun k ->
      for j = 1 to per do
        ignore (echo env warm env.gens.(k) (-((j * connections) + k)))
      done);
  if warm.failed > 0 then begin
    stop server;
    failwith "rpc_http: warm-up echoes failed"
  end;
  env

let release env =
  stop env.server;
  rm_rf env.dir;
  try Sys.rmdir ".perfbench" with Sys_error _ -> ()

(* Closed loop on every connection for [seconds] (and at least
   [min_ops] operations), operation indices from [first].  Returns
   (operations, elapsed seconds, per-op call seconds, (bytes, messages)
   of the ops with index below [first + window]). *)
let closed env r ~seconds ~min_ops ~first ~window =
  let next = Atomic.make 0 and window_bytes = Atomic.make 0
  and window_msgs = Atomic.make 0 in
  let lat = Array.make connections [] and att = Array.make connections 0 in
  let t0 = now () in
  let deadline = t0 +. seconds in
  on_connections (fun k ->
      let g = env.gens.(k) in
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < min_ops || now () < deadline then begin
          let b0 = g.probe.Probe.bytes and x0 = g.probe.Probe.exchanges in
          att.(k) <- att.(k) + 1;
          let c0 = now () in
          let ok = echo env r g (first + i) in
          let dt = now () -. c0 in
          if ok then lat.(k) <- dt :: lat.(k);
          if i < window then begin
            ignore (Atomic.fetch_and_add window_bytes (g.probe.Probe.bytes - b0));
            ignore
              (Atomic.fetch_and_add window_msgs (2 * (g.probe.Probe.exchanges - x0)))
          end;
          loop ()
        end
      in
      loop ());
  let elapsed = now () -. t0 in
  let n = Array.fold_left ( + ) 0 att in
  r.attempted <- r.attempted + n;
  ( n,
    elapsed,
    List.concat (Array.to_list lat),
    (Atomic.get window_bytes, Atomic.get window_msgs) )

type rung = {
  rate : float;
  sent : int;
  failures : int;
  p50_ms : float;
  p99_ms : float;
  samples : float list;  (* seconds, from due time to reply *)
  gen_late_p99_ms : float;  (* how late an idle sender woke *)
  backlog_ms : float;  (* median start lateness over the last tenth *)
}

(* Open loop: request j is due at t0 + j / rate; each connection takes
   the next due request, sleeps until it is due if idle, and sends.
   Latency runs from the due time, so a stall is charged to every
   request it delays. *)
let rung env r ~rate ~seconds ~first =
  let total = max 1 (int_of_float (rate *. seconds)) in
  let next = Atomic.make 0 and failures = Atomic.make 0 in
  let lat = Array.make connections [] and wake = Array.make connections []
  and tail_late = Array.make connections [] in
  r.attempted <- r.attempted + total;
  let t0 = now () +. 0.001 in
  on_connections (fun k ->
      let g = env.gens.(k) in
      let rec loop () =
        let j = Atomic.fetch_and_add next 1 in
        if j < total then begin
          let due = t0 +. (float_of_int j /. rate) in
          let t = now () in
          if t < due then begin
            Unix.sleepf (due -. t);
            wake.(k) <- (now () -. due) :: wake.(k)
          end;
          let start = now () in
          if j >= total - (total / 10) then
            tail_late.(k) <- (start -. due) :: tail_late.(k);
          if echo env r g (first + j) then lat.(k) <- (now () -. due) :: lat.(k)
          else Atomic.incr failures;
          loop ()
        end
      in
      loop ());
  let all a = List.concat (Array.to_list a) in
  let samples = all lat in
  {
    rate;
    sent = total;
    failures = Atomic.get failures;
    p50_ms = percentile samples 50. *. 1000.;
    p99_ms = percentile samples 99. *. 1000.;
    samples;
    gen_late_p99_ms = percentile (all wake) 99. *. 1000.;
    backlog_ms = median (all tail_late) *. 1000.;
  }

(* The ladder: the rung at [latency_rate] runs for [latency_s], the
   others share [others_s] equally. *)
let ladder env r ~latency_s ~others_s ~first =
  let rates = param_floats "ladder_ops_s" and ref_rate = param_float "latency_rate" in
  let limit = param_float "p99_limit_ms" in
  let others = float_of_int (List.length rates - 1) in
  let first = ref first in
  let rungs =
    List.map
      (fun rate ->
        let seconds = if rate = ref_rate then latency_s else others_s /. others in
        let g = rung env r ~rate ~seconds ~first:!first in
        first := !first + g.sent;
        g)
      rates
  in
  let ok g = g.failures = 0 && g.p99_ms <= limit && g.backlog_ms <= limit in
  List.iter
    (fun g ->
      report
        "open loop %7.0f ops/s: %6d sent, p50 %.4f ms, p99 %.4f ms, backlog %.3f ms, generator wake-up p99 %.4f ms%s%s"
        g.rate g.sent g.p50_ms g.p99_ms g.backlog_ms g.gen_late_p99_ms
        (if ok g then "" else "  [misses the limit]")
        (if g.gen_late_p99_ms > 0.25 *. g.p99_ms then
           "  [GENERATOR-BOUND: lateness, not the server, sets this latency]"
         else ""))
    rungs;
  (* the ladder climbs until the first rung that misses *)
  let rec climb best = function
    | g :: rest when ok g -> climb g.rate rest
    | _ -> best
  in
  let max_ok = climb 0. rungs in
  report
    "highest rate meeting p99 <= %g ms with no growing backlog, every lower rung too: %g ops/s"
    limit max_ok;
  (List.find (fun g -> g.rate = ref_rate) rungs, max_ok)

(* The traced closed-loop blocks: client spans on, so every request
   carries a trace context and the server returns its phase breakdown;
   the wrapped transports time each round trip and keep both bodies. *)
type traced = {
  mutable t_ops : int;
  mutable t_secs : float;
  mutable call_s : float;
  mutable handled : float;  (* server peer.handle_ms count delta *)
  mutable handle_ms : float;  (* and its sum delta *)
}

let traced_block env r t ~seconds ~first =
  let h0 = handle_stats env.server in
  Array.iter (fun g -> g.probe.Probe.timing <- true) env.gens;
  Trace.reset ();
  Trace.set_enabled true;
  let n, secs, calls, _ = closed env r ~seconds ~min_ops:1 ~first ~window:0 in
  Trace.set_enabled false;
  Trace.reset ();
  Array.iter (fun g -> g.probe.Probe.timing <- false) env.gens;
  let h1 = handle_stats env.server in
  t.t_ops <- t.t_ops + n;
  t.t_secs <- t.t_secs +. secs;
  t.call_s <- List.fold_left ( +. ) t.call_s calls;
  t.handled <- t.handled +. (h1.count -. h0.count);
  t.handle_ms <- t.handle_ms +. (h1.sum_ms -. h0.sum_ms);
  n

let report_traced env r t ~untraced_thr =
  let codec = Probe.codec () in
  Array.iter (fun g -> Probe.retime_captured ~server_phases:true codec g.probe) env.gens;
  let rtt_s = Array.fold_left (fun a g -> a +. g.probe.Probe.send_s) 0. env.gens in
  let per_op x = x /. float_of_int t.t_ops *. 1e6 in
  let handle_us = t.handle_ms /. t.handled *. 1000. in
  let phase name =
    per_op (Option.value ~default:0. (List.assoc_opt name codec.Probe.phases) /. 1000.)
  in
  let traced_thr = float_of_int t.t_ops /. t.t_secs in
  List.iter
    (fun (name, v) -> put r name v)
    [
      ("http.rtt_us", per_op rtt_s);
      ("client.self_us", per_op (t.call_s -. rtt_s));
      ("server.handle_us", handle_us);
      ("http.overhead_us", per_op rtt_s -. handle_us);
      ("peer.handle_us", handle_us);
      ("peer.compile_us", phase "compile");
      ("peer.exec_us", phase "exec");
      ("peer.commit_us", phase "commit");
      ("soap.req_encode_us", per_op codec.Probe.req_encode);
      ("soap.req_decode_us", per_op codec.Probe.req_decode);
      ("soap.resp_encode_us", per_op codec.Probe.resp_encode);
      ("soap.resp_decode_us", per_op codec.Probe.resp_decode);
      ( "soap.minor_words_per_call",
        codec.Probe.minor_words /. float_of_int (max 1 codec.Probe.n) );
      ( "peer.bookkeeping_us",
        handle_us -. phase "parse" -. phase "cache" -. phase "compile"
        -. phase "exec" -. phase "commit" -. per_op codec.Probe.resp_encode );
      ( "unattributed_us_per_op",
        per_op
          (t.call_s -. rtt_s -. codec.Probe.req_encode -. codec.Probe.resp_decode) );
      ("obs.trace_overhead_pct", (untraced_thr /. traced_thr -. 1.) *. 100.);
    ];
  report "traced: %d echoes, %.3f ops/s against %.3f untraced" t.t_ops traced_thr
    untraced_thr;
  report
    "per traced echo (us): call %.1f = client %.1f + round trip %.1f (server handle %.1f: parse %.1f, exec %.1f, response encode %.1f; HTTP and loopback %.1f)"
    (per_op t.call_s) (per_op (t.call_s -. rtt_s)) (per_op rtt_s) handle_us
    (phase "parse") (phase "exec") (per_op codec.Probe.resp_encode)
    (per_op rtt_s -. handle_us)

(* --trace 0: closed loop, then the ladder.  --trace 1: the closed-loop
   share alternates untraced and traced blocks (host-speed drift hits
   both sides of the tracing-overhead comparison alike), then the same
   ladder. *)
let run ~server:exe ~seed ~seconds ~trace r =
  let reps = if trace then 1 else param_int "setup_reps" in
  let env = setup r ~reps ~release (fun () -> build ~exe seed) in
  Fun.protect ~finally:(fun () -> release env) @@ fun () ->
  let window = param_int "count_ops" in
  let closed_s = seconds *. param_float "closed_share"
  and latency_s = seconds *. param_float "latency_share" in
  let block = param_float "block_s" in
  let c0 = cachez env.server in
  let u_ops = ref 0 and u_secs = ref 0. and minor = ref 0. and majors = ref 0 in
  let u_lat = ref [] in
  let wire = ref 0. and messages = ref 0. in
  let t = { t_ops = 0; t_secs = 0.; call_s = 0.; handled = 0.; handle_ms = 0. } in
  let next = ref 0 and deadline = now () +. closed_s in
  while !next = 0 || now () < deadline do
    let gc0 = gc_mark () in
    let n, secs, lat, (wbytes, wmsgs) =
      closed env r ~seconds:block ~min_ops:(if !next = 0 then window else 1)
        ~first:!next ~window:(if !next = 0 then window else 0)
    in
    let mw, mj = gc_since gc0 in
    if !next = 0 then begin
      wire := float_of_int wbytes /. float_of_int window;
      messages := float_of_int wmsgs /. float_of_int window
    end;
    next := !next + n;
    u_ops := !u_ops + n;
    u_secs := !u_secs +. secs;
    u_lat := List.rev_append lat !u_lat;
    minor := !minor +. mw;
    majors := !majors + mj;
    if trace then next := !next + traced_block env r t ~seconds:block ~first:!next
  done;
  let c1 = cachez env.server in
  let thr = float_of_int !u_ops /. !u_secs in
  put r "throughput_ops_s" thr;
  report "closed loop, %d connections: %d echoes in %.3f s untraced = %.3f ops/s"
    connections !u_ops !u_secs thr;
  latencies r ~prefix:"latency" ~tail_pct:(param_float "tail_pct") !u_lat;
  put r "wire_bytes_per_op" !wire;
  report "count window (first %d echoes): %.2f wire bytes/op, %.3f messages/op"
    window !wire !messages;
  if trace then report_traced env r t ~untraced_thr:thr;
  let reference, max_ok =
    ladder env r ~latency_s ~others_s:(seconds -. closed_s -. latency_s) ~first:!next
  in
  let a = sorted reference.samples in
  put r "open.p50_ms" (1000. *. percentile_sorted a 50.);
  put r "open.p99_ms" (1000. *. percentile_sorted a 99.);
  report "open-loop latency at %g ops/s (ms): %s" reference.rate
    (String.concat ", "
       (List.map
          (fun p -> Printf.sprintf "p%g %.3f" p (1000. *. percentile_sorted a p))
          [ 50.; 90.; 95.; 99.; 99.9; 100. ]));
  (* keep-alive honesty: the server accepted exactly the generator's
     connections, plus one per monitoring request *)
  let statz = get env.server "/statz" in
  let accepted = statz_num statz "server.accepted" in
  let by_generator = accepted -. float_of_int env.server.scrapes in
  report "server accepted %g connections: %g from the generator (expected %d), %d monitoring"
    accepted by_generator connections env.server.scrapes;
  if by_generator <> float_of_int connections then
    fail r ~wrong:true "server accepted %g generator connections, expected %d"
      by_generator connections;
  if trace then begin
    let w = get env.server "/windowz.json" in
    report "server event-loop lag over the last minute: p99 %.3f ms, max %.3f ms; executor wait p99 %.3f ms, max %.3f ms"
      (json_num w ~key:"evloop.loop_lag_ms" ~sub:"p99_1m")
      (json_num w ~key:"evloop.loop_lag_ms" ~sub:"max_1m")
      (json_num w ~key:"executor.wait_ms" ~sub:"p99_1m")
      (json_num w ~key:"executor.wait_ms" ~sub:"max_1m");
    let d f = f c1 -. f c0 in
    let per_kop x = 1000. *. x /. float_of_int !next in
    let lookups = d (fun c -> c.result_hits) +. d (fun c -> c.result_misses) in
    List.iter
      (fun (name, v) -> put r name v)
      [
        ("evloop.loop_lag_p99_ms", json_num w ~key:"evloop.loop_lag_ms" ~sub:"p99_1m");
        ("executor.wait_us", 1000. *. json_num w ~key:"executor.wait_ms" ~sub:"p50_1m");
        ("executor.run_us", 1000. *. json_num w ~key:"executor.run_ms" ~sub:"p50_1m");
        ("server.conns_accepted", by_generator);
        ("max_ok_rate_ops_s", max_ok);
        ("gen.lateness_p99_ms", reference.gen_late_p99_ms);
        ("net.messages_per_op", !messages);
        ("net.bytes_per_op", !wire);
        ("cache.plan_hit_ratio", 0.);
        ( "cache.result_hit_ratio",
          if lookups = 0. then 0. else d (fun c -> c.result_hits) /. lookups );
        ("cache.result_evictions_per_kop", per_kop (d (fun c -> c.result_evictions)));
        ("cache.idem_evictions_per_kop", per_kop (d (fun c -> c.idem_evictions)));
        ("gc.minor_words_per_op", !minor /. float_of_int !u_ops);
        ("gc.major_per_kop", 1000. *. float_of_int !majors /. float_of_int !u_ops);
      ];
    (* layers the echo path never reaches *)
    List.iter
      (fun name -> put r name 0.)
      [ "xquery.compile_us"; "eval.self_us"; "net.send_self_us"; "write_p50_ms";
        "write_tail_ms"; "cache.result_invalidations_per_write";
        "tx.messages_per_write"; "tx.abort_ratio"; "db.nodes_reshredded_per_write" ]
  end;
  put r "rss_peak_mb" (rss_peak_mb env.server.pid);
  report "peak RSS of the xrpc_server process: %.1f MB" (rss_peak_mb env.server.pid)
