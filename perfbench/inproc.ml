(* The harness shared by the two in-process workloads (bulk_xmark,
   update_mix): peers on one Simnet with its default config and a closed
   loop with one client; with --trace 1, traced blocks alternate with
   untraced ones and yield the per-layer breakdown. *)

module Peer = Xrpc_peer.Peer
module Simnet = Xrpc_net.Simnet
module Store = Xrpc_xml.Store
module Xdm = Xrpc_xml.Xdm
open Measure

type kind = Read | Write

(* One built federation. *)
type env = {
  net : Simnet.t;
  client : Peer.t;  (* the query-originating peer *)
  servers : Peer.t list;  (* the serving peers, each behind [probe] *)
  probe : Probe.t;
  op : result -> int -> kind;
      (* runs operation [i]; an answer that fails its oracle is recorded
         with [Measure.fail ~wrong:true] *)
  final_check : result -> unit;
  nodes_per_write : unit -> int;
      (* Store nodes the last write re-shredded, over all participants *)
}

(* Peers on a fresh Simnet: each server's raw handler is wrapped by the
   probe, and the client's transport by the same probe. *)
let federation ~client ~servers =
  let net = Simnet.create () in
  let probe = Probe.create () in
  List.iter
    (fun p -> Simnet.register net p.Peer.uri (Probe.wrap_handler probe (Peer.handle_raw p)))
    servers;
  Peer.set_transport client (Probe.wrap_transport probe (Simnet.transport net));
  (net, probe)

(* An attribute's value on an element node returned by a query. *)
let attr (item : Xdm.item) local =
  match item with
  | Xdm.Node n ->
      List.find_map
        (fun a ->
          match Store.name a with
          | Some q when q.Xrpc_xml.Qname.local = local ->
              Some (Store.string_value a)
          | _ -> None)
        (Store.attributes n)
  | Xdm.Atomic _ -> None

(* What the untraced blocks of a run add up to.  The first [count_ops]
   operations of the run form the count window: their byte and message
   totals depend only on the seed, so they repeat exactly between runs. *)
type untraced = {
  mutable ops : int;
  mutable secs : float;
  mutable reads : float list;  (* seconds *)
  mutable writes : float list;
  mutable aborted : int;
  mutable minor_words : float;
  mutable majors : int;
  mutable caches : (string * int) list;  (* summed cache-counter deltas *)
  mutable w_bytes : int;
  mutable w_msgs : int;
  mutable w_writes : int;
  mutable w_write_msgs : int;
}

(* The traced blocks: spans on, the probe timing sends and handlers and
   capturing bodies, which are re-timed through the codec after each
   operation, outside its timed interval. *)
type traced = {
  tbl : Probe.spans;
  codec : Probe.codec;
  mutable t_ops : int;
  mutable op_s : float;  (* summed traced operation time *)
  mutable t_writes : int;
  mutable nodes : int;  (* Store nodes re-shredded by traced writes *)
}

let cache_counters env =
  let c = Peer.cache_stats env.client in
  let servers = List.map Peer.cache_stats env.servers in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 servers in
  let module P = Xrpc_peer.Plan_cache in
  let module R = Xrpc_peer.Result_cache in
  [
    ("plan_hits", c.Peer.plan.P.hits);
    ("plan_lookups", c.Peer.plan.P.hits + c.Peer.plan.P.misses);
    ("result_hits", sum (fun s -> s.Peer.result.R.hits));
    ("result_lookups", sum (fun s -> s.Peer.result.R.hits + s.Peer.result.R.misses));
    ("result_invalidations", sum (fun s -> s.Peer.result.R.invalidations));
    ("result_evictions", sum (fun s -> s.Peer.result.R.evictions));
    ("idem_evictions", sum (fun s -> s.Peer.idem_evictions));
  ]

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let run_op env r i =
  r.attempted <- r.attempted + 1;
  try Some (env.op r i)
  with e ->
    fail r ~wrong:false "operation %d raised %s" i (Printexc.to_string e);
    None

(* Operations [first], [first + 1], ... untraced, for [seconds] and at
   least [min_ops]; returns how many ran. *)
let untraced_block env r u ~seconds ~min_ops ~first ~count_ops =
  let c0 = cache_counters env and gc0 = gc_mark () in
  let bytes0 = env.probe.Probe.bytes and msgs0 = env.net.Simnet.stats.Simnet.messages in
  let n, secs =
    closed_loop ~seconds ~min_ops (fun j ->
        let i = first + j in
        let m0 = env.net.Simnet.stats.Simnet.messages and f0 = r.failed in
        let t0 = now () in
        let kind = run_op env r i in
        let dt = now () -. t0 in
        (match kind with
        | Some Read -> u.reads <- dt :: u.reads
        | Some Write ->
            u.writes <- dt :: u.writes;
            if r.failed > f0 then u.aborted <- u.aborted + 1;
            if i < count_ops then begin
              u.w_writes <- u.w_writes + 1;
              u.w_write_msgs <-
                u.w_write_msgs + env.net.Simnet.stats.Simnet.messages - m0
            end
        | None -> ());
        if i = count_ops - 1 then begin
          u.w_bytes <- env.probe.Probe.bytes - bytes0;
          u.w_msgs <- env.net.Simnet.stats.Simnet.messages - msgs0
        end)
  in
  let minor, majors = gc_since gc0 in
  u.ops <- u.ops + n;
  u.secs <- u.secs +. secs;
  u.minor_words <- u.minor_words +. minor;
  u.majors <- u.majors + majors;
  u.caches <-
    List.map2
      (fun (k, a) (_, b) ->
        (k, b - a + Option.value ~default:0 (List.assoc_opt k u.caches)))
      c0 (cache_counters env);
  n

let traced_block env r t ~seconds ~first =
  env.probe.Probe.timing <- true;
  let n, _ =
    closed_loop ~seconds ~min_ops:1 (fun j ->
        let kind, dt = Probe.traced t.tbl (fun () -> run_op env r (first + j)) in
        t.op_s <- t.op_s +. dt;
        if kind = Some Write then begin
          t.t_writes <- t.t_writes + 1;
          t.nodes <- t.nodes + env.nodes_per_write ()
        end;
        Probe.retime_captured t.codec env.probe)
  in
  env.probe.Probe.timing <- false;
  t.t_ops <- t.t_ops + n;
  n

let report_untraced r u ~count_ops =
  let thr = float_of_int u.ops /. u.secs in
  put r "throughput_ops_s" thr;
  report "closed loop, 1 client: %d operations in %.3f s untraced = %.3f ops/s"
    u.ops u.secs thr;
  latencies r ~prefix:"latency" ~tail_pct:(param_float "tail_pct") u.reads;
  if u.writes <> [] then
    latencies r ~prefix:"write" ~tail_pct:(param_float "write_tail_pct") u.writes
  else begin
    put r "write_p50_ms" 0.;
    put r "write_tail_ms" 0.
  end;
  let per_window x = float_of_int x /. float_of_int count_ops in
  put r "wire_bytes_per_op" (per_window u.w_bytes);
  put r "net.messages_per_op" (per_window u.w_msgs);
  put r "net.bytes_per_op" (per_window u.w_bytes);
  put r "tx.messages_per_write" (ratio u.w_write_msgs u.w_writes);
  put r "tx.abort_ratio" (ratio u.aborted (List.length u.writes));
  report
    "count window (first %d operations): %.2f wire bytes/op, %.3f messages/op, %.3f messages/write"
    count_ops (per_window u.w_bytes) (per_window u.w_msgs)
    (ratio u.w_write_msgs u.w_writes);
  let c k = List.assoc k u.caches in
  let nw = List.length u.writes in
  put r "cache.plan_hit_ratio" (ratio (c "plan_hits") (c "plan_lookups"));
  put r "cache.result_hit_ratio" (ratio (c "result_hits") (c "result_lookups"));
  put r "cache.result_invalidations_per_write" (ratio (c "result_invalidations") nw);
  put r "cache.result_evictions_per_kop" (1000. *. ratio (c "result_evictions") u.ops);
  put r "cache.idem_evictions_per_kop" (1000. *. ratio (c "idem_evictions") u.ops);
  put r "gc.minor_words_per_op" (u.minor_words /. float_of_int u.ops);
  put r "gc.major_per_kop" (1000. *. ratio u.majors u.ops);
  report "caches: plan hits %d/%d, result hits %d/%d, idem evictions %d"
    (c "plan_hits") (c "plan_lookups") (c "result_hits") (c "result_lookups")
    (c "idem_evictions");
  thr

let report_traced env r t ~untraced_thr =
  let per_op x = x /. float_of_int t.t_ops *. 1e6 in
  let p = env.probe and codec = t.codec and incl = Probe.incl t.tbl in
  let compile = incl "client.compile"
  and eval_self = incl "client.exec" -. incl "rpc" -. incl "rpc.parallel"
  and peer_compile = incl "peer.compile"
  and peer_exec = incl "peer.exec"
  and peer_commit = incl "peer.commit" +. codec.Probe.commit_handler in
  let net_self = p.Probe.send_s -. p.Probe.handler_s in
  let bookkeeping =
    p.Probe.handler_s -. codec.Probe.req_decode -. codec.Probe.resp_encode
    -. peer_compile -. peer_exec -. peer_commit
  in
  let unattributed =
    t.op_s -. compile -. eval_self -. codec.Probe.req_encode
    -. codec.Probe.resp_decode -. net_self -. p.Probe.handler_s
  in
  List.iter
    (fun (name, v) -> put r name (per_op v))
    [
      ("xquery.compile_us", compile);
      ("eval.self_us", eval_self);
      ("soap.req_encode_us", codec.Probe.req_encode);
      ("soap.req_decode_us", codec.Probe.req_decode);
      ("soap.resp_encode_us", codec.Probe.resp_encode);
      ("soap.resp_decode_us", codec.Probe.resp_decode);
      ("net.send_self_us", net_self);
      ("peer.handle_us", p.Probe.handler_s);
      ("peer.compile_us", peer_compile);
      ("peer.exec_us", peer_exec);
      ("peer.commit_us", peer_commit);
      ("peer.bookkeeping_us", bookkeeping);
      ("unattributed_us_per_op", unattributed);
    ];
  put r "soap.minor_words_per_call"
    (codec.Probe.minor_words /. float_of_int (max 1 codec.Probe.n));
  put r "db.nodes_reshredded_per_write" (ratio t.nodes t.t_writes);
  let traced_thr = float_of_int t.t_ops /. t.op_s in
  put r "obs.trace_overhead_pct" ((untraced_thr /. traced_thr -. 1.) *. 100.);
  let codec_s =
    codec.Probe.req_encode +. codec.Probe.req_decode +. codec.Probe.resp_encode
    +. codec.Probe.resp_decode
  in
  report
    "traced: %d operations, %.3f ops/s against %.3f untraced; the SOAP codec is %.1f%% of a traced operation"
    t.t_ops traced_thr untraced_thr (100. *. codec_s /. t.op_s);
  report
    "per traced operation (us): client compile %.1f, eval %.1f, soap request encode %.1f / decode %.1f, response encode %.1f / decode %.1f, transport %.1f, handler %.1f (compile %.1f, exec %.1f, commit %.1f, bookkeeping %.1f), unattributed %.1f"
    (per_op compile) (per_op eval_self) (per_op codec.Probe.req_encode)
    (per_op codec.Probe.req_decode) (per_op codec.Probe.resp_encode)
    (per_op codec.Probe.resp_decode) (per_op net_self)
    (per_op p.Probe.handler_s) (per_op peer_compile) (per_op peer_exec)
    (per_op peer_commit) (per_op bookkeeping) (per_op unattributed);
  (* the HTTP layers, which the in-process workloads never exercise *)
  List.iter
    (fun name -> put r name 0.)
    [ "http.rtt_us"; "client.self_us"; "server.handle_us"; "http.overhead_us";
      "evloop.loop_lag_p99_ms"; "executor.wait_us"; "executor.run_us";
      "server.conns_accepted"; "max_ok_rate_ops_s"; "gen.lateness_p99_ms";
      "open.p50_ms"; "open.p99_ms" ]

(* --trace 0: one untraced closed loop for the whole run.  --trace 1:
   untraced and traced blocks alternate, so host-speed drift hits both
   sides of the tracing-overhead comparison alike. *)
let run ~build ~release ~seed ~seconds ~trace r =
  let reps = if trace then 1 else param_int "setup_reps" in
  let env = setup r ~reps ~release (fun () -> build seed) in
  let count_ops = param_int "count_ops" in
  let u =
    { ops = 0; secs = 0.; reads = []; writes = []; aborted = 0;
      minor_words = 0.; majors = 0; caches = []; w_bytes = 0; w_msgs = 0;
      w_writes = 0; w_write_msgs = 0 }
  in
  if not trace then
    ignore (untraced_block env r u ~seconds ~min_ops:count_ops ~first:0 ~count_ops)
  else begin
    let t =
      { tbl = Probe.spans (); codec = Probe.codec (); t_ops = 0; op_s = 0.;
        t_writes = 0; nodes = 0 }
    in
    let block = param_float "block_s" and deadline = now () +. seconds in
    let next = ref 0 in
    while !next = 0 || now () < deadline do
      let min_ops = if !next = 0 then count_ops else 1 in
      next := !next + untraced_block env r u ~seconds:block ~min_ops ~first:!next ~count_ops;
      next := !next + traced_block env r t ~seconds:block ~first:!next
    done;
    let thr = report_untraced r u ~count_ops in
    report_traced env r t ~untraced_thr:thr
  end;
  if not trace then ignore (report_untraced r u ~count_ops);
  env.final_check r;
  put r "rss_peak_mb" (rss_peak_mb 0);
  report "peak RSS of the process hosting the peers: %.1f MB" (rss_peak_mb 0)
