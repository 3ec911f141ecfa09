(* Connection-lifecycle tests for the event-loop HTTP server core:
   byte-by-byte incremental parsing, pipelining, slow-loris partial
   requests, client disconnect mid-response, keep-alive reuse over one
   socket, max_connections 503 turn-away, accept-errno classification,
   1000 concurrent keep-alive connections, and the Xrpc_server façade. *)

module Http = Xrpc_net.Http
module Conn = Xrpc_net.Conn
module Evloop = Xrpc_net.Evloop
module Server = Xrpc_core.Xrpc_server
module Peer = Xrpc_peer.Peer

let check = Alcotest.check
let string_ = Alcotest.string
let int_ = Alcotest.int
let bool_ = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Raw-socket client helpers                                           *)
(* ------------------------------------------------------------------ *)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let send_all fd s =
  let n = String.length s in
  let sent = ref 0 in
  while !sent < n do
    sent := !sent + Unix.write_substring fd s !sent (n - !sent)
  done

let get_req ?(close = false) path =
  Printf.sprintf "GET %s HTTP/1.1\r\nHost: t\r\n%s\r\n" path
    (if close then "Connection: close\r\n" else "")

let post_req path body =
  Printf.sprintf "POST %s HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s"
    path (String.length body) body

(* Read exactly one HTTP response off [fd]: returns (status_line, body).
   [carry] holds bytes already read past the previous response (pipelining). *)
let recv_response ?(carry = Buffer.create 256) fd =
  let tmp = Bytes.create 8192 in
  let header_end b =
    let s = Buffer.contents b in
    let rec find i =
      if i + 3 >= String.length s then None
      else if String.sub s i 4 = "\r\n\r\n" then Some (i + 4)
      else find (i + 1)
    in
    find 0
  in
  let rec fill () =
    match header_end carry with
    | Some e -> e
    | None ->
        let n = Unix.read fd tmp 0 (Bytes.length tmp) in
        if n = 0 then failwith "eof before response headers";
        Buffer.add_subbytes carry tmp 0 n;
        fill ()
  in
  let e = fill () in
  let head = String.sub (Buffer.contents carry) 0 e in
  let status =
    match String.index_opt head '\r' with
    | Some i -> String.sub head 0 i
    | None -> head
  in
  let clen =
    List.fold_left
      (fun acc line ->
        match String.index_opt line ':' with
        | Some i
          when String.lowercase_ascii (String.trim (String.sub line 0 i))
               = "content-length" ->
            int_of_string
              (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
        | _ -> acc)
      0
      (String.split_on_char '\n' head)
  in
  let rec body_fill () =
    if Buffer.length carry - e < clen then begin
      let n = Unix.read fd tmp 0 (Bytes.length tmp) in
      if n = 0 then failwith "eof mid-body";
      Buffer.add_subbytes carry tmp 0 n;
      body_fill ()
    end
  in
  body_fill ();
  let body = String.sub (Buffer.contents carry) e clen in
  let rest = Buffer.length carry - e - clen in
  let leftover = Buffer.sub carry (e + clen) rest in
  Buffer.clear carry;
  Buffer.add_string carry leftover;
  (status, body)

let rec wait_for ?(tries = 100) pred =
  if tries = 0 then false
  else if pred () then true
  else begin
    Unix.sleepf 0.02;
    wait_for ~tries:(tries - 1) pred
  end

(* ------------------------------------------------------------------ *)
(* Conn: incremental parser units (pure buffer manipulation)           *)
(* ------------------------------------------------------------------ *)

let dummy_conn () = Conn.create (Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0)

let push c s =
  let n = String.length s in
  Conn.grow_inbuf c (c.Conn.in_len + n);
  Bytes.blit_string s 0 c.Conn.inbuf c.Conn.in_len n;
  c.Conn.in_len <- c.Conn.in_len + n

let body_window c =
  Bytes.sub_string c.Conn.inbuf c.Conn.body_off c.Conn.clen

let test_parse_byte_by_byte () =
  let c = dummy_conn () in
  let req = post_req "/soap" "<env>hi</env>" in
  String.iteri
    (fun i ch ->
      push c (String.make 1 ch);
      let fed = Conn.feed c in
      if i < String.length req - 1 then
        check bool_ (Printf.sprintf "need more at byte %d" i) true
          (fed = Conn.Need_more)
      else check bool_ "complete on last byte" true (fed = Conn.Request))
    req;
  check string_ "method" "POST" c.Conn.meth;
  check string_ "path" "/soap" c.Conn.path;
  check string_ "body window" "<env>hi</env>" (body_window c);
  check bool_ "keep-alive by default" false c.Conn.req_close;
  Conn.close c

let test_parse_line_endings_and_close () =
  (* bare-LF lines, leading blank lines, explicit Connection: close *)
  let c = dummy_conn () in
  push c "\r\n\nGET /x HTTP/1.1\nConnection: close\n\n";
  check bool_ "request" true (Conn.feed c = Conn.Request);
  check string_ "path" "/x" c.Conn.path;
  check bool_ "close requested" true c.Conn.req_close;
  Conn.close c

let test_parse_http10_defaults_close () =
  let c = dummy_conn () in
  push c "GET / HTTP/1.0\r\n\r\n";
  check bool_ "request" true (Conn.feed c = Conn.Request);
  check bool_ "1.0 defaults to close" true c.Conn.req_close;
  Conn.close c

let test_parse_bad_request_line () =
  let c = dummy_conn () in
  push c "NONSENSE\r\n";
  (match Conn.feed c with
  | Conn.Bad _ -> ()
  | _ -> Alcotest.fail "malformed request line accepted");
  Conn.close c

let test_parse_pipelined () =
  let c = dummy_conn () in
  push c (post_req "/a" "one" ^ get_req "/b");
  check bool_ "first request" true (Conn.feed c = Conn.Request);
  check string_ "first path" "/a" c.Conn.path;
  check string_ "first body" "one" (body_window c);
  Conn.reset_for_next c;
  check bool_ "second request already buffered" true
    (Conn.feed c = Conn.Request);
  check string_ "second path" "/b" c.Conn.path;
  check int_ "second body empty" 0 c.Conn.clen;
  Conn.close c

let test_accept_errno_classification () =
  (* resource exhaustion backs off (and counts the metric)… *)
  List.iter
    (fun e ->
      check bool_ "backoff" true (Evloop.accept_action e = `Backoff))
    [ Unix.EMFILE; Unix.ENFILE; Unix.ENOBUFS; Unix.ENOMEM ];
  (* …transient per-connection failures just retry… *)
  List.iter
    (fun e -> check bool_ "retry" true (Evloop.accept_action e = `Retry))
    [ Unix.ECONNABORTED; Unix.EINTR; Unix.EAGAIN ];
  (* …and a dead listener stops the loop *)
  check bool_ "stop" true (Evloop.accept_action Unix.EBADF = `Stop)

(* ------------------------------------------------------------------ *)
(* Connection lifecycle against a live event-loop server               *)
(* ------------------------------------------------------------------ *)

let echo_server ?max_connections ?(mode = Http.Event_loop) () =
  Http.serve ~mode ?max_connections (fun ~path body ->
      Printf.sprintf "path=%s body=%s" path body)

let test_keep_alive_100_requests mode () =
  let server = echo_server ~mode () in
  Fun.protect
    ~finally:(fun () -> Http.shutdown server)
    (fun () ->
      let fd = connect (Http.port server) in
      let carry = Buffer.create 256 in
      for i = 1 to 100 do
        send_all fd (post_req "/echo" (Printf.sprintf "req%d" i));
        let status, body = recv_response ~carry fd in
        check string_ (Printf.sprintf "status %d" i) "HTTP/1.1 200 OK" status;
        check string_
          (Printf.sprintf "body %d" i)
          (Printf.sprintf "path=/echo body=req%d" i)
          body
      done;
      Unix.close fd;
      (* the loop thread bumps [served] just after the response bytes go
         out, so the client can get here first — wait for the counter *)
      check bool_ "100 requests served" true
        (wait_for (fun () -> (Http.stats server).Evloop.served = 100));
      check int_ "one connection accepted" 1
        (Http.stats server).Evloop.accepted)

let test_slow_loris_does_not_block_others () =
  let server = echo_server () in
  Fun.protect
    ~finally:(fun () -> Http.shutdown server)
    (fun () ->
      let loris = connect (Http.port server) in
      (* half a request, then stall *)
      send_all loris "POST /slow HTTP/1.1\r\nHost: t\r\nContent-Le";
      Unix.sleepf 0.05;
      (* a well-behaved client on another connection is served meanwhile *)
      let fast = connect (Http.port server) in
      send_all fast (post_req "/fast" "now");
      let status, body = recv_response fast in
      check string_ "fast served during stall" "HTTP/1.1 200 OK" status;
      check string_ "fast body" "path=/fast body=now" body;
      Unix.close fast;
      (* the stalled connection can still finish its request *)
      send_all loris "ngth: 4\r\n\r\nlate";
      let status, body = recv_response loris in
      check string_ "loris finally served" "HTTP/1.1 200 OK" status;
      check string_ "loris body" "path=/slow body=late" body;
      Unix.close loris)

let test_client_disconnect_mid_response () =
  (* a response far larger than loopback socket buffers, so the server is
     still writing when the client vanishes *)
  let big = String.make (8 * 1024 * 1024) 'x' in
  let server = Http.serve (fun ~path:_ _ -> big) in
  Fun.protect
    ~finally:(fun () -> Http.shutdown server)
    (fun () ->
      let fd = connect (Http.port server) in
      send_all fd (post_req "/big" "");
      (* read a little of the response, then hang up *)
      let tmp = Bytes.create 4096 in
      ignore (Unix.read fd tmp 0 4096);
      Unix.close fd;
      check bool_ "disconnect detected" true
        (wait_for (fun () -> (Http.stats server).Evloop.disconnects >= 1));
      (* the loop survived: a fresh connection is served normally *)
      let fd2 = connect (Http.port server) in
      send_all fd2 (post_req "/after" "");
      let status, body = recv_response fd2 in
      check string_ "served after disconnect" "HTTP/1.1 200 OK" status;
      check int_ "full body this time" (String.length big) (String.length body);
      Unix.close fd2)

let test_max_connections_503 () =
  let server = echo_server ~max_connections:2 () in
  Fun.protect
    ~finally:(fun () -> Http.shutdown server)
    (fun () ->
      (* two keep-alive connections fill the server *)
      let c1 = connect (Http.port server) and c2 = connect (Http.port server) in
      List.iter
        (fun fd ->
          send_all fd (post_req "/hold" "");
          ignore (recv_response fd))
        [ c1; c2 ];
      (* the third is turned away with an immediate 503 and closed *)
      let c3 = connect (Http.port server) in
      send_all c3 (get_req "/denied");
      let status, _ = recv_response c3 in
      check string_ "503 over the cap" "HTTP/1.1 503 Service Unavailable"
        status;
      Unix.close c3;
      let s = Http.stats server in
      check bool_ "rejection counted" true (s.Evloop.rejected >= 1);
      check int_ "rejects not served" 2 s.Evloop.served;
      Unix.close c1;
      Unix.close c2)

let test_1000_concurrent_keep_alive () =
  let n = 1000 in
  let server = Http.serve ~backlog:512 (fun ~path body -> path ^ ":" ^ body) in
  Fun.protect
    ~finally:(fun () -> Http.shutdown server)
    (fun () ->
      let fds = Array.init n (fun _ -> connect (Http.port server)) in
      let carries = Array.init n (fun _ -> Buffer.create 256) in
      (* two full rounds over the same sockets: proves every one of the
         1000 connections is held open and reused *)
      for round = 1 to 2 do
        Array.iteri
          (fun i fd ->
            send_all fd (post_req "/r" (Printf.sprintf "%d.%d" round i)))
          fds;
        Array.iteri
          (fun i fd ->
            let status, body = recv_response ~carry:carries.(i) fd in
            check string_ "status" "HTTP/1.1 200 OK" status;
            check string_ "body"
              (Printf.sprintf "/r:%d.%d" round i)
              body)
          fds
      done;
      let s = Http.stats server in
      check int_ "all connections accepted" n s.Evloop.accepted;
      check int_ "still concurrently open" n s.Evloop.active;
      check int_ "two rounds served" (2 * n) s.Evloop.served;
      check int_ "none rejected" 0 s.Evloop.rejected;
      Array.iter Unix.close fds)

(* ------------------------------------------------------------------ *)
(* Xrpc_server façade                                                  *)
(* ------------------------------------------------------------------ *)

let test_facade_routes_and_stats () =
  let peer = Peer.create "xrpc://127.0.0.1:0" in
  let server =
    Server.create ~config:(Server.config ~port:0 ~outgoing:false ()) peer
  in
  let port = Server.start server in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      check int_ "start is idempotent" port (Server.start server);
      let fetch path =
        let fd = connect port in
        send_all fd (get_req ~close:true path);
        let r = recv_response fd in
        (* the server closes a Connection: close exchange only after it
           has counted the request served, so reading to its EOF orders
           the stats read below after every count *)
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
        ignore (Unix.read fd (Bytes.create 1) 0 1);
        Unix.close fd;
        r
      in
      let status, metrics = fetch "/metrics" in
      check string_ "metrics ok" "HTTP/1.1 200 OK" status;
      check bool_ "metrics non-empty" true (String.length metrics > 0);
      let _, routez = fetch "/routez" in
      List.iter
        (fun r ->
          check bool_ (r ^ " listed") true
            (List.mem_assoc r (Server.routes server)))
        [ "/metrics"; "/requestz"; "/slowz"; "/cachez"; "/shardz";
          "/optimizerz"; "/tracez"; "/statz" ];
      check bool_ "routez renders the table" true
        (String.length routez > 100);
      let _, statz = fetch "/statz" in
      check bool_ "statz names the core" true
        (String.length statz > 0
        && String.sub statz 0 11 = "server.mode");
      let s = Server.stats server in
      check bool_ "requests counted" true (s.Evloop.served >= 3))

let contains hay needle =
  let lower = String.lowercase_ascii hay in
  let nl = String.length needle and ll = String.length lower in
  let rec go i = i + nl <= ll && (String.sub lower i nl = needle || go (i + 1)) in
  go 0

let test_facade_soap_fallback () =
  (* a non-route POST falls through to the peer's SOAP handler via the
     zero-copy streaming path: parsed out of the connection buffer,
     executed on a worker, serialized once into the output buffer *)
  let peer = Peer.create "xrpc://127.0.0.1:0" in
  Peer.register_module peer ~uri:"q"
    {|module namespace q = "q";
declare function q:answer() { 42 };|};
  let server =
    Server.create ~config:(Server.config ~port:0 ~outgoing:false ()) peer
  in
  let port = Server.start server in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let client = Xrpc_core.Xrpc_client.connect_http () in
      let r =
        Xrpc_core.Xrpc_client.call client
          ~dest:(Printf.sprintf "xrpc://127.0.0.1:%d" port)
          ~module_uri:"q" ~fn:"answer" []
      in
      check string_ "remote call through the event loop" "42"
        (Xrpc_xml.Xdm.to_display r);
      check int_ "handled by the peer" 1 peer.Peer.requests_handled;
      (* an unparseable envelope comes back as a SOAP fault, not a 500 *)
      let reply = Http.post ~host:"127.0.0.1" ~port "not a soap envelope" in
      check bool_ "SOAP fault came back" true (contains reply "fault"))

(* /cachez.json is parsed by monitoring scripts and benchmarks: pin its
   shape — four cache sections, each with numeric hits/misses/evictions
   — and that a served call shows up in the module-plan section *)
let test_facade_cachez_json () =
  let peer = Peer.create "xrpc://127.0.0.1:0" in
  Peer.register_module peer ~uri:"q"
    {|module namespace q = "q";
declare function q:answer() { 42 };|};
  let server =
    Server.create ~config:(Server.config ~port:0 ~outgoing:false ()) peer
  in
  let port = Server.start server in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let client = Xrpc_core.Xrpc_client.connect_http () in
      ignore
        (Xrpc_core.Xrpc_client.call client
           ~dest:(Printf.sprintf "xrpc://127.0.0.1:%d" port)
           ~module_uri:"q" ~fn:"answer" []);
      let fd = connect port in
      send_all fd (get_req ~close:true "/cachez.json");
      let status, doc = recv_response fd in
      Unix.close fd;
      check string_ "cachez.json ok" "HTTP/1.1 200 OK" status;
      let find_from i pat =
        let n = String.length pat in
        let rec go i =
          if i + n > String.length doc then None
          else if String.sub doc i n = pat then Some (i + n)
          else go (i + 1)
        in
        go i
      in
      (* the number after ["field":] inside the ["name":{...}] object *)
      let number name field =
        match find_from 0 ("\"" ^ name ^ "\":{") with
        | None -> Alcotest.failf "section %s missing in %s" name doc
        | Some start -> (
            let stop = String.index_from doc start '}' in
            match find_from start ("\"" ^ field ^ "\":") with
            | Some i when i < stop ->
                let j = ref i in
                while !j < stop && doc.[!j] <> ',' do incr j done;
                (match int_of_string_opt (String.sub doc i (!j - i)) with
                | Some v -> v
                | None -> Alcotest.failf "%s.%s is not a number" name field)
            | _ -> Alcotest.failf "%s.%s missing in %s" name field doc)
      in
      List.iter
        (fun name ->
          List.iter
            (fun field ->
              check bool_ (name ^ "." ^ field ^ " is a count") true
                (number name field >= 0))
            [ "hits"; "misses"; "evictions" ])
        [ "plan_cache"; "result_cache"; "func_cache"; "idem_cache" ];
      check int_ "the served call compiled one module plan" 1
        (number "func_cache" "misses"))

let test_facade_thread_baseline () =
  let peer = Peer.create "xrpc://127.0.0.1:0" in
  let server =
    Server.create
      ~config:(Server.config ~port:0 ~thread_per_conn:true ~outgoing:false ())
      peer
  in
  let port = Server.start server in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let fd = connect port in
      send_all fd (get_req ~close:true "/metrics");
      let status, _ = recv_response fd in
      Unix.close fd;
      check string_ "baseline serves routes" "HTTP/1.1 200 OK" status)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "server"
    [
      ( "conn-parser",
        [
          Alcotest.test_case "byte-by-byte" `Quick test_parse_byte_by_byte;
          Alcotest.test_case "line endings + close" `Quick
            test_parse_line_endings_and_close;
          Alcotest.test_case "HTTP/1.0 default close" `Quick
            test_parse_http10_defaults_close;
          Alcotest.test_case "bad request line" `Quick
            test_parse_bad_request_line;
          Alcotest.test_case "pipelined requests" `Quick test_parse_pipelined;
          Alcotest.test_case "accept errno classification" `Quick
            test_accept_errno_classification;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "keep-alive x100 (event loop)" `Quick
            (test_keep_alive_100_requests Http.Event_loop);
          Alcotest.test_case "keep-alive x100 (thread baseline)" `Quick
            (test_keep_alive_100_requests Http.Thread_per_conn);
          Alcotest.test_case "slow-loris does not block others" `Quick
            test_slow_loris_does_not_block_others;
          Alcotest.test_case "client disconnect mid-response" `Quick
            test_client_disconnect_mid_response;
          Alcotest.test_case "max_connections -> 503" `Quick
            test_max_connections_503;
          Alcotest.test_case "1000 concurrent keep-alive" `Slow
            test_1000_concurrent_keep_alive;
        ] );
      ( "facade",
        [
          Alcotest.test_case "routes + stats" `Quick
            test_facade_routes_and_stats;
          Alcotest.test_case "SOAP fallback (streaming)" `Quick
            test_facade_soap_fallback;
          Alcotest.test_case "/cachez.json shape" `Quick
            test_facade_cachez_json;
          Alcotest.test_case "thread-per-conn baseline" `Quick
            test_facade_thread_baseline;
        ] );
    ]
