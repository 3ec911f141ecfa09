(* bulk_xmark: the §4 getPerson Bulk RPC.  Peer [b] holds an XMark
   persons document and the functions module; each operation is one
   query on [a] whose for-loop makes [calls] [execute at] calls to [b],
   which Bulk RPC ships as one SOAP request.  The person-id offset of
   operation i comes from the seed and i, so the query text (client plan
   cache) and the call list (b's result cache) are new every time, as
   for an ad-hoc query. *)

module Peer = Xrpc_peer.Peer
module Xmark = Xrpc_workloads.Xmark
open Measure

let query ~calls ~persons ~offset =
  Printf.sprintf
    {|import module namespace func="%s" at "%s";
for $i in (1 to %d)
return execute at {"xrpc://b"} {func:getPerson("persons.xml", concat("person", string(($i + %d) mod %d)))}|}
    Xmark.functions_ns Xmark.functions_at calls offset persons

let build seed =
  let persons = param_int "persons" and calls = param_int "calls" in
  let base = 1000 + Random.State.int (rng seed 1) 1_000_000 in
  let a = Peer.create "xrpc://a" and b = Peer.create "xrpc://b" in
  List.iter
    (fun p ->
      Peer.register_module p ~uri:Xmark.functions_ns
        ~location:Xmark.functions_at Xmark.functions_module)
    [ a; b ];
  Xrpc_peer.Database.add_doc_xml b.Peer.db "persons.xml"
    (Xmark.persons ~seed ~count:persons ());
  let net, probe = Inproc.federation ~client:a ~servers:[ b ] in
  (* operation i uses offset base + i; warm-up operations count down
     from base - 1, so they never repeat a measured query *)
  let run_query r ~label offset =
    let v = (Peer.query a (query ~calls ~persons ~offset)).Peer.value in
    let rec first_wrong i = function
      | [] -> None
      | item :: rest -> (
          let want = Printf.sprintf "person%d" ((i + offset) mod persons) in
          match Inproc.attr item "id" with
          | Some got when got = want -> first_wrong (i + 1) rest
          | got -> Some (i, Option.value ~default:"(none)" got, want))
    in
    if List.length v <> calls then
      fail r ~wrong:true "%s: %d persons returned, %d expected" label
        (List.length v) calls
    else
      Option.iter
        (fun (i, got, want) ->
          fail r ~wrong:true "%s: person %d has @id %s, expected %s" label i
            got want)
        (first_wrong 1 v)
  in
  let warm = result () in
  for w = 1 to param_int "warmup_ops" do
    run_query warm ~label:"warm-up" (base - w)
  done;
  if warm.failed > 0 then failwith "bulk_xmark: warm-up answers are wrong";
  {
    Inproc.net;
    client = a;
    servers = [ b ];
    probe;
    op =
      (fun r i ->
        run_query r ~label:(Printf.sprintf "operation %d" i) (base + i);
        Inproc.Read);
    final_check = (fun _ -> ());
    nodes_per_write = (fun () -> 0);
  }

let run = Inproc.run ~build ~release:(fun _ -> ())
