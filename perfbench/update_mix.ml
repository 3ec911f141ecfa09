(* update_mix: reads beside 2PC writes.  Coordinator [x] talks to data
   peers [y] and [z], which hold the same key/value document.  A read
   calls a selection function on [y] that returns one entry's node; a
   write replaces one key's value on [y] and [z] under repeatable
   isolation and commits by 2PC.  Keys are Zipf-distributed over more
   keys than the result cache holds, so hot keys can hit and the tail
   cannot; every commit re-shreds the document and invalidates the
   cached reads of it. *)

module Peer = Xrpc_peer.Peer
module Database = Xrpc_peer.Database
module Store = Xrpc_xml.Store
open Measure

let module_ns = "kv"
let module_at = "http://x.example.org/kv.xq"

let kv_module =
  {|module namespace kv = "kv";
declare function kv:get($k as xs:string) as node()?
{ zero-or-one(doc("kv.xml")/kv/e[@k = $k]) };
declare updating function kv:put($k as xs:string, $v as xs:string)
{ replace value of node exactly-one(doc("kv.xml")/kv/e[@k = $k]/@v) with $v };
|}

let read_query key =
  Printf.sprintf
    {|import module namespace kv="%s" at "%s";
execute at {"xrpc://y"} {kv:get("%s")}|}
    module_ns module_at key

let write_query key value =
  Printf.sprintf
    {|import module namespace kv="%s" at "%s";
declare option xrpc:isolation "repeatable";
for $dst in ("xrpc://y", "xrpc://z")
return execute at {$dst} {kv:put("%s", "%s")}|}
    module_ns module_at key value

(* fixed-width values, so byte counts do not depend on how many
   operations ran *)
let value tag seed i = Printf.sprintf "%c%08x" tag (Hashtbl.hash (seed, i))

let document seed keys =
  let b = Buffer.create (keys * 32) in
  Buffer.add_string b "<kv>";
  for k = 0 to keys - 1 do
    Printf.bprintf b "<e k=\"k%d\" v=\"%s\"/>" k (value 'i' seed k)
  done;
  Buffer.add_string b "</kv>";
  Buffer.contents b

(* Zipf(s) over ranks 1..n as a cumulative table; rank r names key
   perm.(r - 1), a seeded permutation, so the hot set moves with the
   seed. *)
let zipf_table n s =
  let w = Array.init n (fun r -> 1. /. (float_of_int (r + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let draw cdf u =
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) < u then search (mid + 1) hi else search lo mid
  in
  search 0 (Array.length cdf - 1)

let kv_doc p = Database.doc_exn (Database.snapshot p.Peer.db) "kv.xml"

let build seed =
  let keys = param_int "keys" and write_every = param_int "write_every" in
  let cdf = zipf_table keys (param_float "zipf_s") in
  let perm = Array.init keys Fun.id in
  let st = rng seed 2 in
  for i = keys - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let doc = document seed keys in
  let x = Peer.create "xrpc://x"
  and y = Peer.create "xrpc://y"
  and z = Peer.create "xrpc://z" in
  List.iter
    (fun p -> Peer.register_module p ~uri:module_ns ~location:module_at kv_module)
    [ x; y; z ];
  List.iter (fun p -> Database.add_doc_xml p.Peer.db "kv.xml" doc) [ y; z ];
  let net, probe = Inproc.federation ~client:x ~servers:[ y; z ] in
  (* the model: the value last committed for each key *)
  let model = Hashtbl.create keys in
  for k = 0 to keys - 1 do
    Hashtbl.replace model (Printf.sprintf "k%d" k) (value 'i' seed k)
  done;
  let op r i =
    (* every write_every-th operation writes: the mix, unlike the keys,
       does not vary with the seed *)
    let is_write = ((i mod write_every) + write_every) mod write_every = write_every - 1 in
    let st = Random.State.make [| seed; i; 3 |] in
    let key = Printf.sprintf "k%d" perm.(draw cdf (Random.State.float st 1.)) in
    if is_write then begin
      let v = value 'w' seed i in
      let res = Peer.query x (write_query key v) in
      if res.Peer.committed then Hashtbl.replace model key v
      else fail r ~wrong:false "write %d (%s): 2PC did not commit" i key;
      Inproc.Write
    end
    else begin
      (match (Peer.query x (read_query key)).Peer.value with
      | [ item ] -> (
          match Inproc.attr item "v" with
          | Some got when got = Hashtbl.find model key -> ()
          | got ->
              fail r ~wrong:true "read %d (%s): value %s, last committed %s" i
                key
                (Option.value ~default:"(none)" got)
                (Hashtbl.find model key))
      | v -> fail r ~wrong:true "read %d (%s): %d items" i key (List.length v));
      Inproc.Read
    end
  in
  let warm = result () in
  for w = 1 to param_int "warmup_ops" do
    ignore (op warm (-w))
  done;
  if warm.failed > 0 then failwith "update_mix: warm-up operations failed";
  let final_check r =
    let tree p = Store.to_tree (Store.root (kv_doc p)) in
    if tree y <> tree z then
      fail r ~wrong:true "y and z hold different kv.xml documents at the end";
    let entries = Store.descendants (Store.root (kv_doc y)) in
    List.iter
      (fun e ->
        match (Inproc.attr (Xrpc_xml.Xdm.Node e) "k", Inproc.attr (Xrpc_xml.Xdm.Node e) "v") with
        | Some k, Some v when Hashtbl.find_opt model k <> Some v ->
            fail r ~wrong:true "final kv.xml: %s = %s, last committed %s" k v
              (Option.value ~default:"(none)" (Hashtbl.find_opt model k))
        | _ -> ())
      entries
  in
  {
    Inproc.net;
    client = x;
    servers = [ y; z ];
    probe;
    op;
    final_check;
    nodes_per_write =
      (fun () -> Store.node_count (kv_doc y) + Store.node_count (kv_doc z));
  }

let run = Inproc.run ~build ~release:(fun _ -> ())
