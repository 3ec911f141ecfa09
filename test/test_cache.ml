(* Caching suite: the one LRU, the plan cache (module and ad-hoc plans)
   and the semantic result cache.

   Covers: canonical-key normalization (whitespace/comment insensitivity,
   literal-kind tagging, the direct-constructor raw fallback), the bounded
   LRU primitive (recency, eviction order at capacity, replace-no-evict),
   plan-cache reuse at a peer (same answer, fresh global bindings, module
   re-registration invalidates, module plans served to XRPC requests),
   and the semantic result cache across a simulated cluster: importers
   see a re-registered module, version-vector invalidation on
   committed updates, precision (an update to one document keeps entries
   that depend only on another), the deterministic aborted-2PC schedule
   (presumed abort must NOT invalidate — and the later committed rerun
   must), queryID bypass, the cache="off" escape hatch, serverProfile
   phase attribution (a warm repeat runs zero exec phases), trace events,
   and a seeded chaos sweep where cached answers must stay consistent with
   cache-off answers while distributed updates commit and abort around
   them.  Replay the chaos schedules with FAULT_SEED=<n> dune runtest. *)

open Xrpc_xml
module Cluster = Xrpc_core.Cluster
module Client = Xrpc_core.Xrpc_client
module Peer = Xrpc_peer.Peer
module Database = Xrpc_peer.Database
module Plan_cache = Xrpc_peer.Plan_cache
module Result_cache = Xrpc_peer.Result_cache
module Lru = Xrpc_peer.Lru
module Normalize = Xrpc_xquery.Normalize
module Filmdb = Xrpc_workloads.Filmdb
module Simnet = Xrpc_net.Simnet
module Transport = Xrpc_net.Transport
module Message = Xrpc_soap.Message
module Trace = Xrpc_obs.Trace
module Profile = Xrpc_obs.Profile

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool
let string_ = Alcotest.string

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Canonical query text                                                *)
(* ------------------------------------------------------------------ *)

let test_canonical_insensitive () =
  let a = Normalize.canonical "1   +\n\t2 (: a comment :)" in
  let b = Normalize.canonical "1+2" in
  check string_ "whitespace and comments do not matter" b a;
  check bool_ "ordinary queries canonicalize" false (Normalize.is_raw a)

let test_canonical_literal_kinds () =
  (* 1, 1.0, 1e0 and "1" are four different queries; so is the name x1
     next to the literal 1 *)
  let keys =
    List.map Normalize.canonical [ "1"; "1.0"; "1e0"; {|"1"|}; "x1" ]
  in
  let distinct = List.sort_uniq compare keys in
  check int_ "literal kinds stay disjoint" (List.length keys)
    (List.length distinct)

let test_canonical_raw_fallback () =
  (* whitespace inside a direct constructor is semantic, so the lexer
     cannot canonicalize past it: the raw source is the key *)
  let a = Normalize.canonical "<a>1</a>" in
  check bool_ "constructors fall back to raw" true (Normalize.is_raw a);
  check bool_ "raw keys keep the exact spelling" true
    (a <> Normalize.canonical "<a> 1 </a>")

(* Property battery: the cache key is invariant under reformatting
   (whitespace and comments are free), and kind-tagged literals never
   collide — [3], [3.0], [3e0], ["3"] and the name [x3] each get their
   own plan. *)

let gen_token =
  QCheck.Gen.(
    frequency
      [
        (3, oneofl [ "x"; "y"; "foo"; "item" ]);
        (3, map string_of_int (int_bound 999));
        (2, map (fun n -> string_of_int n ^ ".5") (int_bound 99));
        (2, map (fun n -> string_of_int n ^ "e2") (int_bound 99));
        ( 2,
          map
            (fun s -> "\"" ^ s ^ "\"")
            (string_size ~gen:(oneofl [ 'a'; 'b'; 'q'; 'z' ]) (int_range 0 6))
        );
        (3, oneofl [ "+"; "*"; "("; ")"; ","; "-" ]);
        (1, oneofl [ "$v"; "$w" ]);
      ])

let gen_sep = QCheck.Gen.oneofl [ " "; "  "; "\n"; "\t "; " (: c :) " ]

(* one token stream, two random spellings of it *)
let arbitrary_reformat_pair =
  QCheck.make
    ~print:(fun (a, b) -> a ^ "\n---\n" ^ b)
    QCheck.Gen.(
      map
        (fun triples ->
          let render pick =
            String.concat ""
              (List.concat_map (fun (t, s1, s2) -> [ t; pick s1 s2 ]) triples)
          in
          (render (fun a _ -> a), render (fun _ b -> b)))
        (list_size (int_range 1 8) (triple gen_token gen_sep gen_sep)))

let prop_canonical_reformat_invariant =
  QCheck.Test.make ~name:"reformatting never changes the key" ~count:300
    arbitrary_reformat_pair (fun (a, b) ->
      let ka = Normalize.canonical a and kb = Normalize.canonical b in
      ka = kb && (not (Normalize.is_raw ka)) && ka = Normalize.canonical a)

let prop_literal_kinds_never_collide =
  QCheck.Test.make ~name:"literal kinds never collide" ~count:300
    QCheck.(pair small_nat small_nat)
    (fun (n, m) ->
      let spellings v =
        let s = string_of_int v in
        [ s; s ^ ".0"; s ^ "e0"; "\"" ^ s ^ "\""; "x" ^ s ]
      in
      let keys = List.map Normalize.canonical (spellings n) in
      List.length (List.sort_uniq compare keys) = 5
      && (n = m
         || Normalize.canonical (string_of_int n)
            <> Normalize.canonical (string_of_int m)))

(* ------------------------------------------------------------------ *)
(* The LRU primitive                                                   *)
(* ------------------------------------------------------------------ *)

let test_lru_bounds_and_recency () =
  let lru = Lru.create ~capacity:2 () in
  let evicted = ref [] in
  Lru.set_on_evict lru (fun k -> evicted := k :: !evicted);
  Lru.add lru "a" 1;
  Lru.add lru "b" 2;
  check (Alcotest.option int_) "a cached" (Some 1) (Lru.find lru "a");
  (* a was just used, so inserting c must evict b *)
  Lru.add lru "c" 3;
  check int_ "bounded" 2 (Lru.size lru);
  check (Alcotest.option int_) "LRU victim gone" None (Lru.find lru "b");
  check (Alcotest.option int_) "recently used survives" (Some 1)
    (Lru.find lru "a");
  check int_ "one eviction" 1 (Lru.evictions lru);
  check (Alcotest.list string_) "on_evict saw the victim" [ "b" ] !evicted

let test_lru_disabled () =
  let lru = Lru.create ~enabled:false ~capacity:2 () in
  Lru.add lru "a" 1;
  check (Alcotest.option int_) "disabled stores nothing" None
    (Lru.find lru "a");
  check int_ "empty" 0 (Lru.size lru)

let test_lru_remove_if_vs_evictions () =
  (* remove_if is the invalidation primitive: its removals are not
     capacity evictions, so neither the counter nor the on_evict hook
     (which feeds eviction metrics) may fire *)
  let lru = Lru.create ~capacity:4 () in
  let hook_fired = ref [] in
  Lru.set_on_evict lru (fun k -> hook_fired := k :: !hook_fired);
  List.iter (fun k -> Lru.add lru k 0) [ "a"; "b"; "c" ];
  let dropped = Lru.remove_if lru (fun k _ -> k <> "b") in
  check int_ "remove_if reports its victims" 2 dropped;
  check int_ "invalidations are not evictions" 0 (Lru.evictions lru);
  check (Alcotest.list string_) "on_evict never fired" [] !hook_fired;
  check int_ "survivor stays" 1 (Lru.size lru);
  check (Alcotest.option int_) "survivor readable" (Some 0) (Lru.find lru "b");
  (* a later capacity eviction still fires the hook exactly once *)
  List.iter (fun k -> Lru.add lru k 0) [ "d"; "e"; "f"; "g" ];
  check int_ "capacity eviction counted" 1 (Lru.evictions lru);
  check int_ "hook saw exactly the capacity victim" 1 (List.length !hook_fired)

let test_lru_evict_hook_order () =
  let lru = Lru.create ~capacity:2 () in
  let seen = ref [] in
  (* the hook runs inside the lock, after the victim is removed and the
     counter bumped — it may read the plain counters but must not reenter
     the cache *)
  Lru.set_on_evict lru (fun k -> seen := (k, Lru.evictions lru) :: !seen);
  Lru.add lru "a" 1;
  Lru.add lru "b" 2;
  Lru.add lru "c" 3;
  (match !seen with
  | [ (k, evictions_at_hook) ] ->
      check string_ "victim is the LRU entry" "a" k;
      check int_ "counted before the hook observes it" 1 evictions_at_hook
  | l -> Alcotest.failf "expected one eviction, saw %d" (List.length l));
  (* replacing the hook only affects later evictions *)
  Lru.set_on_evict lru (fun _ -> ());
  Lru.add lru "d" 4;
  check int_ "second eviction counted" 2 (Lru.evictions lru);
  check int_ "old hook not called again" 1 (List.length !seen)

let test_lru_remove_if_multi () =
  (* remove_if collects its victims during the scan and removes them
     after: a predicate matching interleaved entries drops each exactly
     once and never disturbs the survivors *)
  let lru = Lru.create ~capacity:8 () in
  for i = 1 to 6 do
    Lru.add lru (string_of_int i) i
  done;
  let dropped = Lru.remove_if lru (fun _ v -> v mod 2 = 0) in
  check int_ "three removed in one pass" 3 dropped;
  check int_ "three survivors" 3 (Lru.size lru);
  List.iter
    (fun i ->
      check
        (Alcotest.option int_)
        (Printf.sprintf "entry %d" i)
        (if i mod 2 = 0 then None else Some i)
        (Lru.find lru (string_of_int i)))
    [ 1; 2; 3; 4; 5; 6 ];
  check int_ "second pass finds nothing" 0
    (Lru.remove_if lru (fun _ v -> v mod 2 = 0))

let test_lru_eviction_order () =
  let c = Lru.create ~capacity:3 () in
  Lru.add c "k1" "r1";
  Lru.add c "k2" "r2";
  Lru.add c "k3" "r3";
  check int_ "at capacity" 3 (Lru.size c);
  (* touch k1: k2 becomes the least recently used *)
  check bool_ "k1 hit" true (Lru.find c "k1" = Some "r1");
  Lru.add c "k4" "r4";
  check int_ "still at capacity" 3 (Lru.size c);
  check int_ "one eviction" 1 (Lru.evictions c);
  check bool_ "LRU key k2 evicted" true (Lru.find c "k2" = None);
  check bool_ "k1 survived (recently used)" true
    (Lru.find c "k1" = Some "r1");
  check bool_ "k3 survived" true (Lru.find c "k3" = Some "r3");
  check bool_ "k4 present" true (Lru.find c "k4" = Some "r4")

let test_lru_replace_at_capacity () =
  let c = Lru.create ~capacity:2 () in
  Lru.add c "k1" "r1";
  Lru.add c "k2" "r2";
  (* replacing a key that is already cached must not evict anything,
     even with the cache exactly full *)
  Lru.add c "k1" "r1'";
  check int_ "no growth" 2 (Lru.size c);
  check int_ "no eviction" 0 (Lru.evictions c);
  check bool_ "replaced value served" true (Lru.find c "k1" = Some "r1'");
  check bool_ "other key untouched" true (Lru.find c "k2" = Some "r2")

(* the recency list against a reference model — a list of keys, most
   recent first — over seeded random finds, adds, touches, removes and
   invalidations at a small capacity, so every path evicts often *)
let test_lru_matches_model () =
  let rng = Random.State.make [| 14 |] in
  let cap = 4 in
  let lru = Lru.create ~capacity:cap () in
  let evicted = ref [] in
  Lru.set_on_evict lru (fun k -> evicted := k :: !evicted);
  let model = ref [] (* (key, value), most recent first *) in
  let model_evicted = ref [] in
  let promote k v = model := (k, v) :: List.remove_assoc k !model in
  for step = 1 to 2000 do
    let k = string_of_int (Random.State.int rng 8) in
    (match Random.State.int rng 5 with
    | 0 ->
        let want = List.assoc_opt k !model in
        Option.iter (promote k) want;
        check (Alcotest.option int_) (Printf.sprintf "find %s at %d" k step) want
          (Lru.find lru k)
    | 1 ->
        (if (not (List.mem_assoc k !model)) && List.length !model >= cap then
           match List.rev !model with
           | (victim, _) :: _ ->
               model := List.remove_assoc victim !model;
               model_evicted := victim :: !model_evicted
           | [] -> ());
        promote k step;
        Lru.add lru k step
    | 2 ->
        Option.iter (promote k) (List.assoc_opt k !model);
        Lru.touch lru k
    | 3 ->
        check bool_ "remove" (List.mem_assoc k !model) (Lru.remove lru k);
        model := List.remove_assoc k !model
    | _ ->
        let parity = Random.State.int rng 2 in
        let doomed (_, v) = v mod 2 = parity in
        check int_ "remove_if count"
          (List.length (List.filter doomed !model))
          (Lru.remove_if lru (fun _ v -> v mod 2 = parity));
        model := List.filter (fun e -> not (doomed e)) !model);
    check int_ "size" (List.length !model) (Lru.size lru);
    check (Alcotest.list string_) "evictions, in order" !model_evicted !evicted
  done;
  (* whatever survived is served in full *)
  List.iter
    (fun (k, v) -> check (Alcotest.option int_) k (Some v) (Lru.peek lru k))
    !model

(* ------------------------------------------------------------------ *)
(* Plan cache at a peer                                                *)
(* ------------------------------------------------------------------ *)

let plan_stats peer = (Peer.cache_stats peer).Peer.plan

let test_plan_cache_reuse () =
  let peer = Peer.create "xrpc://plan.local" in
  let a = Xdm.to_display (Peer.query_seq peer "for $v in (1 to 4) return $v * $v") in
  let b =
    Xdm.to_display
      (Peer.query_seq peer
         "for  $v  in (1 to 4) (: same plan :)\nreturn $v * $v")
  in
  check string_ "cached plan prints the same answer" a b;
  let s = plan_stats peer in
  check int_ "one compilation" 1 s.Plan_cache.misses;
  check int_ "one plan-cache hit" 1 s.Plan_cache.hits

let test_plan_cache_rebinds_globals () =
  (* prolog pass 2 (global variable binding) must re-run per execution:
     a cached plan may never pin the database state it was compiled
     against *)
  let peer = Peer.create "xrpc://plan.local" in
  Database.add_doc_xml peer.Peer.db "d.xml" "<n/>";
  let q = {|declare variable $c := count(doc("d.xml")//m); $c|} in
  check string_ "before the update" "0" (Xdm.to_display (Peer.query_seq peer q));
  ignore
    (Peer.query peer {|insert node <m/> into exactly-one(doc("d.xml")/n)|});
  check string_ "cached plan sees the new document" "1"
    (Xdm.to_display (Peer.query_seq peer q));
  check bool_ "second run really was a plan-cache hit" true
    ((plan_stats peer).Plan_cache.hits >= 1)

let test_plan_cache_module_invalidation () =
  let peer = Peer.create "xrpc://plan.local" in
  let version n =
    Printf.sprintf
      {|module namespace m = "m";
declare function m:one() as xs:integer { %d };|}
      n
  in
  Peer.register_module peer ~uri:"m" ~location:"m.xq" (version 1);
  let q = {|import module namespace m = "m" at "m.xq"; m:one()|} in
  check string_ "v1 answer" "1" (Xdm.to_display (Peer.query_seq peer q));
  (* re-registering the module changes the code cached plans refer to *)
  Peer.register_module peer ~uri:"m" ~location:"m.xq" (version 2);
  check string_ "re-registration drops the stale plan" "2"
    (Xdm.to_display (Peer.query_seq peer q))

let test_explain_compiles_once () =
  (* the :explain fix: the shell renders plans via Peer.compiled_plan (the
     plan cache) instead of re-parsing, so explain-then-run compiles the
     query exactly once *)
  let peer = Peer.create "xrpc://plan.local" in
  let q = "for $v in (1 to 3) return $v + 1" in
  ignore (Peer.compiled_plan peer q);
  check int_ "explain compiled it" 1 (plan_stats peer).Plan_cache.misses;
  ignore (Peer.query_seq peer q);
  let s = plan_stats peer in
  check int_ "the run did not recompile" 1 s.Plan_cache.misses;
  check int_ "it hit the explained plan" 1 s.Plan_cache.hits;
  (* a reformatted spelling of the same query reuses the plan too *)
  ignore (Peer.compiled_plan peer "for  $v in (1 to 3) (: same :)\nreturn $v + 1");
  check int_ "reformatted explain is a hit" 2 (plan_stats peer).Plan_cache.hits

(* Module plans (§3.3): what an incoming XRPC request executes *)

(* a standalone peer serving the film database *)
let film_peer () =
  let peer = Peer.create "xrpc://y.example.org" in
  Filmdb.install peer ();
  peer

let film_request () =
  {
    Message.module_uri = "films";
    location = Filmdb.module_at;
    method_ = "filmsByActor";
    arity = 1;
    updating = false;
    fragments = false;
    query_id = None;
    idem_key = None;
    cache_ok = true;
    calls = [ [ [ Xdm.str "Sean Connery" ] ] ];
  }

let handle peer req =
  Message.of_string (Peer.handle_raw peer (Message.to_string (Message.Request req)))

let test_module_plan_hits () =
  let peer = film_peer () in
  (* pin the test to the module-plan cache: with result caching on, the
     repeats are answered above it and never reach the compile path *)
  Peer.set_result_caching peer false;
  ignore (handle peer (film_request ()));
  ignore (handle peer (film_request ()));
  ignore (handle peer (film_request ()));
  check int_ "one miss" 1 (Peer.cache_stats peer).Peer.func_misses;
  check int_ "two hits" 2 (Peer.cache_stats peer).Peer.func_hits

let test_module_plan_disabled () =
  let peer = film_peer () in
  Peer.set_result_caching peer false;
  Peer.set_plan_caching peer false;
  ignore (handle peer (film_request ()));
  ignore (handle peer (film_request ()));
  check int_ "two misses" 2 (Peer.cache_stats peer).Peer.func_misses

let test_module_plan_compile_hook () =
  let peer = film_peer () in
  Peer.set_result_caching peer false;
  let compiles = ref 0 in
  peer.Peer.plan_cache.Plan_cache.on_compile <- (fun _ -> incr compiles);
  ignore (handle peer (film_request ()));
  ignore (handle peer (film_request ()));
  check int_ "hook fired once" 1 !compiles

let test_module_plan_invalidated_on_module_update () =
  let peer = film_peer () in
  ignore (handle peer (film_request ()));
  Peer.register_module peer ~uri:Filmdb.module_ns ~location:Filmdb.module_at
    Filmdb.film_module;
  ignore (handle peer (film_request ()));
  check int_ "recompiled" 2 (Peer.cache_stats peer).Peer.func_misses

(* ------------------------------------------------------------------ *)
(* Result cache across a cluster                                       *)
(* ------------------------------------------------------------------ *)

let sim_config = { Simnet.default_config with Simnet.charge_cpu = false }

(* two peers: x originates, y serves the film database *)
let film_pair () =
  let cluster =
    Cluster.create ~config:sim_config
      ~names:[ "x.example.org"; "y.example.org" ] ()
  in
  let x = Cluster.peer cluster "x.example.org" in
  let y = Cluster.peer cluster "y.example.org" in
  Filmdb.install y ();
  Peer.register_module x ~uri:Filmdb.module_ns ~location:Filmdb.module_at
    Filmdb.film_module;
  (cluster, x, y)

let result_stats peer = (Peer.cache_stats peer).Peer.result

let films_by ?cache ?query_id client ~dest actor =
  Client.call client ~dest ?cache ?query_id ~module_uri:Filmdb.module_ns
    ~location:Filmdb.module_at ~fn:"filmsByActor"
    [ [ Xdm.str actor ] ]

let test_result_cache_hit () =
  let cluster, _, y = film_pair () in
  let client = Cluster.client cluster in
  let dest = "xrpc://y.example.org" in
  let a = Xdm.to_display (films_by client ~dest "Sean Connery") in
  let b = Xdm.to_display (films_by client ~dest "Sean Connery") in
  check string_ "repeat answers identically" a b;
  let s = result_stats y in
  check int_ "first call executed" 1 s.Result_cache.misses;
  check int_ "second was served from cache" 1 s.Result_cache.hits;
  check int_ "one entry" 1 s.Result_cache.size

let test_update_then_read_invalidates () =
  (* a committed remote update (rule R_Fu) must evict the dependent
     entry: the next read executes and sees the new film, identically to
     a cache=off read *)
  let cluster, x, y = film_pair () in
  let client = Cluster.client cluster in
  let dest = "xrpc://y.example.org" in
  ignore (films_by client ~dest "Sean Connery");
  ignore (films_by client ~dest "Sean Connery");
  check int_ "warm" 1 (result_stats y).Result_cache.hits;
  let r =
    Peer.query x
      {|import module namespace f="films" at "http://x.example.org/film.xq";
execute at {"xrpc://y.example.org"} {f:addFilm("Fresh", "Sean Connery")}|}
  in
  check bool_ "update applied" true r.Peer.committed;
  check bool_ "commit evicted the dependent entry" true
    ((result_stats y).Result_cache.invalidations >= 1);
  let cached = Xdm.to_display (films_by client ~dest "Sean Connery") in
  let off = Xdm.to_display (films_by client ~dest ~cache:false "Sean Connery") in
  check string_ "post-update cached == cache-off" off cached;
  check bool_ "the new film is visible" true (contains cached "Fresh")

let test_version_vector_precision () =
  (* entries are pinned per document: an update touching a.xml evicts
     only the entries that read a.xml *)
  let cluster =
    Cluster.create ~config:sim_config ~names:[ "x"; "y" ] ()
  in
  let y = Cluster.peer cluster "y" in
  Database.add_doc_xml y.Peer.db "a.xml" "<a>1</a>";
  Database.add_doc_xml y.Peer.db "b.xml" "<b>2</b>";
  Peer.register_module y ~uri:"m" ~location:"m.xq"
    {|module namespace m = "m";
declare function m:ra() as node()* { doc("a.xml") };
declare function m:rb() as node()* { doc("b.xml") };
declare updating function m:wa()
{ insert node <x/> into exactly-one(doc("a.xml")/a) };|};
  let client = Cluster.client cluster in
  let call fn =
    Client.call client ~dest:"xrpc://y" ~module_uri:"m" ~location:"m.xq" ~fn []
  in
  ignore (call "ra");
  ignore (call "rb");
  check int_ "both entries cached" 2 (result_stats y).Result_cache.size;
  ignore
    (Client.call client ~dest:"xrpc://y" ~updating:true ~module_uri:"m"
       ~location:"m.xq" ~fn:"wa" []);
  check int_ "only the a.xml entry was evicted" 1
    (result_stats y).Result_cache.invalidations;
  check int_ "b.xml entry survives" 1 (result_stats y).Result_cache.size;
  let hits0 = (result_stats y).Result_cache.hits in
  ignore (call "rb");
  check int_ "b repeat still hits" (hits0 + 1) (result_stats y).Result_cache.hits;
  check string_ "a repeat re-executes and sees the update" "<a>1<x/></a>"
    (Xdm.to_display (call "ra"))

(* Module plans must follow import edges: re-registering [b] changes the
   code behind [a:g()], which calls [b:f()] — both the module plan of [a]
   and any cached [a:g()] result are stale.  Checked with the result
   cache on and off. *)
let test_importer_sees_reregistered_module () =
  let b_module n =
    Printf.sprintf
      {|module namespace b = "b";
declare function b:f() as xs:integer { %d };|}
      n
  in
  let a_module =
    {|module namespace a = "a";
import module namespace b = "b" at "b.xq";
declare function a:g() as xs:integer { b:f() };|}
  in
  let call_g peer =
    let req =
      {
        Message.module_uri = "a";
        location = "a.xq";
        method_ = "g";
        arity = 0;
        updating = false;
        fragments = false;
        query_id = None;
        idem_key = None;
        cache_ok = true;
        calls = [ [] ];
      }
    in
    match handle peer req with
    | Message.Response { results = [ r ]; _ } -> Xdm.to_display r
    | Message.Fault f -> Alcotest.failf "a:g() faulted: %s" f.Message.reason
    | _ -> Alcotest.fail "a:g(): unexpected reply"
  in
  List.iter
    (fun result_caching ->
      let what =
        if result_caching then "result cache on" else "result cache off"
      in
      let peer = Peer.create "xrpc://plan.local" in
      Peer.set_result_caching peer result_caching;
      Peer.register_module peer ~uri:"b" ~location:"b.xq" (b_module 1);
      Peer.register_module peer ~uri:"a" ~location:"a.xq" a_module;
      check string_ (what ^ ": v1 answer") "1" (call_g peer);
      check string_ (what ^ ": v1 repeat") "1" (call_g peer);
      Peer.register_module peer ~uri:"b" ~location:"b.xq" (b_module 2);
      check string_ (what ^ ": importer sees the new b") "2" (call_g peer);
      if result_caching then
        check int_ (what ^ ": the stale a:g() result was invalidated") 1
          (result_stats peer).Result_cache.invalidations)
    [ true; false ]

let test_aborted_2pc_does_not_invalidate () =
  (* deterministic presumed-abort schedule: a prepared blocker at y makes
     the distributed update abort — the rollback never reaches
     Database.commit, so the cache keeps its (still correct) entry; after
     the blocker is rolled back, the rerun commits and must invalidate *)
  let cluster =
    Cluster.create ~config:sim_config
      ~names:[ "x.example.org"; "y.example.org"; "z.example.org" ] ()
  in
  let x = Cluster.peer cluster "x.example.org" in
  let y = Cluster.peer cluster "y.example.org" in
  Filmdb.install y ();
  Filmdb.install (Cluster.peer cluster "z.example.org") ~variant:`Z ();
  Peer.register_module x ~uri:Filmdb.module_ns ~location:Filmdb.module_at
    Filmdb.film_module;
  let client = Cluster.client cluster in
  let dest = "xrpc://y.example.org" in
  let warm = Xdm.to_display (films_by client ~dest "Sean Connery") in
  ignore (films_by client ~dest "Sean Connery");
  check int_ "warm" 1 (result_stats y).Result_cache.hits;
  (* an earlier transaction holds the prepared state on filmDB at y *)
  let blocker =
    { Message.host = "xrpc://blocker"; timestamp = "0.1"; timeout = 1000;
      level = Message.Repeatable }
  in
  let blocking_update =
    {
      Message.module_uri = Filmdb.module_ns;
      location = Filmdb.module_at;
      method_ = "addFilm";
      arity = 2;
      updating = true;
      fragments = false;
      query_id = Some blocker;
      idem_key = None;
      cache_ok = true;
      calls = [ [ [ Xdm.str "Blocker" ]; [ Xdm.str "B" ] ] ];
    }
  in
  ignore (Peer.handle_raw y (Message.to_string (Message.Request blocking_update)));
  ignore
    (Peer.handle_raw y
       (Message.to_string (Message.Tx_request (Message.Prepare, blocker))));
  let q_doomed =
    {|import module namespace f="films" at "http://x.example.org/film.xq";
declare option xrpc:isolation "repeatable";
for $dst in ("xrpc://y.example.org", "xrpc://z.example.org")
return execute at {$dst} {f:addFilm("Doomed", "Sean Connery")}|}
  in
  let aborted = Peer.query x q_doomed in
  check bool_ "commit refused" false aborted.Peer.committed;
  check int_ "aborted 2PC invalidated nothing" 0
    (result_stats y).Result_cache.invalidations;
  let after_abort = Xdm.to_display (films_by client ~dest "Sean Connery") in
  check string_ "cached answer unchanged by the abort" warm after_abort;
  check int_ "and it was still a cache hit" 2 (result_stats y).Result_cache.hits;
  check string_ "cache-off agrees" warm
    (Xdm.to_display (films_by client ~dest ~cache:false "Sean Connery"));
  (* release the blocker; the rerun commits — and THAT invalidates *)
  ignore
    (Peer.handle_raw y
       (Message.to_string (Message.Tx_request (Message.Rollback, blocker))));
  let committed = Peer.query x q_doomed in
  check bool_ "rerun commits" true committed.Peer.committed;
  check bool_ "committed 2PC invalidates" true
    ((result_stats y).Result_cache.invalidations >= 1);
  let cached = Xdm.to_display (films_by client ~dest "Sean Connery") in
  let off = Xdm.to_display (films_by client ~dest ~cache:false "Sean Connery") in
  check string_ "post-commit cached == cache-off" off cached;
  check bool_ "the committed film is visible" true (cached <> warm)

let test_query_id_bypasses_cache () =
  (* R'_Fr calls pin a snapshot that may diverge from the current
     version; they must not populate or consult the cache *)
  let cluster, _, y = film_pair () in
  let client = Cluster.client cluster in
  let dest = "xrpc://y.example.org" in
  let qid =
    { Message.host = "xrpc://x.example.org"; timestamp = "1.0";
      timeout = 1000; level = Message.Repeatable }
  in
  ignore (films_by client ~dest ~query_id:qid "Sean Connery");
  ignore (films_by client ~dest ~query_id:qid "Sean Connery");
  let s = result_stats y in
  check int_ "no lookups" 0 (s.Result_cache.hits + s.Result_cache.misses);
  check int_ "no entries" 0 s.Result_cache.size

let test_cache_off_escape_hatch () =
  let cluster, _, y = film_pair () in
  let client = Cluster.client cluster in
  let dest = "xrpc://y.example.org" in
  let warm = Xdm.to_display (films_by client ~dest "Sean Connery") in
  ignore (films_by client ~dest "Sean Connery");
  let hits0 = (result_stats y).Result_cache.hits in
  let off = Xdm.to_display (films_by client ~dest ~cache:false "Sean Connery") in
  check string_ "cache=off answers identically" warm off;
  check int_ "cache=off never consults the cache" hits0
    (result_stats y).Result_cache.hits;
  (* the client-wide default works too *)
  Client.set_result_caching client false;
  ignore (films_by client ~dest "Sean Connery");
  check int_ "client default off" hits0 (result_stats y).Result_cache.hits;
  Client.set_result_caching client true;
  ignore (films_by client ~dest "Sean Connery");
  check int_ "back on" (hits0 + 1) (result_stats y).Result_cache.hits

let test_warm_repeat_runs_zero_exec_phases () =
  (* the acceptance check: serverProfile of a warm repeat shows the cache
     phase and NO exec phase at the serving peer *)
  let cluster, _, _ = film_pair () in
  let client = Cluster.client cluster in
  let dest = "xrpc://y.example.org" in
  ignore (films_by client ~dest "Sean Connery");
  let _, profile =
    Client.call_profiled client ~dest ~module_uri:Filmdb.module_ns
      ~location:Filmdb.module_at ~fn:"filmsByActor"
      [ [ Xdm.str "Sean Connery" ] ]
  in
  let phases =
    List.concat_map
      (fun (_, d) -> List.map fst d.Profile.d_remote)
      (Profile.dests profile)
  in
  check bool_ "cache phase present" true (List.mem "cache" phases);
  check bool_ "no exec phase" false (List.mem "exec" phases)

let test_trace_events () =
  let cluster, x, _ = film_pair () in
  let client = Cluster.client cluster in
  let dest = "xrpc://y.example.org" in
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.reset ())
    (fun () ->
      ignore (Peer.query_seq x "2 + 2");
      ignore (Peer.query_seq x "2 + 2");
      ignore (films_by client ~dest "Sean Connery");
      ignore (films_by client ~dest "Sean Connery");
      let events =
        List.concat_map
          (fun s -> List.map (fun e -> e.Trace.e_name) s.Trace.events)
          (Trace.spans ())
      in
      List.iter
        (fun name ->
          check bool_ name true (List.mem name events))
        [ "plan-cache-hit"; "result-cache-hit"; "remote-cache-hit" ])

(* ------------------------------------------------------------------ *)
(* Seeded chaos: caching never changes an answer                       *)
(* ------------------------------------------------------------------ *)

let chaos_policy =
  {
    Transport.timeout_ms = 1_000.;
    max_retries = 4;
    backoff_base_ms = 5.;
    backoff_cap_ms = 40.;
    backoff_jitter = 0.5;
    breaker_threshold = 0;
    breaker_cooldown_ms = 100.;
  }

let chaos_seeds () =
  match Sys.getenv_opt "FAULT_SEED" with
  | Some s -> [ int_of_string (String.trim s) ]
  | None -> List.init 8 (fun i -> 100 + i)

let replay_hint seed = Printf.sprintf "FAULT_SEED=%d dune runtest" seed

let test_chaos_cached_answers_consistent () =
  (* interleave reads (cached, then cache=off) with distributed 2PC
     updates under seeded faults.  During the run a cached answer must
     match one of the uncached answers bracketing it; after the network
     recovers, cached and uncached answers must agree exactly — whatever
     mixture of commits and presumed-abort rollbacks the schedule
     produced.  And if nothing ever committed at y, its result cache must
     show zero invalidations: aborted transactions invalidate nothing. *)
  List.iter
    (fun seed ->
      let cluster =
        Cluster.create ~config:sim_config
          ~faults:(Simnet.chaos ~seed ~loss:0.1 ())
          ~policy:chaos_policy
          ~names:[ "x.example.org"; "y.example.org"; "z.example.org" ] ()
      in
      let x = Cluster.peer cluster "x.example.org" in
      let y = Cluster.peer cluster "y.example.org" in
      Filmdb.install y ();
      Filmdb.install (Cluster.peer cluster "z.example.org") ~variant:`Z ();
      Peer.register_module x ~uri:Filmdb.module_ns ~location:Filmdb.module_at
        Filmdb.film_module;
      let client = Cluster.client cluster in
      let dest = "xrpc://y.example.org" in
      let rng = Random.State.make [| seed; 77 |] in
      let read ?cache () =
        try Some (Xdm.to_display (films_by client ~dest ?cache "Sean Connery"))
        with _ -> None
      in
      for step = 1 to 6 do
        if Random.State.int rng 3 = 0 then
          ignore
            (try
               (Peer.query x
                  (Printf.sprintf
                     {|import module namespace f="films" at "http://x.example.org/film.xq";
declare option xrpc:isolation "repeatable";
for $dst in ("xrpc://y.example.org", "xrpc://z.example.org")
return execute at {$dst} {f:addFilm("C%d-%d", "Sean Connery")}|}
                     seed step))
                 .Peer.committed
             with _ -> false)
        else
          let before = read ~cache:false () in
          let cached = read () in
          let after = read ~cache:false () in
          match cached with
          | None -> ()
          | Some c ->
              if Some c <> before && Some c <> after then
                Alcotest.failf
                  "seed %d step %d: cached answer %s matches neither \
                   bracketing uncached answer\nreplay: %s"
                  seed step c (replay_hint seed)
      done;
      (* network recovers: cached and uncached must agree exactly *)
      Cluster.clear_faults cluster;
      Simnet.sleep (Cluster.net cluster)
        (chaos_policy.Transport.breaker_cooldown_ms +. 1.);
      ignore (Cluster.resolve_in_doubt cluster);
      let off =
        Xdm.to_display (films_by client ~dest ~cache:false "Sean Connery")
      in
      let cached = Xdm.to_display (films_by client ~dest "Sean Connery") in
      if cached <> off then
        Alcotest.failf
          "seed %d: recovered cached answer diverges\ncached:    %s\n\
           cache-off: %s\nreplay: %s"
          seed cached off (replay_hint seed);
      (* if y's database never changed, no commit ever fired its hook *)
      let baseline = not (contains off (Printf.sprintf "C%d-" seed)) in
      if baseline && (result_stats y).Result_cache.invalidations > 0 then
        Alcotest.failf
          "seed %d: no update committed at y, yet its cache was \
           invalidated\nreplay: %s"
          seed (replay_hint seed))
    (chaos_seeds ())

let () =
  Alcotest.run "cache"
    [
      ( "normalize",
        [
          Alcotest.test_case "whitespace-insensitive" `Quick
            test_canonical_insensitive;
          Alcotest.test_case "literal kinds disjoint" `Quick
            test_canonical_literal_kinds;
          Alcotest.test_case "constructor raw fallback" `Quick
            test_canonical_raw_fallback;
          QCheck_alcotest.to_alcotest prop_canonical_reformat_invariant;
          QCheck_alcotest.to_alcotest prop_literal_kinds_never_collide;
        ] );
      ( "lru",
        [
          Alcotest.test_case "bounds and recency" `Quick
            test_lru_bounds_and_recency;
          Alcotest.test_case "disabled" `Quick test_lru_disabled;
          Alcotest.test_case "remove_if is not an eviction" `Quick
            test_lru_remove_if_vs_evictions;
          Alcotest.test_case "eviction hook firing order" `Quick
            test_lru_evict_hook_order;
          Alcotest.test_case "remove_if mid-scan" `Quick
            test_lru_remove_if_multi;
          Alcotest.test_case "eviction order at capacity" `Quick
            test_lru_eviction_order;
          Alcotest.test_case "replacement does not evict" `Quick
            test_lru_replace_at_capacity;
          Alcotest.test_case "matches a reference model" `Quick
            test_lru_matches_model;
        ] );
      ( "plan-cache",
        [
          Alcotest.test_case "reuse, identical answers" `Quick
            test_plan_cache_reuse;
          Alcotest.test_case "globals rebound per run" `Quick
            test_plan_cache_rebinds_globals;
          Alcotest.test_case "module re-registration invalidates" `Quick
            test_plan_cache_module_invalidation;
          Alcotest.test_case "explain compiles once" `Quick
            test_explain_compiles_once;
          Alcotest.test_case "module hits" `Quick test_module_plan_hits;
          Alcotest.test_case "module disabled" `Quick test_module_plan_disabled;
          Alcotest.test_case "module compile hook" `Quick
            test_module_plan_compile_hook;
          Alcotest.test_case "module invalidation" `Quick
            test_module_plan_invalidated_on_module_update;
        ] );
      ( "result-cache",
        [
          Alcotest.test_case "hit on repeat" `Quick test_result_cache_hit;
          Alcotest.test_case "update-then-read invalidates" `Quick
            test_update_then_read_invalidates;
          Alcotest.test_case "version-vector precision" `Quick
            test_version_vector_precision;
          Alcotest.test_case "aborted 2PC does not invalidate" `Quick
            test_aborted_2pc_does_not_invalidate;
          Alcotest.test_case "queryID bypasses" `Quick
            test_query_id_bypasses_cache;
          Alcotest.test_case "cache=off escape hatch" `Quick
            test_cache_off_escape_hatch;
          Alcotest.test_case "warm repeat: zero exec phases" `Quick
            test_warm_repeat_runs_zero_exec_phases;
          Alcotest.test_case "trace events" `Quick test_trace_events;
          Alcotest.test_case "importer sees re-registered module" `Quick
            test_importer_sees_reregistered_module;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "cached answers consistent under faults" `Quick
            test_chaos_cached_answers_consistent;
        ] );
    ]
