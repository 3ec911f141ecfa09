(** Compiled-plan cache (§3.3): prepared XQuery code, so a repeat skips
    parse, prolog pass 1 and static check and only executes.

    MonetDB/XQuery caches the plans of XQuery module functions, so an XRPC
    request usually needs no parsing and optimization.  One {!compiled}
    record — the parsed program, the function registry built by prolog
    pass 1 (imports included), the recorded options and import list —
    serves two key spaces:
    - {e module plans}, keyed by module namespace URI: what every incoming
      XRPC request executes.  [on_compile] fires on every module (re)compile
      so benchmarks can charge the paper's observed translation cost
      (~130 ms in MonetDB) to the simulated clock;
    - {e ad-hoc plans}, keyed by the {!Xrpc_xquery.Normalize.canonical}
      form of a [Peer.query] source, so a repeated query (modulo
      whitespace and comments) skips straight to execution.

    Each key space has its own bounded {!Lru} table, so ad-hoc misses
    never evict a serving peer's module plans.  Global-variable binding
    (prolog pass 2) is database-dependent and deliberately {e not}
    cached: it re-runs per execution via
    {!Xrpc_xquery.Runner.bind_globals}, which is what keeps a cached plan
    coherent with a database that changed under it.  Plans carry no
    import provenance, so module re-registration clears both tables.

    Counters are exported through {!Xrpc_obs.Metrics} as
    [peer.func_cache.*] (module plans) and [peer.plan_cache.*] (ad-hoc
    plans). *)

module Normalize = Xrpc_xquery.Normalize
module Xast = Xrpc_xquery.Ast
module Xctx = Xrpc_xquery.Context
module Metrics = Xrpc_obs.Metrics

type compiled = {
  prog : Xast.prog;
  funcs : (Xctx.func_key, Xctx.func) Hashtbl.t;
      (** shared by every execution of this plan — prolog pass 1 is the
          only writer, so post-compile the table is read-only *)
  options : (string * string) list;  (** [declare option] values *)
  imports : (string * string) list;  (** module uri -> at-hint *)
}

(* one key space: its table and its hit/miss series *)
type table = {
  lru : compiled Lru.t;
  m_hits : Metrics.counter;
  m_misses : Metrics.counter;
}

type t = {
  modules : table;  (** module namespace uri -> plan *)
  adhoc : table;  (** canonical query text -> plan *)
  by_source : (string, string) Hashtbl.t;
      (** exact source text -> canonical key.  Repeat queries usually
          arrive byte-identical; this fast path skips re-lexing the whole
          source for canonicalization on every lookup, which would
          otherwise cost a sizable fraction of the parse it exists to
          avoid.  Sources differing only in whitespace/comments miss here
          and fall through to {!Normalize.canonical}. *)
  mutable on_compile : string -> unit;
      (** fired with the module URI on every module-plan (re)compile *)
}

type stats = Lru.stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  capacity : int;
  enabled : bool;
}

(* [series] names the key space's [.hits], [.misses] and [.evictions]
   metrics *)
let table ~enabled ~capacity series =
  let counter c = Metrics.counter (series ^ "." ^ c) in
  let lru = Lru.create ~enabled ~capacity () in
  let m_evictions = counter "evictions" in
  Lru.set_on_evict lru (fun _ -> Metrics.incr m_evictions);
  { lru; m_hits = counter "hits"; m_misses = counter "misses" }

(** [capacity] bounds the ad-hoc plans; a peer keeps up to 64 module
    plans. *)
let create ?(enabled = true) ?(capacity = 128) () =
  {
    modules = table ~enabled ~capacity:64 "peer.func_cache";
    adhoc = table ~enabled ~capacity "peer.plan_cache";
    by_source = Hashtbl.create 64;
    on_compile = (fun _ -> ());
  }

(* A [compile] that raises caches nothing (the error propagates and the
   next attempt recompiles).  With the cache disabled every lookup is a
   counted miss and [compile] runs every time. *)
let lookup tbl key ~(compile : unit -> compiled) : compiled * bool =
  match Lru.find tbl.lru key with
  | Some c ->
      Metrics.incr tbl.m_hits;
      (c, true)
  | None ->
      Metrics.incr tbl.m_misses;
      let c = compile () in
      Lru.add tbl.lru key c;
      (c, false)

(* the alias table is bounded loosely: distinct spellings of the same
   canonical query are rare, so 4x the LRU capacity is plenty; overflow
   just resets the fast path, never correctness *)
let canonical_key t source =
  match Hashtbl.find_opt t.by_source source with
  | Some key -> key
  | None ->
      let key = Normalize.canonical source in
      if Hashtbl.length t.by_source >= 4 * Lru.capacity t.adhoc.lru then
        Hashtbl.reset t.by_source;
      Hashtbl.replace t.by_source source key;
      key

(** [find_or_compile t source ~compile] — the ad-hoc plan for [source],
    with a flag saying whether it was served from the cache. *)
let find_or_compile t (source : string) ~compile : compiled * bool =
  (* a disabled table ignores the key: skip the canonicalization lex *)
  let key =
    if Lru.enabled t.adhoc.lru then canonical_key t source else source
  in
  lookup t.adhoc key ~compile

(** [find_or_compile_module t ~uri ~compile] — the module plan for [uri]. *)
let find_or_compile_module t ~uri ~compile : compiled =
  fst
    (lookup t.modules uri ~compile:(fun () ->
         t.on_compile uri;
         compile ()))

let clear t =
  Lru.clear t.modules.lru;
  Lru.clear t.adhoc.lru;
  Hashtbl.reset t.by_source

let set_enabled t b =
  Lru.set_enabled t.modules.lru b;
  Lru.set_enabled t.adhoc.lru b

(** Ad-hoc plan counters. *)
let stats t : stats = Lru.stats t.adhoc.lru

(** Module plan counters. *)
let module_stats t : stats = Lru.stats t.modules.lru
