(** Semantic result cache — memoized answers for read-only remote calls.

    A non-updating, non-isolated XRPC call (rule R_Fr) is a pure function
    of (module, function, arguments, the versions of the documents it
    read).  The serving peer therefore caches the result sequences keyed
    on the call signature plus canonicalized arguments, and pins each
    entry to the {e per-document version vector} observed during
    execution ({!Database.doc_version}).  A later lookup re-validates the
    vector against the current database version: any document rebuilt
    since makes the entry stale.

    Invalidation is belt and braces:
    - eagerly, through the {!Database.on_commit} hook — a committed XQUF
      update (local R_Fu apply, or the Commit leg of 2PC) evicts exactly
      the entries that depend on a touched document.  A presumed-abort
      Rollback never reaches [Database.commit], so an aborted distributed
      transaction invalidates nothing — by construction;
    - lazily, through the version-vector check at hit time, which catches
      entries created against databases the hook never saw.

    Only calls that stayed local are cacheable: an execution that fetched
    a remote document (data shipping) or dispatched [execute at] depends
    on state this peer cannot version, so it is never stored.  Entries
    whose calls pin a queryID (R'_Fr) bypass the cache entirely — their
    snapshot may legitimately diverge from the current version.

    Bounded LRU over {!Lru}; counters exported through
    {!Xrpc_obs.Metrics} as [peer.result_cache.*]. *)

open Xrpc_xml
module Marshal = Xrpc_soap.Marshal
module Metrics = Xrpc_obs.Metrics

let m_hits = Metrics.counter "peer.result_cache.hits"
let m_misses = Metrics.counter "peer.result_cache.misses"
let m_evictions = Metrics.counter "peer.result_cache.evictions"
let m_invalidations = Metrics.counter "peer.result_cache.invalidations"
let m_stale = Metrics.counter "peer.result_cache.stale"

type entry = {
  results : Xdm.sequence list;  (** one result sequence per call *)
  deps : (string * int) list;
      (** document-version vector: every document the execution read,
          with its {!Database.doc_version} at execution time *)
}

type t = {
  lru : entry Lru.t;
  mutable hits : int;
  mutable misses : int;
  mutable stale : int;  (** lazy invalidations (version-vector mismatch) *)
  mutable invalidations : int;  (** eager invalidations (commit hook) *)
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  stale : int;
  size : int;
  capacity : int;
  enabled : bool;
}

let create ?(enabled = true) ?(capacity = 512) () =
  let lru = Lru.create ~enabled ~capacity () in
  Lru.set_on_evict lru (fun _ -> Metrics.incr m_evictions);
  { lru; hits = 0; misses = 0; stale = 0; invalidations = 0 }

(* ------------------------------------------------------------------ *)
(* Keys                                                                *)
(* ------------------------------------------------------------------ *)

(* The key is the call signature, NUL-separated from the arguments,
   which are canonicalized through the SOAP sequence marshalling (typed
   atomics, structural nodes), so two calls with structurally equal
   arguments share a key however they were produced. *)
let key ~module_uri ~fn ~arity ~(calls : Xdm.sequence list list) =
  let buf = Buffer.create 128 in
  Buffer.add_string buf module_uri;
  Buffer.add_char buf '\000';
  Buffer.add_string buf fn;
  Buffer.add_char buf '#';
  Buffer.add_string buf (string_of_int arity);
  List.iter
    (fun params ->
      Buffer.add_char buf '\000';
      List.iter
        (fun seq ->
          Buffer.add_char buf '\001';
          Marshal.write_sequence buf seq)
        params)
    calls;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Lookup / store                                                      *)
(* ------------------------------------------------------------------ *)

(** [find t ~key ~doc_version] — the cached result sequences, provided
    every dependency still has the version it was executed against
    ([doc_version] reads the current database).  A version mismatch
    drops the entry (lazy invalidation) and counts as a miss. *)
let find t ~key ~(doc_version : string -> int) : Xdm.sequence list option =
  if not (Lru.enabled t.lru) then None
  else
    match Lru.peek t.lru key with
    | Some e when List.for_all (fun (d, v) -> doc_version d = v) e.deps ->
        Lru.touch t.lru key;
        t.hits <- t.hits + 1;
        Metrics.incr m_hits;
        Some e.results
    | Some _ ->
        ignore (Lru.remove t.lru key);
        t.stale <- t.stale + 1;
        Metrics.incr m_stale;
        t.misses <- t.misses + 1;
        Metrics.incr m_misses;
        None
    | None ->
        t.misses <- t.misses + 1;
        Metrics.incr m_misses;
        None

let add t ~key ~deps results =
  if Lru.enabled t.lru then Lru.add t.lru key { results; deps }

(* ------------------------------------------------------------------ *)
(* Invalidation                                                        *)
(* ------------------------------------------------------------------ *)

(* Drop the entries satisfying [p], counted as invalidations. *)
let invalidate t p =
  let n = Lru.remove_if t.lru p in
  if n > 0 then begin
    t.invalidations <- t.invalidations + n;
    Metrics.incr_by m_invalidations n
  end;
  n

(** Evict every entry depending on one of [docs] (the commit hook);
    returns how many were evicted. *)
let invalidate_docs t docs =
  invalidate t (fun _ e -> List.exists (fun (d, _) -> List.mem d docs) e.deps)

(** Evict every entry (module re-registration: the code behind any cached
    call may have changed, directly or through an import); returns how
    many were evicted. *)
let invalidate_all t = invalidate t (fun _ _ -> true)

(* ------------------------------------------------------------------ *)
(* Introspection / control                                             *)
(* ------------------------------------------------------------------ *)

let clear t = Lru.clear t.lru
let set_enabled t b = Lru.set_enabled t.lru b
let enabled t = Lru.enabled t.lru

let stats (t : t) : stats =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = Lru.evictions t.lru;
    invalidations = t.invalidations;
    stale = t.stale;
    size = Lru.size t.lru;
    capacity = Lru.capacity t.lru;
    enabled = Lru.enabled t.lru;
  }
