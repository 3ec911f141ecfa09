(** Generic bounded LRU table — an intrusive doubly-linked recency list
    threaded through the entries, an internal mutex — and the only one:
    the plan cache (module and ad-hoc plans), the result cache and the
    idempotency cache all keep their entries here.  Lookup, insert,
    eviction and removal are O(1); only [remove_if] scans.  Relinking
    allocates nothing, so the long-lived entries gain no young
    pointers on a hit. *)

type 'a entry = {
  key : string;
  mutable value : 'a option;  (** [None] only in the sentinel *)
  mutable newer : 'a entry;  (** towards the most recently used *)
  mutable older : 'a entry;  (** towards the least recently used *)
}

type 'a t = {
  mutable enabled : bool;
  capacity : int;
  entries : (string, 'a entry) Hashtbl.t;
  ring : 'a entry;
      (** sentinel of the circular recency list: [ring.older] is the most
          recently used entry, [ring.newer] the next eviction victim *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable on_evict : string -> unit;
      (** fired (inside the lock) for every capacity eviction — cache
          layers hook their eviction metrics here *)
  lock : Mutex.t;
}

let create ?(enabled = true) ?(capacity = 256) () =
  let rec ring = { key = ""; value = None; newer = ring; older = ring } in
  {
    enabled;
    capacity = max 1 capacity;
    entries = Hashtbl.create 64;
    ring;
    hits = 0;
    misses = 0;
    evictions = 0;
    on_evict = (fun _ -> ());
    lock = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let unlink e =
  e.newer.older <- e.older;
  e.older.newer <- e.newer

let push_newest t e =
  e.older <- t.ring.older;
  e.newer <- t.ring;
  t.ring.older.newer <- e;
  t.ring.older <- e

let refresh t e =
  unlink e;
  push_newest t e

let drop t e =
  unlink e;
  Hashtbl.remove t.entries e.key

(** Lookup that counts a hit or miss and refreshes recency.  A disabled
    cache misses every lookup, and counts it. *)
let find t key =
  locked t @@ fun () ->
  match if t.enabled then Hashtbl.find_opt t.entries key else None with
  | Some e ->
      refresh t e;
      t.hits <- t.hits + 1;
      e.value
  | None ->
      t.misses <- t.misses + 1;
      None

(** Lookup without touching recency or counters — for callers that
    validate the entry before deciding whether it was really a hit
    (the result cache's version check). *)
let peek t key =
  if not t.enabled then None
  else
    locked t @@ fun () ->
    Option.bind (Hashtbl.find_opt t.entries key) (fun e -> e.value)

let touch t key =
  locked t @@ fun () -> Option.iter (refresh t) (Hashtbl.find_opt t.entries key)

let evict_lru t =
  let e = t.ring.newer in
  if e != t.ring then begin
    drop t e;
    t.evictions <- t.evictions + 1;
    t.on_evict e.key
  end

(** Remember [value] under [key], evicting the least-recently-used entry
    when the cache is full.  Replacing an existing key never evicts. *)
let add t key value =
  if t.enabled then
    locked t @@ fun () ->
    match Hashtbl.find_opt t.entries key with
    | Some e ->
        e.value <- Some value;
        refresh t e
    | None ->
        if Hashtbl.length t.entries >= t.capacity then evict_lru t;
        let e = { key; value = Some value; newer = t.ring; older = t.ring } in
        Hashtbl.replace t.entries key e;
        push_newest t e

let remove t key =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.entries key with
  | Some e ->
      drop t e;
      true
  | None -> false

(** [remove_if t p] drops every entry satisfying [p key value]; returns
    how many were dropped.  This is the invalidation primitive — these
    removals are {e not} counted as evictions. *)
let remove_if t p =
  locked t @@ fun () ->
  let victims =
    Hashtbl.fold
      (fun _ e acc ->
        match e.value with Some v when p e.key v -> e :: acc | _ -> acc)
      t.entries []
  in
  List.iter (drop t) victims;
  List.length victims

let size t = locked t @@ fun () -> Hashtbl.length t.entries
let clear t =
  locked t @@ fun () ->
  Hashtbl.reset t.entries;
  t.ring.newer <- t.ring;
  t.ring.older <- t.ring
let set_enabled t b = t.enabled <- b
let enabled t = t.enabled
let capacity t = t.capacity
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
let set_on_evict t f = t.on_evict <- f

(** One cache's counters and bounds — the shape every cache section of
    [/cachez] and the shell's [:cache stats] prints. *)
type stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  capacity : int;
  enabled : bool;
}

let stats (t : _ t) =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    size = size t;
    capacity = t.capacity;
    enabled = t.enabled;
  }
