(** Generic bounded LRU table — logical-tick recency, linear-scan
    eviction, an internal mutex — and the only one: the plan cache (module
    and ad-hoc plans), the result cache and the idempotency cache all keep
    their entries here.

    The linear eviction scan is deliberate: at the capacities involved
    (hundreds to a few thousand entries) it costs microseconds, only runs
    once the cache is full, and needs no auxiliary ordering structure that
    every hit would have to maintain. *)

type 'a entry = { value : 'a; mutable last_used : int }

type 'a t = {
  mutable enabled : bool;
  capacity : int;
  entries : (string, 'a entry) Hashtbl.t;
  mutable tick : int;  (** logical time for LRU recency *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable on_evict : string -> unit;
      (** fired (inside the lock) for every capacity eviction — cache
          layers hook their eviction metrics here *)
  lock : Mutex.t;
}

let create ?(enabled = true) ?(capacity = 256) () =
  {
    enabled;
    capacity = max 1 capacity;
    entries = Hashtbl.create 64;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    on_evict = (fun _ -> ());
    lock = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(** Lookup that counts a hit or miss and refreshes recency.  A disabled
    cache misses every lookup, and counts it. *)
let find t key =
  locked t @@ fun () ->
  match if t.enabled then Hashtbl.find_opt t.entries key else None with
  | Some e ->
      t.tick <- t.tick + 1;
      e.last_used <- t.tick;
      t.hits <- t.hits + 1;
      Some e.value
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
    Option.map (fun e -> e.value) (Hashtbl.find_opt t.entries key)

let touch t key =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.entries key with
  | Some e ->
      t.tick <- t.tick + 1;
      e.last_used <- t.tick
  | None -> ()

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key e acc ->
        match acc with
        | Some (_, best) when best.last_used <= e.last_used -> acc
        | _ -> Some (key, e))
      t.entries None
  in
  match victim with
  | Some (key, _) ->
      Hashtbl.remove t.entries key;
      t.evictions <- t.evictions + 1;
      t.on_evict key
  | None -> ()

(** Remember [value] under [key], evicting the least-recently-used entry
    when the cache is full.  Replacing an existing key never evicts. *)
let add t key value =
  if t.enabled then
    locked t @@ fun () ->
    if (not (Hashtbl.mem t.entries key)) && Hashtbl.length t.entries >= t.capacity
    then evict_lru t;
    t.tick <- t.tick + 1;
    Hashtbl.replace t.entries key { value; last_used = t.tick }

let remove t key =
  locked t @@ fun () ->
  if Hashtbl.mem t.entries key then (
    Hashtbl.remove t.entries key;
    true)
  else false

(** [remove_if t p] drops every entry satisfying [p key value]; returns
    how many were dropped.  This is the invalidation primitive — these
    removals are {e not} counted as evictions. *)
let remove_if t p =
  locked t @@ fun () ->
  let victims =
    Hashtbl.fold
      (fun key e acc -> if p key e.value then key :: acc else acc)
      t.entries []
  in
  List.iter (Hashtbl.remove t.entries) victims;
  List.length victims

let size t = locked t @@ fun () -> Hashtbl.length t.entries
let clear t = locked t @@ fun () -> Hashtbl.reset t.entries
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
