(* Query-result caching for interactive exploration.

   Exploration front ends re-issue the same counting queries constantly
   (every brushing interaction re-renders the same group-bys).  Estimates
   are pure functions of the solved summary, so a small LRU in front of
   the polynomial evaluation turns repeat queries into hash lookups.

   Keys are the canonical form of the predicate (restricted attributes
   with their interval lists), tagged by query shape: plain COUNTs and
   GROUP BYs live in the same table under distinct constructors, so a
   grouped result can never collide with a scalar one over the same
   predicate.  Eviction is batched: when the table exceeds capacity, the
   least recently used ~10% of entries are dropped in one sweep, keeping
   bookkeeping O(1) per query.

   A cache is shared by all worker threads serving one catalog entry
   (lib/server), so every operation that touches the table or the
   counters runs under the cache's mutex.  The summary evaluation on a
   miss happens outside the lock: concurrent misses on the same key both
   evaluate (the value is deterministic, so last-write-wins is safe) and
   the lock is never held across polynomial work. *)

open Edb_storage

type pred_key = (int * (int * int) list) list
type key = Count of pred_key | Grouped of int list * pred_key
(* A COUNT holds both moments of its answer; a GROUP BY holds its cells
   as (key, estimate, stddev), converted once when the entry fills. *)
type result =
  | Answer of Summary.answer
  | Cells of (int list * float * float) list

type entry = { value : result; mutable last_used : int }

type t = {
  summary : Summary.t;
  capacity : int;
  table : (key, entry) Hashtbl.t;
  lock : Mutex.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

(* The table starts small and grows with use: the server builds a cache
   on every catalog (re)open, and [capacity] only bounds eviction. *)
let create ?(capacity = 4096) summary =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be positive";
  {
    summary;
    capacity;
    table = Hashtbl.create 16;
    lock = Mutex.create ();
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Process-wide registry counters, summed over every cache instance;
   per-instance accounting stays in [stats].  The obs oracle checks
   hits + misses = lookups after any interleaving. *)
let lookups_c = Edb_obs.Registry.counter "cache.lookups"
let hits_c = Edb_obs.Registry.counter "cache.hits"
let misses_c = Edb_obs.Registry.counter "cache.misses"
let evictions_c = Edb_obs.Registry.counter "cache.evictions"

let key_of_predicate pred : pred_key =
  List.map
    (fun i ->
      match Predicate.restriction pred i with
      | Some r -> (i, Edb_util.Ranges.intervals r)
      | None -> assert false)
    (Predicate.restricted_attrs pred)

(* Caller holds the lock. *)
let evict t =
  (* Drop the oldest ~10% by last_used.  Ticks are unique, so sorting on
     the int alone is total — no need to drag the (structurally large)
     keys through the comparator. *)
  let entries =
    Hashtbl.fold (fun k e acc -> (e.last_used, k) :: acc) t.table []
  in
  let sorted = List.sort (fun (a, _) (b, _) -> Int.compare a b) entries in
  let to_drop = max 1 (t.capacity / 10) in
  List.iteri
    (fun i (_, k) ->
      if i < to_drop then begin
        Hashtbl.remove t.table k;
        t.evictions <- t.evictions + 1;
        Edb_obs.Registry.Counter.incr evictions_c
      end)
    sorted

(* Shared LRU protocol: locked lookup, evaluation outside the lock on a
   miss, locked insert-with-evict. *)
let cached t key compute =
  Edb_obs.Registry.Counter.incr lookups_c;
  let cached =
    with_lock t (fun () ->
        t.tick <- t.tick + 1;
        match Hashtbl.find_opt t.table key with
        | Some entry ->
            entry.last_used <- t.tick;
            t.hits <- t.hits + 1;
            Edb_obs.Registry.Counter.incr hits_c;
            Some entry.value
        | None ->
            t.misses <- t.misses + 1;
            Edb_obs.Registry.Counter.incr misses_c;
            None)
  in
  match cached with
  | Some value -> value
  | None ->
      let value = compute () in
      with_lock t (fun () ->
          if
            (not (Hashtbl.mem t.table key))
            && Hashtbl.length t.table >= t.capacity
          then evict t;
          Hashtbl.replace t.table key { value; last_used = t.tick });
      value

let count t pred =
  match
    cached t (Count (key_of_predicate pred)) (fun () ->
        Answer (Summary.count t.summary pred))
  with
  | Answer a -> a
  | Cells _ -> assert false (* Count keys only ever hold answers *)

let estimate t pred = (count t pred).est

let estimate_groups t ~attrs pred =
  match
    cached t (Grouped (attrs, key_of_predicate pred)) (fun () ->
        Cells
          (List.map
             (fun (key, (a : Summary.answer)) -> (key, a.est, sqrt a.var))
             (Summary.groups t.summary ~attrs pred)))
  with
  | Cells g -> g
  | Answer _ -> assert false

type stats = { hits : int; misses : int; entries : int; evictions : int }

let stats (t : t) =
  with_lock t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        entries = Hashtbl.length t.table;
        evictions = t.evictions;
      })

let clear t =
  with_lock t (fun () ->
      Hashtbl.reset t.table;
      t.hits <- 0;
      t.misses <- 0;
      t.evictions <- 0;
      t.tick <- 0)
