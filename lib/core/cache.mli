(** LRU cache in front of a summary's estimators — repeat queries from
    interactive front ends become hash lookups.  Keys are canonical
    predicate forms tagged by query shape (plain COUNT vs GROUP BY with
    its grouping attributes), so grouped and scalar results over the
    same predicate never collide; eviction drops the least-recent ~10%
    when capacity is reached.

    Thread-safe: lookups, inserts, and counters are mutex-guarded, so one
    cache may be shared by concurrent server workers.  The underlying
    summary evaluation runs outside the lock. *)

open Edb_storage

type t

val create : ?capacity:int -> Summary.t -> t
(** Default capacity 4096 entries.  Raises on non-positive capacities.
    Serves {!count}, {!estimate} and {!estimate_groups}. *)

val count : t -> Predicate.t -> Summary.answer
(** Same answer as {!Summary.count}, both moments; cached, so a repeated
    COUNT evaluates nothing. *)

val estimate : t -> Predicate.t -> float
(** [(count t q).est]. *)

val estimate_groups :
  t -> attrs:int list -> Predicate.t -> (int list * float * float) list
(** {!Summary.groups} as [(key, estimate, stddev)] cells; cached under a
    key combining the grouping attributes with the canonical predicate. *)

type stats = { hits : int; misses : int; entries : int; evictions : int }

val stats : t -> stats
val clear : t -> unit
