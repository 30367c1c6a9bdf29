(** Horizontal partitioning of a relation into k disjoint shards whose
    union is the input (a partition in the set-theoretic sense), ahead of
    per-shard MaxEnt summarization. *)

open Edb_storage

type strategy =
  | Rows  (** contiguous row ranges of near-equal size *)
  | By_attr of int
      (** hash of the given attribute's value index: all rows sharing a
          value land in the same shard *)

val strategy_tag : Schema.t -> strategy -> string
(** Human-readable tag stored in a partitioned summary's file: ["rows"] or
    ["attr:<name>"]. *)

val shard_of_value : shards:int -> int -> int
(** The deterministic value-to-shard assignment used by {!By_attr}
    (exposed for tests and for routing updates to the owning shard). *)

val split : Relation.t -> shards:int -> strategy -> Relation.t array
(** [split rel ~shards strategy] returns exactly [shards] relations over
    [rel]'s schema; disjoint, covering, and in deterministic order (row
    order is preserved within each shard).  Shards may be empty when
    [shards] exceeds the cardinality or the hash leaves a bucket bare.
    Raises [Invalid_argument] on [shards < 1] or an out-of-range
    attribute. *)
