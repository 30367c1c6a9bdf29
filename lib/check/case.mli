(** A materialized harness case: the spec's relation, its summaries on
    every build path, and its query workload. *)

open Edb_storage
open Entropydb_core

type t = {
  spec : Gen.spec;
  rel : Relation.t;
  joints : Predicate.t list;
  summary : Summary.t;  (** flat build *)
  sharded : Summary.t;
      (** the spec's shard count/strategy ([summary] itself at k = 1) *)
  queries : Predicate.t list;
}

val quiet : Solver.config
(** The default solver config with logging off. *)

val build : Gen.spec -> t
(** Deterministic in the spec.  Raises whatever the underlying builders
    raise; {!Oracle.run} converts that into a finding. *)
