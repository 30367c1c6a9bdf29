(** Parallel construction of partitioned summaries on OCaml 5 domains. *)

open Edb_storage
open Entropydb_core

val quiet_config : Solver.config
(** {!Entropydb_core.Solver.default_config} with logging disabled — the
    default for multi-domain builds. *)

val build :
  ?solver_config:Solver.config ->
  ?term_cap:int ->
  ?domains:int ->
  Relation.t ->
  shards:int ->
  strategy:Partition.strategy ->
  joints:Predicate.t list ->
  Summary.t
(** [build rel ~shards ~strategy ~joints] partitions [rel] and builds one
    part per shard, [domains] at a time (default: the [EDB_DOMAINS]
    environment variable via
    {!Edb_util.Parallel.default_domains}).  [joints] are the statistic
    predicates shared by every shard; each shard computes its own targets
    from its own rows.  The result is one summary of [shards] parts,
    tagged with {!Partition.strategy_tag}, and is independent of
    [domains].  Raises like {!Partition.split} and
    {!Entropydb_core.Summary.build}. *)
