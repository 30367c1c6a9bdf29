(* Parallel construction of partitioned summaries.

   Partition once, then build the k per-shard summaries concurrently on
   OCaml 5 domains via Edb_util.Parallel.fold: each chunk of shard
   indices builds its summaries in order, and the per-chunk lists are
   concatenated left to right — list concatenation is exact, so the
   resulting shard order (and therefore every answer) is independent of
   the domain count.  Per-shard builds share nothing mutable: each works
   on its own relation slice, polynomial, and solver state.

   The paper's ~30 coordinate sweeps over one big polynomial are the
   dominant offline cost (Sec. 4.1, Algorithm 1); sharding cuts both the
   per-solve problem size and the wall clock, which is the partitioned/
   parallel summarization the EntropyDB demo paper names as the path to
   larger instances. *)

open Edb_storage
open Entropydb_core

(* Interleaved multi-domain solver logging is useless noise, so builds
   default to a quiet solver config unless the caller overrides. *)
let quiet_config = { Solver.default_config with log_every = 0 }

let build ?(solver_config = quiet_config) ?term_cap ?domains rel ~shards
    ~strategy ~joints =
  let domains =
    match domains with
    | Some d -> max 1 d
    | None -> Edb_util.Parallel.default_domains ()
  in
  let parts = Partition.split rel ~shards strategy in
  let chunk ~lo ~hi =
    List.init (hi - lo) (fun i ->
        Summary.build ~solver_config ?term_cap parts.(lo + i) ~joints)
  in
  let summaries =
    Edb_util.Parallel.fold ~domains ~n:shards ~chunk ~combine:( @ ) ~init:[]
  in
  Summary.of_parts
    ~strategy:(Partition.strategy_tag (Relation.schema rel) strategy)
    (Array.of_list summaries)
