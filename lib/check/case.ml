open Edb_storage
open Entropydb_core

type t = {
  spec : Gen.spec;
  rel : Relation.t;
  joints : Predicate.t list;
  summary : Summary.t;
  sharded : Summary.t;
  queries : Predicate.t list;
}

let quiet = { Solver.default_config with log_every = 0 }

let build (spec : Gen.spec) =
  let mode =
    match spec.Gen.mode with
    | Gen.Product -> Edb_datagen.Synthetic.Product
    | Gen.Mixture -> Edb_datagen.Synthetic.Mixture 2
  in
  (* An offset seed keeps the data stream distinct from the spec-field
     stream, which consumed the raw seed already. *)
  let rel =
    Edb_datagen.Synthetic.generate ~sizes:spec.sizes ~rows:spec.rows ~mode
      ~seed:(spec.seed + 7919)
  in
  let schema = Relation.schema rel in
  let joints = Gen.joints spec schema in
  let summary = Summary.build ~solver_config:quiet rel ~joints in
  let sharded =
    if spec.shards = 1 then summary
    else begin
      let strategy =
        match spec.shard_by with
        | `Rows -> Edb_shard.Partition.Rows
        | `Attr i -> Edb_shard.Partition.By_attr i
      in
      Edb_shard.Builder.build ~solver_config:quiet rel ~shards:spec.shards
        ~strategy ~joints
    end
  in
  let queries = Gen.queries spec schema in
  { spec; rel; joints; summary; sharded; queries }
