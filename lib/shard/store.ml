(* Transparent persistence for sharded summaries.

   Save always writes the manifest format (Core.Serialize.save_sharded),
   even at k = 1, so the partitioning strategy survives round trips.
   Load sniffs the magic: flat files come back as a single-shard view,
   manifests as the full shard group, and mmap-able v3 files as a heap
   rebuild — callers never need to know which format a path holds.

   [open_any] is the residency-aware entry the server catalog uses: a v3
   file opens zero-copy (O(1), no body read) as a read-only summary,
   everything else loads into the heap; either way the result is one
   [Sharded.t]. *)

open Entropydb_core

let save sharded path =
  Serialize.save_sharded ~strategy:(Sharded.strategy sharded)
    (Sharded.shards sharded) path

let load ?term_cap path =
  match Serialize.detect path with
  | Serialize.Flat | Serialize.MappedV3 ->
      Sharded.of_flat (Serialize.load ?term_cap path)
  | Serialize.Sharded ->
      let strategy, shards = Serialize.load_sharded ?term_cap path in
      Sharded.create ~strategy shards

let open_any ?term_cap path =
  match Serialize.detect path with
  | Serialize.MappedV3 -> Sharded.of_flat (Mapped.open_file path)
  | Serialize.Flat | Serialize.Sharded -> load ?term_cap path
