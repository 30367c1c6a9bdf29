(* Streaming ingest: append a batch of rows to an existing summary
   without a full rebuild (the maintenance problem the paper's Sec. 7
   leaves open).

   Two observations make this cheap:

   1. Every statistic target is a count, so the sufficient statistics of
      I ⊎ B are s_j(I) + s_j(B): Phi.append recounts only the batch
      (O(|B|) histograms + per-joint batch counts), never the base data —
      which may no longer exist.

   2. A batch perturbs the targets by at most |B|/n in relative terms, so
      the previous converged α is an excellent starting point for the new
      MaxEnt problem.  Solver.solve ~init warm-starts coordinate descent
      from it and typically reaches tolerance in a handful of sweeps
      where a cold start needs tens (the `bench ingest` experiment
      measures exactly this, via the solver's on_sweep telemetry).

   The summary's Journal records the lineage (base build + every batch),
   is persisted in the summary file's manifest, and is audited here:
   after every append, Journal.total_rows must equal the summary's
   cardinality. *)

open Edb_storage
open Entropydb_core
module R = Edb_obs.Registry

(* ingest_* metrics: surfaced by server STATS / `entropydb stats` as
   obs_ingest_* lines alongside every other engine metric. *)
let m_batches = R.counter "ingest_batches"
let m_rows = R.counter "ingest_rows"
let m_sweeps_warm = R.counter "ingest_sweeps_warm"
let m_append_latency = R.histogram "ingest_append"

type stats = {
  batch_rows : int;
  cardinality : int;  (* after the append *)
  sweeps : int;  (* warm-started re-solve sweeps *)
  converged : bool;
  seconds : float;  (* whole append: delta-Φ + rebuild + re-solve *)
}

let append_with_stats ?(solver_config = Solver.default_config) ?term_cap
    ?(source = "batch") ?on_sweep summary batch =
  if Stdlib.compare (Relation.schema batch) (Summary.schema summary) <> 0 then
    invalid_arg "Ingest.append: batch schema differs from the summary's";
  let t0 = Edb_util.Timing.now_s () in
  Edb_obs.Obs.with_span "ingest.append" ~cat:"ingest"
    ~attrs:(fun () ->
      [
        ("batch_rows", string_of_int (Relation.cardinality batch));
        ("source", source);
      ])
  @@ fun () ->
  let phi = Phi.append (Poly.phi (Summary.poly summary)) batch in
  (* Warm start from the previous optimum.  Structure is unchanged, so
     the old α vector indexes the new polynomial's variables directly. *)
  let init = Poly.alphas (Summary.poly summary) in
  let poly = Poly.create ?term_cap phi in
  let report = Solver.solve ~config:solver_config ~init ?on_sweep poly in
  let journal =
    Journal.append (Summary.journal summary)
      {
        Journal.rows = Relation.cardinality batch;
        source;
        sweeps = report.Solver.sweeps;
        warm = true;
      }
  in
  let summary' = Summary.of_solved_poly ~journal ~poly ~report () in
  (* Lineage audit: the journal and the model must agree on n. *)
  assert (Journal.total_rows journal = Summary.cardinality summary');
  let seconds = Edb_util.Timing.now_s () -. t0 in
  R.Counter.incr m_batches;
  R.Counter.add m_rows (Relation.cardinality batch);
  R.Counter.add m_sweeps_warm report.Solver.sweeps;
  R.Hist.observe m_append_latency seconds;
  ( summary',
    {
      batch_rows = Relation.cardinality batch;
      cardinality = Summary.cardinality summary';
      sweeps = report.Solver.sweeps;
      converged = report.Solver.converged;
      seconds;
    } )

let append ?solver_config ?term_cap ?source ?on_sweep summary batch =
  fst
    (append_with_stats ?solver_config ?term_cap ?source ?on_sweep summary
       batch)

(* Replay a journal's worth of batches over a base relation — the
   restart/recovery path: rebuild the base summary, then re-apply each
   batch in order.  Equivalent (within solver tolerance) to the summary
   the original ingest sequence produced. *)
let replay ?solver_config ?term_cap ~joints base batches =
  let s0 = Summary.build ?solver_config ?term_cap base ~joints in
  List.fold_left
    (fun s (source, batch) ->
      append ?solver_config ?term_cap ~source s batch)
    s0 batches

(* Atomic on-disk refresh: write next to the target, fsync-free rename
   over it (atomic on POSIX), so a concurrent reader sees either the old
   file or the new one, never a torn write — and a reader that mapped
   the old file keeps its inode. *)
let save_atomic summary path =
  let tmp =
    Filename.temp_file
      ~temp_dir:(Filename.dirname path)
      (Filename.basename path) ".ingest-tmp"
  in
  match Serialize.save summary tmp with
  | () -> Sys.rename tmp path
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

let upgrade src dst = save_atomic (Legacy.load src) dst

(* A crash between the temp write and the rename strands a temp file.
   They are harmless (never read by any loader) but accumulate; these
   helpers let operators — and the crash-safety tests — find and sweep
   them. *)
let orphan_temps ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter (fun n -> Filename.check_suffix n ".ingest-tmp")
      |> List.map (Filename.concat dir)
      |> List.sort compare

let clean_orphans ~dir =
  List.fold_left
    (fun n p ->
      match Sys.remove p with () -> n + 1 | exception Sys_error _ -> n)
    0 (orphan_temps ~dir)
