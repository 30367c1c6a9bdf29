(** Streaming ingest & incremental summary maintenance.

    Appending a batch to a summarized relation only moves the statistic
    targets by the batch's own counts (s_j(I ⊎ B) = s_j(I) + s_j(B)), so
    maintenance is: delta-update Φ from the batch alone ({!Phi.append},
    O(|batch|)), then re-solve warm-started from the previous converged α
    ({!Solver.solve}[ ~init]) — a handful of sweeps instead of a cold
    start's tens.  The base data is never touched and need not exist.

    Every append extends the summary's {!Journal} (persisted in the
    summary file, Serialize v2) and bumps the [ingest_*] metrics in
    {!Edb_obs.Registry}. *)

open Edb_storage
open Entropydb_core

type stats = {
  batch_rows : int;
  cardinality : int;  (** summary cardinality after the append *)
  sweeps : int;  (** warm-started re-solve sweeps to tolerance *)
  converged : bool;
  seconds : float;  (** whole append: delta-Φ + rebuild + re-solve *)
}

val append :
  ?solver_config:Solver.config ->
  ?term_cap:int ->
  ?source:string ->
  ?on_sweep:(Solver.sweep_stat -> unit) ->
  Summary.t ->
  Relation.t ->
  Summary.t
(** [append summary batch] is the summary of the union relation: same
    statistic structure, targets grown by the batch's counts, model
    re-solved warm-started from [summary]'s α.  [source] tags the journal
    entry (default ["batch"]).  Raises [Invalid_argument] if the batch's
    schema differs from the summary's, or if the summary has more than
    one part ({!Summary.poly}). *)

val append_with_stats :
  ?solver_config:Solver.config ->
  ?term_cap:int ->
  ?source:string ->
  ?on_sweep:(Solver.sweep_stat -> unit) ->
  Summary.t ->
  Relation.t ->
  Summary.t * stats
(** [append] plus the append's cost telemetry. *)

val replay :
  ?solver_config:Solver.config ->
  ?term_cap:int ->
  joints:Predicate.t list ->
  Relation.t ->
  (string * Relation.t) list ->
  Summary.t
(** Recovery path: rebuild the base summary, then re-apply the journaled
    batches (as [(source, batch)] pairs) in order.  Within solver
    tolerance of the summary the original ingest sequence produced. *)

val save_atomic : ?like:string -> Summary.t -> string -> unit
(** Persist via write-to-temp + [rename] in the target's directory, so a
    concurrent reader of [path] sees the old or the new summary, never a
    torn file.  The write format is that of the file [like] (default:
    [path] itself, the file being replaced): a v3 file gives v3;
    anything else — including a missing file — gives the flat format.
    Raises like {!Serialize.save} / {!Serialize.save_v3}. *)

val orphan_temps : dir:string -> string list
(** Temp files ([*.ingest-tmp]) stranded in [dir] by a crash between the
    temp write and the rename, sorted; never read by any loader, safe to
    delete. *)

val clean_orphans : dir:string -> int
(** Remove every {!orphan_temps} file in [dir]; returns how many were
    deleted (files that vanish concurrently are skipped, not errors). *)
