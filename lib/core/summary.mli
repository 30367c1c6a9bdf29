(** EntropyDB summaries: build once offline, answer linear queries in
    expectation forever after.

    This is the library's primary public API, covering Secs. 3–4 of the
    paper plus the closed-form variance sketched in its Sec. 7.

    A summary is k ≥ 1 solved {e parts}: one for a single build, k for a
    relation partitioned into k disjoint row sets and solved part by
    part ({!Edb_shard.Builder}).  Every estimator folds over the parts
    and combines exactly — expectations add by linearity of expectation,
    variances add by independence of the per-part models — left to
    right from [0.], so answers are deterministic and, at k = 1, bitwise
    the single part's.  Each part evaluation ticks the [shard.evals]
    registry counter and, when tracing, opens one ["shard.eval"]
    span. *)

open Edb_storage

type t

val build :
  ?solver_config:Solver.config ->
  ?term_cap:int ->
  ?on_sweep:(Solver.sweep_stat -> unit) ->
  Relation.t ->
  joints:Predicate.t list ->
  t
(** [build rel ~joints] computes Φ (complete marginals + the given
    multi-dimensional range statistics), compresses the polynomial, and
    solves for the MaxEnt parameters.  Raises like {!Phi.of_relation} and
    {!Poly.create}. *)

val of_phi :
  ?solver_config:Solver.config ->
  ?term_cap:int ->
  ?init:float array ->
  ?on_sweep:(Solver.sweep_stat -> unit) ->
  Phi.t ->
  t
(** Build from a pre-computed statistic set (used by tests, callers that
    tweak targets, and the incremental-ingest path).  [init] warm-starts
    the solve, see {!Solver.solve}. *)

val of_solved_poly :
  ?journal:Journal.t -> poly:Poly.t -> report:Solver.report -> unit -> t
(** Wrap an already-solved polynomial (deserialization and ingest paths);
    does not re-solve.  [journal] defaults to a fresh base journal of the
    polynomial's cardinality. *)

(** {1 Parts} *)

val of_parts : ?strategy:string -> t array -> t
(** The summary of a disjoint union: the given summaries' parts, in
    order (part order is significant: it is the summation order).
    [strategy] is a provenance tag, default ["rows"].  Raises
    [Invalid_argument] on an empty array or a schema mismatch. *)

val parts : t -> t array
(** One one-part summary per part, in part order. *)

val num_parts : t -> int

val strategy : t -> string
(** ["flat"] for a single build, ["rows"] or ["attr:<name>"] for a
    partitioned one ({!of_parts}). *)

val schema : t -> Schema.t

val cardinality : t -> int
(** n, the cardinality of the summarized relation (summed over parts). *)

val poly : t -> Poly.t
val solver_report : t -> Solver.report

val journal : t -> Journal.t
(** The summary's lineage: base build plus every ingested batch.  For a
    summary maintained through {!Edb_ingest.Ingest},
    [Journal.total_rows (journal t) = cardinality t]. *)

val with_journal : t -> Journal.t -> t
(** Replace the lineage record (used by the ingest path).

    [poly], [solver_report], [journal] and [with_journal] name the one
    polynomial of a one-part summary; they raise [Invalid_argument] when
    the summary has more parts. *)

val read_only : t -> bool
(** Whether every part answers from tables lent by storage — a format-v3
    file opened with {!Mapped.open_file}.  Such a summary answers every
    query exactly like the summary that wrote it, but cannot be
    re-solved in place. *)

val verify : t -> unit
(** Check the integrity of lent tables now (a v3 file's section
    checksums) instead of before the first answer; a no-op for a summary
    built or heap-loaded in memory.  Raises {!Serialize.Format_error}
    naming the first corrupt section. *)

val release_pages : t -> unit
(** Give the pages a {!read_only} summary holds resident back to the
    operating system; it keeps answering, faulting pages in again from
    its file as it reads them.  A no-op for other summaries.  The
    catalog calls it on eviction, so an evicted mapped summary holds no
    memory while the GC has yet to collect it. *)

(** {1 Estimators} *)

val estimate : t -> Predicate.t -> float
(** E[⟨q,I⟩] for a conjunctive counting query — Sec. 4.2's zeroing formula;
    typically sub-millisecond. *)

val estimate_rounded : t -> Predicate.t -> float
(** [estimate], with values below 0.5 rounded to 0 (the paper's policy for
    separating rare from nonexistent values). *)

val variance : t -> Predicate.t -> float
(** Var[⟨q,I⟩] = n·p·(1−p) with p = P\[zeroed\]/P, from the multinomial view
    of the fixed-cardinality MaxEnt model. *)

val stddev : t -> Predicate.t -> float

val estimate_with_variance : t -> Predicate.t -> float * float
(** Both moments from a single restricted evaluation per part.  The first
    component is bitwise-identical to {!estimate}; the second equals
    {!variance} (except that an unsatisfiable query reports exactly
    [(0., 0.)]). *)

val estimate_sum :
  t -> attr:int -> ?weights:(int -> float) -> Predicate.t -> float
(** E[SUM(attr)] under the predicate, as a weighted linear query; weights
    default to bin midpoints ({!Edb_storage.Domain.bin_midpoint}, raises
    on categorical attributes). *)

val estimate_avg : t -> attr:int -> Predicate.t -> float option
(** E[SUM]/E[COUNT]; [None] when the expected count is 0. *)

val variance_sum :
  t -> attr:int -> ?weights:(int -> float) -> Predicate.t -> float
(** Var[SUM(attr)] under the multinomial view:
    n·(E\[w²\] − E\[w\]²) over the per-draw weight distribution. *)

val estimate_disjuncts : t -> Predicate.t list -> float
(** Inclusion–exclusion COUNT over a disjunction of conjunctive
    predicates; raises like {!Disjunction.estimate}. *)

val variance_disjuncts : t -> Predicate.t list -> float
(** n·p·(1−p) per part, with p = {!Disjunction.probability}. *)

val stddev_disjuncts : t -> Predicate.t list -> float

val estimate_groups :
  t -> attrs:int list -> Predicate.t -> (int list * float) list
(** GROUP BY estimate: one cell per combination of the grouping
    attributes' values (restricted by the query's predicate), in
    ascending group-key order.  The widest grouping attribute is
    answered by the batched kernel {!Poly.eval_restricted_by_value} —
    one term pass for all of its values — instead of one full scan per
    cell.  Parts are evaluated concurrently on OCaml 5 domains and
    merged in part order; at k = 1 the part's cells are returned
    untouched. *)

val estimate_groups_with_variance :
  t -> attrs:int list -> Predicate.t -> (int list * float * float) list
(** [estimate_groups] plus each cell's Var[⟨q,I⟩] = n·p·(1−p): the
    kernel yields every cell's restricted P, so the binomial p (and
    hence the variance) costs nothing extra. *)

val estimate_groups_with_stddev :
  t -> attrs:int list -> Predicate.t -> (int list * float * float) list
(** [estimate_groups_with_variance] with the variance replaced by its
    square root. *)

(** {1 Size} *)

type size_report = {
  num_statistics : int;
  num_marginals : int;
  num_terms : int;
  num_groups : int;
  uncompressed_monomials : float;
}

val size_report : t -> size_report
(** Summed over parts. *)

val pp_size_report : Format.formatter -> size_report -> unit

val footprint_bytes : t -> int
(** What the summary charges a byte-budgeted catalog
    ({!Poly.footprint_bytes}, summed over parts): the estimated heap
    size of its kernel tables, or the mapped file's size for a
    {!read_only} summary. *)
