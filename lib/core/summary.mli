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
    [strategy] is a provenance tag, default ["rows"].  The result is
    an in-memory summary: mark it {!of_file} if its parts answer from
    one mapped file.  Raises [Invalid_argument] on an empty array or a
    schema mismatch. *)

val of_file : bytes:int -> release:(unit -> unit) -> t -> t
(** [t], whose parts all answer from one mapped file of [bytes] bytes:
    {!footprint_bytes} reports [bytes] once, whatever the part count, and
    {!release_pages} runs [release] once ({!Serialize.load}). *)

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
    [Journal.total_rows (journal t) = cardinality t].

    [poly], [solver_report] and [journal] name the one polynomial of a
    one-part summary; they raise [Invalid_argument] when the summary has
    more parts. *)

val read_only : t -> bool
(** Whether every part answers from tables lent by storage — a summary
    file opened with {!Serialize.load}.  Such a summary answers every
    query exactly like the summary that wrote it, but cannot be
    re-solved in place. *)

val verify : t -> unit
(** Check the integrity of lent tables now (a file's section checksums
    and index ranges) instead of before the first answer; a no-op for a
    summary built in memory.  Raises {!Serialize.Format_error} naming
    the first bad section. *)

val release_pages : t -> unit
(** Give the pages a mapped summary ({!of_file}) holds resident back to
    the operating system; it keeps answering, faulting pages in again
    from its file as it reads them.  A no-op for other summaries.  The
    catalog calls it on eviction, so an evicted mapped summary holds no
    memory while the GC has yet to collect it. *)

(** {1 Estimators} *)

type answer = { est : float; var : float }
(** An answer's two moments, E[⟨q,I⟩] and Var[⟨q,I⟩], from one
    evaluation per part.  The variance is the multinomial view's: a
    counting query is Binomial(n, p) with p = P\[zeroed\]/P, so
    Var = n·p·(1−p) from the same restricted evaluation as the
    estimate. *)

val count : t -> Predicate.t -> answer
(** A conjunctive counting query — Sec. 4.2's zeroing formula, one
    restricted evaluation per part; typically sub-millisecond.  An
    unsatisfiable query answers exactly [{ est = 0.; var = 0. }]. *)

val estimate : t -> Predicate.t -> float
(** [(count t q).est]: E[⟨q,I⟩], the paper's answer. *)

val estimate_rounded : t -> Predicate.t -> float
(** [estimate], with values below 0.5 rounded to 0 (the paper's policy for
    separating rare from nonexistent values). *)

val sum : t -> attr:int -> Predicate.t -> answer
(** SUM(attr) under the predicate, as a weighted linear query: each row
    weighs its bin's midpoint ({!Edb_storage.Domain.bin_midpoint}, raises
    on categorical attributes).  Two weighted evaluations per part, over
    w and w²: the estimate is n·E\[w\] and the variance
    n·(E\[w²\] − E\[w\]²) over the per-draw weight distribution.  Each
    is {!count}'s kernel pass over prefix sums of the summed attribute's
    weighted variables ({!Poly.eval_weighted}), with its scratch reuse
    and cancellation clamp.  An unsatisfiable query answers exactly
    [{ est = 0.; var = 0. }] and evaluates nothing, as for {!count}. *)

val estimate_avg : t -> attr:int -> Predicate.t -> float option
(** E[SUM]/E[COUNT] from the count and the w evaluation (no w² pass);
    [None] when the expected count is 0. *)

val count_disjuncts : t -> Predicate.t list -> answer
(** Inclusion–exclusion COUNT over a disjunction of conjunctive
    predicates, from one walk per part over the intersections
    ({!Disjunction.count}); the variance is n·p·(1−p) with p the
    probability of the union.  Raises like {!Disjunction.count}. *)

val groups : t -> attrs:int list -> Predicate.t -> (int list * answer) list
(** GROUP BY: one cell per combination of the grouping attributes'
    values (restricted by the query's predicate), in ascending group-key
    order, each with both moments.  The widest grouping attribute is
    answered by the batched kernel {!Poly.eval_restricted_by_value} —
    one term pass for all of its values — instead of one full scan per
    cell, and each cell's restricted P yields its binomial variance for
    free.  Parts are evaluated in part order on the calling domain and
    merged left to right; at k = 1 the part's cells are returned
    untouched. *)

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
(** What the summary charges a byte-budgeted catalog: the size of the
    file it is mapped from ({!of_file}), counted once; 0 for a summary
    built in memory. *)
