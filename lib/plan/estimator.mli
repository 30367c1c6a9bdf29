(** A uniform estimator surface over the engine's answer machines.

    Every backend — MaxEnt summary (of any number of parts), weighted sample,
    exact scan — answers COUNT, SUM, and GROUP BY with an
    [(estimate, variance)] pair and carries a static cost model, which is
    everything {!Plan.choose} needs to route a query by predicted error
    and predicted work. *)

open Edb_storage

type kind = Summary | Sample | Exact | Combined

val kind_name : kind -> string
(** ["summary"], ["sample"], ["exact"], ["combined"] — stable names used
    in EXPLAIN output and [edb_obs] metric names. *)

type answer = Entropydb_core.Summary.answer = { est : float; var : float }
(** The summary's answer type: every backend returns both moments. *)

type t

val name : t -> string
val kind : t -> kind

val cost_us : t -> float
(** Predicted microseconds for one COUNT under the static cost model:
    summaries pay per polynomial term, samples and exact scans per row.
    Deliberately coarse — only the relative ordering matters for
    routing. *)

val of_summary : ?name:string -> Entropydb_core.Summary.t -> t
(** Closed-form binomial variance (Var = n·p·(1−p)); zero model cost is
    {e not} assumed — the variance is the summary's own uncertainty,
    which is honest exactly when the MaxEnt family contains the data's
    distribution.  Serves every summary the catalog holds, partitioned
    ones (variances add over parts) included. *)

val of_sample : ?name:string -> Edb_sampling.Sample.t -> t
(** Horvitz–Thompson estimates with design-based, finite-population-
    corrected variance ({!Edb_sampling.Sample.estimate_with_variance}). *)

val of_relation : ?name:string -> Relation.t -> t
(** Exact scan: zero variance, cost proportional to rows. *)

val combine : t -> t -> t
(** Inverse-variance-weighted combination of two independent unbiased
    estimators: variance v₁v₂/(v₁+v₂) ≤ min(v₁, v₂); a zero-variance
    component is returned untouched.  Cost is the sum (both run).
    GROUP BY is not combined (group lists from a sample need not align
    with a summary's); [shape_groups] routes to a single estimator. *)

val combine_answers : answer -> answer -> answer
(** The scalar combination rule above, exposed for tests/oracles. *)

(** {2 Shape evaluation} *)

val count : t -> Predicate.t -> answer

val sum : t -> int -> Predicate.t -> answer option
(** [None] when the backend does not support SUM (combined estimators
    whose components both lack it). *)

val groups : t -> int list -> Predicate.t -> (int list * answer) list option
(** [None] for combined estimators. *)
