(** Rendering of planner decisions for EXPLAIN surfaces. *)

val lines : ?truth:float -> Plan.decision -> string list
(** Compact single-line records for the wire protocol: a [plan target]
    line, one [plan candidate] line per candidate (with estimate, sd,
    half-width, threshold, and — when ground truth is known — observed
    absolute error), and a final [plan route] line naming the chosen
    estimator and the reason.  Without [truth], the ground truth is the
    answer of the decision's evaluated exact, non-grouped candidate, if
    it has one. *)

val table : ?truth:float -> Plan.decision -> Edb_util.Table.t
(** The human candidate table ([entropydb explain]); the chosen route's
    row is marked with [*].  Ground truth as in {!lines}. *)
