(** Disjunctions of conjunctive counting queries, answered by
    inclusion–exclusion over one polynomial's primitive estimates.
    {!Summary.estimate_disjuncts} and {!Summary.variance_disjuncts} run
    it per part. *)

open Edb_storage

val max_disjuncts : int
(** Hard cap (10) on the number of disjuncts: inclusion–exclusion is
    exponential in it. *)

val estimate : Poly.t -> Predicate.t list -> float
(** E[⟨π₁ ∨ … ∨ π_d, I⟩] under one solved polynomial.  Raises
    [Invalid_argument] on an empty disjunction or more than
    {!max_disjuncts} disjuncts, and like {!Poly.verify} on a corrupt
    mapped polynomial even when every intersection is pruned.
    Unsatisfiable intersections are pruned with their supersets. *)

val probability : Poly.t -> Predicate.t list -> float
(** Pr[a model tuple satisfies the disjunction], clamped to [\[0, 1\]]. *)
