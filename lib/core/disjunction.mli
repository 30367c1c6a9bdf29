(** Disjunctions of conjunctive counting queries, answered by
    inclusion–exclusion over one polynomial's primitive estimates.
    {!Summary.count_disjuncts} runs it per part. *)

open Edb_storage

val max_disjuncts : int
(** Hard cap (10) on the number of disjuncts: inclusion–exclusion is
    exponential in it. *)

val count : Poly.t -> Predicate.t list -> float * float
(** [(E[⟨π₁ ∨ … ∨ π_d, I⟩], Pr[a model tuple satisfies the disjunction])]
    under one solved polynomial, from one walk over the satisfiable
    intersections; the probability is clamped to [\[0, 1\]].  Raises
    [Invalid_argument] on an empty disjunction or more than
    {!max_disjuncts} disjuncts, and like {!Poly.verify} on a corrupt
    mapped polynomial even when every intersection is pruned.
    Unsatisfiable intersections are pruned with their supersets. *)
