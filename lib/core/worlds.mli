(** Possible-world sampling from a solved summary.

    Draws tuples from Pr(u) = monomial_u / P: free attributes exactly from
    their marginal variables, statistic groups by within-group Gibbs
    sampling.  Materializing n draws yields a synthetic instance matching
    the summary's statistics in expectation. *)

open Edb_util
open Edb_storage

type t

val create : Summary.t -> t
(** Raises [Invalid_argument] on a summary of more than one part
    ({!Summary.poly}): a world is drawn from one solved model. *)

val sample_tuple : ?sweeps:int -> t -> Prng.t -> int array
(** One tuple (value indices per attribute).  [sweeps] (default 8) is the
    number of Gibbs passes per statistic group. *)

val sample_instance : ?sweeps:int -> ?rows:int -> t -> Prng.t -> Relation.t
(** A possible world; [rows] defaults to the summarized relation's
    cardinality. *)
