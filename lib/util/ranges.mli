(** Sets of integers represented as sorted disjoint inclusive intervals.

    Used throughout EntropyDB for sets of domain value indices: statistic
    projections, query restrictions, and per-attribute polynomial factors.
    Binary operations are linear merges over the interval arrays. *)

type t = private (int * int) array
(** The sorted disjoint inclusive intervals [(lo, hi)], exposed read-only
    so a hot loop (the polynomial kernel) can read them in place, without
    a call or a bounds check per read.  Build values only through this
    module, which keeps them sorted and coalesced. *)

val empty : t
val is_empty : t -> bool

val interval : int -> int -> t
(** [interval lo hi] is the inclusive range.  Raises if [hi < lo]. *)

val singleton : int -> t

val of_intervals : (int * int) list -> t
(** Normalizes: drops empty pairs, sorts, coalesces overlapping and adjacent
    intervals. *)

val of_list : int list -> t
val mem : int -> t -> bool
val cardinal : t -> int

val min_elt : t -> int
(** Raises [Invalid_argument] on the empty set. *)

val max_elt : t -> int
val inter : t -> t -> t
val union : t -> t -> t

val diff : t -> t -> t
(** [diff a b] is [a \ b]. *)

val complement : size:int -> t -> t
(** Complement within the universe [\[0, size)]. *)

val disjoint : t -> t -> bool
val subset : t -> t -> bool
val equal : t -> t -> bool
val iter : (int -> unit) -> t -> unit
val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
val to_list : t -> int list

val intervals : t -> (int * int) list
(** The underlying sorted disjoint inclusive intervals. *)

val num_intervals : t -> int

val interval_lo : t -> int -> int
(** [interval_lo r k] is the lower bound of the [k]-th interval (0-based,
    ascending).  Together with {!interval_hi} this gives indexed access
    without materializing the {!intervals} list — hot loops (the
    polynomial kernel) walk intervals allocation-free. *)

val interval_hi : t -> int -> int
val pp : Format.formatter -> t -> unit
