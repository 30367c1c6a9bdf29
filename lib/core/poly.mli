(** The compressed factorized MaxEnt polynomial (Eq. 5 / Theorem 4.1).

    P is stored as a product over attribute-connected statistic groups of
    group polynomials, each a sum over compatible sets of joint statistics
    (the paper's J_I), never materializing the one-monomial-per-tuple form.
    All cached quantities are maintained incrementally under
    single-variable updates, which is what Algorithm 1 needs. *)

open Edb_storage

type t

exception Too_many_terms of { cap : int; group_attrs : int list }

val layout : string
(** Name of the in-memory term layout (recorded in BENCH_kernel.json so
    the kernel bench can tell a layout change from a same-layout
    regression). *)

val create : ?term_cap:int -> Phi.t -> t
(** Builds the compressed representation and initializes variables
    (marginals to s_j/n — exact for a marginals-only model — and joints
    to 1, which makes their correction terms vanish initially).  Raises
    {!Too_many_terms} if a group's compatible-set enumeration exceeds
    [term_cap] (default 2,000,000): the statistic budget is too large for
    this attribute topology. *)

val phi : t -> Phi.t
(** The statistic set.  A read-only polynomial rebuilds it on each call
    (O(#statistics)). *)

val schema : t -> Edb_storage.Schema.t

val cardinality : t -> int
(** n, the summarized relation's row count. *)

val p : t -> float
(** Current value of P at the current variable assignment. *)

val alpha : t -> int -> float
(** Value of statistic [j]'s variable. *)

val set_alpha : t -> int -> float -> unit
(** Incremental single-variable update; maintains all cached sums, group
    values, and P in O(terms containing the variable).  This and every
    other update below raise [Invalid_argument] on a read-only
    polynomial ({!of_tables}). *)

val refresh : t -> unit
(** Recompute every cached quantity from the variable vector (washes out
    floating-point drift; the solver calls it once per sweep). *)

val normalize : t -> unit
(** Rescale every attribute's marginal variables so A_i = 1.  Leaves all
    expectations, estimates, and the dual unchanged (overcompleteness
    makes the model scale-invariant per attribute) while pinning P's
    magnitude — numerical hygiene the solver applies once per sweep. *)

val set_alphas : t -> float array -> unit
(** Bulk assignment of the whole variable vector (indexed by stat id),
    followed by a full refresh.  Raises on length mismatch. *)

val alphas : t -> float array
(** Copy of the current variable vector. *)

val reinit : t -> [ `Marginals | `Uniform ] -> unit
(** Reset variables to an initialization strategy: [`Marginals] seeds 1D
    variables at s_j/n, [`Uniform] seeds everything at 1. *)

val partial : t -> int -> float
(** ∂P/∂α_j.  P is multi-linear, so this is exact, not numeric. *)

val expected : t -> int -> float
(** E[⟨c_j, I⟩] = n·α_j·∂P/∂α_j / P  (Eq. 8). *)

val eval_restricted : t -> Predicate.t -> float
(** P with all 1D variables outside the query's restrictions set to 0 —
    the optimized query evaluation of Sec. 4.2, P\[zeroed\] in the
    expected count n·P\[zeroed\]/P ({!Summary.count}).  No rebuilding.
    Groups above 30k terms are evaluated with {!set_parallelism} domains.
    The three evaluators ({!eval_restricted}, {!eval_restricted_by_value}
    and {!eval_weighted}) share one entry: each call counts one
    [poly.evals], reuses the polynomial's scratch block and, when
    tracing, opens one span named after the evaluator. *)

val eval_restricted_by_value : t -> Predicate.t -> attr:int -> float array
(** Batched GROUP BY kernel: element [v] of the result equals
    [eval_restricted t (Predicate.restrict query attr (singleton v))]
    (up to float reassociation, ≤ 1e-9 relative), for {e every} value of
    [attr]'s domain, computed in one pass over the terms instead of one
    scan per value.  Values outside the query's restriction on [attr]
    are 0.  Cost: O(terms + Σ|projection ∩ query| + domain size) —
    independent of the number of group cells.  Same parallelism gating
    as {!eval_restricted}. *)

val eval_restricted_by_value_into :
  t -> Predicate.t -> attr:int -> out:float array -> unit
(** As {!eval_restricted_by_value}, but fills the caller's buffer
    instead of allocating: cells [0 .. domain_size - 1] of [out] are
    (over)written, values outside the query's restriction to 0.  [out]
    must be at least the attribute's domain size (larger is fine; the
    tail is untouched), which lets callers evaluating many cross-product
    cells — [Summary.groups] — reuse one buffer for the whole
    query.  Raises [Invalid_argument] on a too-small buffer. *)

val set_parallelism : ?threshold:int -> int -> unit
(** Worker domains for restricted evaluation over large groups (default:
    the [EDB_DOMAINS] environment variable, else 1).  [threshold] is the
    minimum group term count for parallel evaluation (default 30,000;
    overridable for testing). *)

val set_cancellation_floor : float -> unit
(** Floor of the cancellation clamp applied to restricted group values
    (default 0, the correct value).  Exists solely for fault injection:
    the correctness harness ([entropydb check --mutate clamp]) raises it
    to plant a known estimator bug and assert that the oracle battery
    catches it.  Never set this in production code. *)

val eval_weighted :
  t -> Predicate.t -> weights:(int * (int -> float)) list -> float
(** Sum over tuples satisfying the predicate of
    [Π_i w_i(t_i) · monomial(t)], for product-form weights: [weights]
    maps an attribute to a per-value weight, absent attributes weigh 1.
    Computed by substituting α_{i,v} ↦ α_{i,v}·w_i(v): the pass is
    {!eval_restricted}'s kernel over a per-call copy of the prefix sums
    in which the weighted attributes sum α·w, with each weighted
    attribute the predicate leaves free restricted to its whole domain.
    It therefore shares that kernel's scratch reuse and parallel gate.
    When every weighted variable is non-negative (the SUM/AVG midpoint
    case), each group value gets the same cancellation clamp as
    {!eval_restricted} ({!set_cancellation_floor} included), so tiny
    negative totals cannot flip an estimate's sign; genuinely signed
    weights are left unclamped. *)

val dual : t -> float
(** The dual objective Ψ = Σ_j s_j ln α_j − n ln P (Eq. 11); concave in the
    θ parametrization, maximized at the MaxEnt solution. *)

val num_terms : t -> int
(** Terms in the compressed representation (including per-group base
    terms). *)

val num_groups : t -> int

val num_stats : t -> int
(** Statistics (variables), marginals included. *)

val num_marginals : t -> int

val uncompressed_monomials : t -> float
(** |Tup| — the size the naive sum-of-products form would have. *)

(** {2 Tables (summary files)}

    Every table the evaluators read is a Bigarray.  {!Serialize.save}
    writes these tables to disk verbatim, and {!Serialize.load} opens a
    file by carving the same tables out of its mapping and handing them
    to {!of_tables}, so one evaluator answers both. *)

type fbuf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type ibuf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type group = {
  g_attrs : int array;  (** the group's attributes, ascending *)
  n_terms : int;  (** term 0 is the base term *)
  fa_off : ibuf;  (** term -> factor slots (CSR), length [n_terms + 1] *)
  fa_attr : ibuf;  (** slot -> attribute *)
  factors : fbuf;  (** slot -> sum of alpha inside its projection *)
  iv_off : ibuf;  (** slot -> projection intervals (CSR) *)
  iv_lo : ibuf;
  iv_hi : ibuf;
  t_mask : ibuf;  (** term -> mask id *)
  dprod : fbuf;  (** term -> prod over its joints of (alpha_j - 1) *)
  mask_bits : ibuf;  (** mask id -> bitset over the group's attributes *)
}
(** One statistic group's evaluator tables. *)

type tables = {
  tb_alpha : fbuf;
  tb_attr_sums : fbuf;
  tb_prefix : fbuf;
      (** per attribute, in attribute order: [N_i + 1] prefix sums of
          its marginal variables *)
  tb_p : float;
  tb_free_attrs : int array;
  tb_group_of_attr : int array;
  tb_groups : group array;
}

val tables : t -> tables
(** The current evaluator tables (prefix sums finalized first), shared
    with the polynomial, not copied.  Call {!refresh} beforehand when a
    canonical (rebuild-from-α) state is required, as the writer
    does. *)

val of_tables :
  Edb_storage.Schema.t ->
  n:int ->
  tables ->
  phi:(unit -> Phi.t) ->
  verify:(unit -> unit) ->
  t
(** A read-only polynomial over tables lent by storage — no term is
    enumerated and nothing is copied.  The tables must have the geometry
    {!tables} exports for this schema.  [verify] checks their integrity
    and index ranges; it runs once, before the first answer or table
    read ({!p}, {!alpha}, {!alphas}, the evaluators), and its exception
    propagates to every caller until it succeeds.  [phi] rebuilds the
    statistic set on demand ({!phi}).  The solver, {!refresh} and every
    other update raise [Invalid_argument]. *)

val read_only : t -> bool
(** Whether the tables are lent by storage ({!of_tables}). *)

val verify : t -> unit
(** Force the integrity check of lent tables now (idempotent; a no-op for
    a polynomial built by {!create}). *)
