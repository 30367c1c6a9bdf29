(** The model solver: maximization of the concave dual Ψ (Eq. 11), either
    by Algorithm 1's coordinate-wise closed-form updates (Eq. 12) or by
    entropic mirror descent (simultaneous multiplicative updates with a
    backtracking step size) for ablation. *)

type algorithm =
  | Coordinate  (** Algorithm 1: exact per-variable solves (the default) *)
  | Multiplicative
      (** mirror descent proper: α_j ← α_j·exp(η(s_j−E_j)/n) for all j *)

type config = {
  algorithm : algorithm;
  max_sweeps : int;  (** full passes over all statistics (paper: 30) *)
  tolerance : float;  (** convergence: max_j |s_j − E\[c_j\]| / n *)
  log_every : int;  (** sweeps between log lines; 0 disables *)
}

val default_config : config
(** Coordinate, 60 sweeps, 1e-6 tolerance. *)

type report = {
  sweeps : int;
  converged : bool;
  max_rel_error : float;
  dual_trace : float list;  (** dual value after each sweep, oldest first *)
  seconds : float;
}

type sweep_stat = {
  sweep : int;  (** 1-based sweep number *)
  dual : float;  (** Ψ after this sweep *)
  sweep_max_rel_error : float;  (** max_j |s_j − E\[c_j\]| / n at sweep start *)
  max_step : float;  (** max_j |α_j' − α_j| over this sweep's updates *)
  elapsed_s : float;  (** wall time since the solve started *)
}

val solve :
  ?config:config ->
  ?init:float array ->
  ?on_sweep:(sweep_stat -> unit) ->
  Poly.t ->
  report
(** Mutates the polynomial's variables toward the MaxEnt solution.  The
    dual trace is non-decreasing up to floating-point noise (Ψ is concave
    and every step is an exact coordinate maximization).

    [init] warm-starts the solve from a caller-supplied variable vector
    (indexed by stat id) instead of {!Poly.create}'s cold initialization —
    the incremental-ingest path passes the previous summary's converged α
    so only the perturbation introduced by the new batch must be
    re-solved.  Omitting it leaves the polynomial's variables untouched,
    preserving cold-start behavior bitwise.  Raises [Invalid_argument]
    on a length mismatch or a negative/non-finite component, and on a
    read-only polynomial ({!Poly.read_only}).

    [on_sweep] is called after every sweep with that sweep's convergence
    telemetry; the same stats are also emitted as ["solver.sweep"] instant
    events (and the whole solve as a ["solver.solve"] span) when tracing
    is enabled. *)
