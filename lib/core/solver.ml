(* Model computation (Sec. 3.3).

   Two maximizers of the concave dual Ψ (Eq. 11) are provided:

   [Coordinate] — Algorithm 1: coordinate-wise exact updates, the paper's
   "mirror descent" variant where each step solves ∂Ψ/∂α_j = 0 for one
   variable while the others stay fixed.  Because P is linear in every
   variable, the coordinate solve has the closed form of Eq. 12:

       α_j  =  s_j (P − α_j P_{α_j})  /  ((n − s_j) P_{α_j})

   where neither P − α_j P_{α_j} nor P_{α_j} depends on α_j.

   [Multiplicative] — entropic mirror descent proper (the multiplicative-
   weights form the paper cites through Bubeck [5] and Hardt–Rothblum
   [11]): all variables move simultaneously,

       α_j  ←  α_j · exp(η (s_j − E[c_j]) / n),

   i.e. plain gradient ascent in the natural θ = ln α parametrization,
   with a backtracking step size (halve η and revert whenever the dual
   decreases).  It serves as the ablation baseline: the bench compares
   sweeps-to-tolerance of the two.

   Practical details shared by both:
   - statistics with target 0 pin their variable to 0 once and are skipped
     afterwards (the paper notes ZERO-cell variables never need updating);
   - non-positive P_{α_j} or P − α_j P_{α_j} (possible transiently from
     floating-point cancellation; both are sums of non-negative monomials
     mathematically) skip the update for this sweep;
   - s_j = n would make Eq. 12's denominator vanish; such statistics are
     implied by overcompleteness of the rest and are skipped;
   - one [Poly.refresh] per sweep washes out incremental drift;
   - convergence is max_j |s_j − E[c_j]| / n < tolerance. *)

type algorithm = Coordinate | Multiplicative

type config = {
  algorithm : algorithm;
  max_sweeps : int;
  tolerance : float; (* on max_j |s_j - E_j| / n *)
  log_every : int; (* sweeps between progress log lines; 0 disables *)
}

let default_config =
  { algorithm = Coordinate; max_sweeps = 60; tolerance = 1e-6; log_every = 10 }

type report = {
  sweeps : int;
  converged : bool;
  max_rel_error : float;
  dual_trace : float list; (* dual value after each sweep, oldest first *)
  seconds : float;
}

type sweep_stat = {
  sweep : int;
  dual : float;
  sweep_max_rel_error : float;
  max_step : float;
  elapsed_s : float;
}

let src = Logs.Src.create "entropydb.solver" ~doc:"MaxEnt model solver"

module Log = (val Logs.src_log src : Logs.LOG)
module Obs = Edb_obs.Obs

(* Per-sweep telemetry: deliver to the caller's callback and, when
   tracing is on, as an instant event in the trace stream. *)
let emit_sweep on_sweep (stat : sweep_stat) =
  (match on_sweep with Some f -> f stat | None -> ());
  Obs.instant "solver.sweep" ~cat:"build"
    ~attrs:(fun () ->
      [
        ("sweep", string_of_int stat.sweep);
        ("dual", Printf.sprintf "%.17g" stat.dual);
        ("max_rel_error", Printf.sprintf "%.6g" stat.sweep_max_rel_error);
        ("max_step", Printf.sprintf "%.6g" stat.max_step);
        ("elapsed_s", Printf.sprintf "%.6f" stat.elapsed_s);
      ])

let solve_coordinate ?on_sweep config poly =
  let phi = Poly.phi poly in
  let n = float_of_int (Phi.n phi) in
  let k = Phi.num_stats phi in
  let zero_done = Array.make k false in
  let t0 = Edb_util.Timing.now_s () in
  let dual_trace = ref [] in
  let sweeps = ref 0 and converged = ref false and max_err = ref infinity in
  let diverged = ref false in
  while (not !converged) && (not !diverged) && !sweeps < config.max_sweeps do
    incr sweeps;
    let sweep_err = ref 0. in
    let max_step = ref 0. in
    for j = 0 to k - 1 do
      let sj = Phi.target phi j in
      if sj = 0. then begin
        if not zero_done.(j) then begin
          Poly.set_alpha poly j 0.;
          zero_done.(j) <- true
        end
      end
      else if sj < n then begin
        let pd = Poly.partial poly j in
        let p = Poly.p poly in
        let aj = Poly.alpha poly j in
        (* Track the residual before this coordinate's solve. *)
        let e_j = if p > 0. then n *. aj *. pd /. p else 0. in
        sweep_err := Float.max !sweep_err (Float.abs (sj -. e_j) /. n);
        let p_without = p -. (aj *. pd) in
        if pd > 0. && p_without > 0. then begin
          let a' = sj *. p_without /. ((n -. sj) *. pd) in
          if Float.is_finite a' && a' >= 0. then begin
            max_step := Float.max !max_step (Float.abs (a' -. aj));
            Poly.set_alpha poly j a'
          end
        end
      end
      (* s_j = n: the predicate covers every row; its variable is redundant
         (any positive value works once the rest converge); leave it. *)
    done;
    Poly.refresh poly;
    (* Pin P's scale (the model is attribute-scale invariant); then detect
       divergence: with targets no distribution can realize (inconsistent,
       noisy, or privatized statistics) the dual is unbounded and the
       iterates run to the boundary where P collapses.  Stop with
       converged = false instead of underflowing to 0/NaN. *)
    Poly.normalize poly;
    let p = Poly.p poly in
    if (not (Float.is_finite p)) || p <= 1e-100 then begin
      diverged := true;
      Log.warn (fun m ->
          m
            "dual appears unbounded after %d sweeps (P = %g): the targets \
             are not realizable by any distribution; stopping"
            !sweeps p)
    end;
    dual_trace := Poly.dual poly :: !dual_trace;
    max_err := !sweep_err;
    if !sweep_err < config.tolerance then converged := true;
    emit_sweep on_sweep
      {
        sweep = !sweeps;
        dual = Poly.dual poly;
        sweep_max_rel_error = !sweep_err;
        max_step = !max_step;
        elapsed_s = Edb_util.Timing.now_s () -. t0;
      };
    if config.log_every > 0 && !sweeps mod config.log_every = 0 then
      Log.info (fun m ->
          m "sweep %d: max rel error %.3e, dual %.6g" !sweeps !sweep_err
            (Poly.dual poly))
  done;
  {
    sweeps = !sweeps;
    converged = !converged;
    max_rel_error = !max_err;
    dual_trace = List.rev !dual_trace;
    seconds = Edb_util.Timing.now_s () -. t0;
  }

let solve_multiplicative ?on_sweep config poly =
  let phi = Poly.phi poly in
  let n = float_of_int (Phi.n phi) in
  let k = Phi.num_stats phi in
  let t0 = Edb_util.Timing.now_s () in
  (* Pin zero-target variables once. *)
  for j = 0 to k - 1 do
    if Phi.target phi j = 0. then Poly.set_alpha poly j 0.
  done;
  Poly.refresh poly;
  let eta = ref 0.5 in
  let best_dual = ref (Poly.dual poly) in
  let dual_trace = ref [] in
  let sweeps = ref 0 and converged = ref false and max_err = ref infinity in
  while (not !converged) && !sweeps < config.max_sweeps do
    incr sweeps;
    (* Gradient of Ψ in θ = ln α coordinates: s_j − E[c_j]. *)
    let residual = Array.make k 0. in
    let sweep_err = ref 0. in
    for j = 0 to k - 1 do
      let sj = Phi.target phi j in
      if sj > 0. && sj < n then begin
        let e_j = Poly.expected poly j in
        residual.(j) <- (sj -. e_j) /. n;
        sweep_err := Float.max !sweep_err (Float.abs residual.(j))
      end
    done;
    max_err := !sweep_err;
    let max_step = ref 0. in
    if !sweep_err < config.tolerance then converged := true
    else begin
      let saved = Poly.alphas poly in
      let proposal = Array.copy saved in
      for j = 0 to k - 1 do
        if residual.(j) <> 0. then
          proposal.(j) <- saved.(j) *. exp (!eta *. residual.(j))
      done;
      Poly.set_alphas poly proposal;
      let d = Poly.dual poly in
      if d +. 1e-12 < !best_dual then begin
        (* Overshot: revert and shrink the step. *)
        Poly.set_alphas poly saved;
        eta := !eta /. 2.;
        if !eta < 1e-12 then converged := true (* cannot make progress *)
      end
      else begin
        for j = 0 to k - 1 do
          max_step := Float.max !max_step (Float.abs (proposal.(j) -. saved.(j)))
        done;
        best_dual := Float.max !best_dual d;
        eta := !eta *. 1.05
      end
    end;
    dual_trace := Poly.dual poly :: !dual_trace;
    emit_sweep on_sweep
      {
        sweep = !sweeps;
        dual = Poly.dual poly;
        sweep_max_rel_error = !sweep_err;
        max_step = !max_step;
        elapsed_s = Edb_util.Timing.now_s () -. t0;
      };
    if config.log_every > 0 && !sweeps mod config.log_every = 0 then
      Log.info (fun m ->
          m "md sweep %d: max rel error %.3e, eta %.3g, dual %.6g" !sweeps
            !sweep_err !eta (Poly.dual poly))
  done;
  {
    sweeps = !sweeps;
    converged = !converged;
    max_rel_error = !max_err;
    dual_trace = List.rev !dual_trace;
    seconds = Edb_util.Timing.now_s () -. t0;
  }

(* An empty relation (n = 0, e.g. an empty shard of a partitioned build)
   has every target at 0: pin all variables to 0 and report immediate
   convergence instead of running sweeps against a degenerate dual (the
   divergence detector would otherwise fire on P = 0). *)
let solve_empty poly =
  let phi = Poly.phi poly in
  let t0 = Edb_util.Timing.now_s () in
  for j = 0 to Phi.num_stats phi - 1 do
    Poly.set_alpha poly j 0.
  done;
  Poly.refresh poly;
  {
    sweeps = 0;
    converged = true;
    max_rel_error = 0.;
    dual_trace = [];
    seconds = Edb_util.Timing.now_s () -. t0;
  }

(* Warm start: overwrite Poly.create's cold initialization (marginals at
   s_j/n, joints at 1) with a caller-supplied vector — typically the
   converged α of the summary a batch is being appended to.  Coordinate
   updates are exact per-variable maximizations from wherever the iterate
   stands, so any non-negative starting point is admissible; starting
   near the previous optimum is what makes incremental ingest cheap. *)
let apply_init poly init =
  if Array.exists (fun a -> not (Float.is_finite a) || a < 0.) init then
    invalid_arg "Solver.solve: init must be finite and >= 0";
  Poly.set_alphas poly init

let solve ?(config = default_config) ?init ?on_sweep poly =
  if Poly.read_only poly then
    invalid_arg "Solver.solve: read-only polynomial (its tables are a file mapping)";
  Obs.with_span "solver.solve" ~cat:"build"
    ~attrs:(fun () ->
      [
        ( "algorithm",
          match config.algorithm with
          | Coordinate -> "coordinate"
          | Multiplicative -> "multiplicative" );
        ("num_stats", string_of_int (Phi.num_stats (Poly.phi poly)));
        ("warm_start", string_of_bool (init <> None));
      ])
    (fun () ->
      (match init with Some a -> apply_init poly a | None -> ());
      if Phi.n (Poly.phi poly) = 0 then solve_empty poly
      else
        match config.algorithm with
        | Coordinate -> solve_coordinate ?on_sweep config poly
        | Multiplicative -> solve_multiplicative ?on_sweep config poly)
