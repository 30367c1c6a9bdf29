(* Core MaxEnt machinery tests.

   The central properties: the compressed factorized polynomial must agree
   with the brute-force tuple-space enumeration of Eq. 5 on P, partial
   derivatives, expectations, and restricted evaluations — on randomly
   generated schemas, relations, and statistic sets.  The solver must drive
   every statistic's expectation to its target, and query answering must
   then reproduce the statistics. *)

open Edb_util
open Edb_storage
open Entropydb_core

(* ------------------------------------------------------------------ *)
(* Random model generation for property tests                          *)
(* ------------------------------------------------------------------ *)

type case = {
  rel : Relation.t;
  joints : Predicate.t list;
  descr : string;
}

let make_schema sizes =
  Schema.create
    (List.mapi
       (fun i n ->
         Schema.attr
           (Printf.sprintf "a%d" i)
           (Domain.int_bins ~lo:0 ~hi:(n - 1) ~width:1))
       sizes)

let random_relation rng schema n =
  let m = Schema.arity schema in
  let b = Relation.builder ~capacity:n schema in
  (* Skewed values: squares of uniforms concentrate mass on low indices,
     leaving some values with zero count (exercising alpha = 0 paths). *)
  for _ = 1 to n do
    let row =
      Array.init m (fun i ->
          let size = Schema.domain_size schema i in
          let u = Prng.unit_float rng in
          int_of_float (u *. u *. float_of_int size) |> min (size - 1))
    in
    Relation.add_row b row
  done;
  Relation.build b

(* Random disjoint rectangles over an attribute pair: slice the first
   attribute's domain into disjoint ranges, give each a random range on the
   second attribute. *)
let random_rect_family rng schema (i1, i2) =
  let n1 = Schema.domain_size schema i1 in
  let n2 = Schema.domain_size schema i2 in
  let arity = Schema.arity schema in
  let rects = ref [] in
  let lo = ref 0 in
  while !lo < n1 do
    let hi = min (n1 - 1) (!lo + Prng.int rng 3) in
    if Prng.unit_float rng < 0.8 then begin
      let lo2 = Prng.int rng n2 in
      let hi2 = min (n2 - 1) (lo2 + Prng.int rng (max 1 (n2 / 2))) in
      rects :=
        Predicate.of_alist ~arity
          [ (i1, Ranges.interval !lo hi); (i2, Ranges.interval lo2 hi2) ]
        :: !rects
    end;
    lo := hi + 1
  done;
  !rects

let random_case seed =
  let rng = Prng.create ~seed () in
  let m = 2 + Prng.int rng 3 in
  let sizes = List.init m (fun _ -> 2 + Prng.int rng 5) in
  let schema = make_schema sizes in
  let rel = random_relation rng schema (50 + Prng.int rng 300) in
  (* Random attribute pairs; overlapping pairs build connected groups. *)
  let num_pairs = Prng.int rng (min 3 m) in
  let pairs = ref [] in
  for _ = 1 to num_pairs do
    let i1 = Prng.int rng m in
    let i2 = Prng.int rng m in
    if i1 <> i2 then pairs := (min i1 i2, max i1 i2) :: !pairs
  done;
  let pairs = List.sort_uniq compare !pairs in
  let joints = List.concat_map (random_rect_family rng schema) pairs in
  {
    rel;
    joints;
    descr =
      Fmt.str "m=%d sizes=%a pairs=%a joints=%d" m
        Fmt.(list ~sep:comma int)
        sizes
        Fmt.(list ~sep:comma (pair ~sep:(any "-") int int))
        pairs (List.length joints);
  }

let alpha_vector poly phi =
  Array.init (Phi.num_stats phi) (fun j -> Poly.alpha poly j)

let random_query rng schema =
  let m = Schema.arity schema in
  let parts =
    List.filter_map
      (fun i ->
        if Prng.unit_float rng < 0.6 then
          let size = Schema.domain_size schema i in
          let lo = Prng.int rng size in
          let hi = min (size - 1) (lo + Prng.int rng size) in
          Some (i, Ranges.interval lo hi)
        else None)
      (List.init m Fun.id)
  in
  Predicate.of_alist ~arity:m parts

(* The estimate halves of the answers tests compare one moment of. *)
let group_estimates s ~attrs q =
  List.map
    (fun (key, (a : Summary.answer)) -> (key, a.est))
    (Summary.groups s ~attrs q)

let or_estimate s d = (Summary.count_disjuncts s d).est

(* Randomize the variable assignment so equivalence is checked away from
   the initialization point too. *)
let randomize_alphas rng poly phi =
  for j = 0 to Phi.num_stats phi - 1 do
    let v =
      match Prng.int rng 5 with
      | 0 -> 0.
      | 1 -> 1.
      | _ -> Prng.float rng 3.
    in
    Poly.set_alpha poly j v
  done;
  Poly.refresh poly

(* ------------------------------------------------------------------ *)
(* Property: compressed == brute force                                 *)
(* ------------------------------------------------------------------ *)

let check_equivalence seed =
  let case = random_case seed in
  let phi = Phi.of_relation case.rel ~joints:case.joints in
  let poly = Poly.create phi in
  let bf = Bruteforce.create phi in
  let rng = Prng.create ~seed:(seed + 7919) () in
  let check_state tag =
    let alpha = alpha_vector poly phi in
    let p_fast = Poly.p poly and p_slow = Bruteforce.p bf alpha in
    if not (Floatx.approx_eq ~rtol:1e-8 p_fast p_slow) then
      Alcotest.failf "%s [%s]: P mismatch %.12g vs %.12g" case.descr tag p_fast
        p_slow;
    for _ = 1 to 10 do
      let j = Prng.int rng (Phi.num_stats phi) in
      let d_fast = Poly.partial poly j
      and d_slow = Bruteforce.partial bf alpha j in
      if not (Floatx.approx_eq ~rtol:1e-7 ~atol:1e-9 d_fast d_slow) then
        Alcotest.failf "%s [%s]: dP/da_%d mismatch %.12g vs %.12g" case.descr
          tag j d_fast d_slow
    done;
    for _ = 1 to 10 do
      let q = random_query rng (Phi.schema phi) in
      let e_fast = Poly.eval_restricted poly q
      and e_slow = Bruteforce.eval_restricted bf alpha q in
      if not (Floatx.approx_eq ~rtol:1e-7 ~atol:1e-9 e_fast e_slow) then
        Alcotest.failf "%s [%s]: restricted eval mismatch %.12g vs %.12g (%a)"
          case.descr tag e_fast e_slow Predicate.pp q
    done
  in
  check_state "init";
  randomize_alphas rng poly phi;
  check_state "randomized";
  (* Incremental maintenance: single-variable updates without refresh must
     stay consistent with brute force. *)
  for _ = 1 to 30 do
    let j = Prng.int rng (Phi.num_stats phi) in
    Poly.set_alpha poly j (Prng.float rng 2.)
  done;
  check_state "incremental"

let test_equivalence () =
  for seed = 1 to 40 do
    check_equivalence seed
  done

(* Higher-arity joint statistics: Theorem 4.1 and the implementation are
   not limited to 2D.  Mix a 3D family with 2D families sharing its
   attributes and check full equivalence with brute force, plus solver
   convergence. *)
let test_3d_statistics () =
  let schema = make_schema [ 4; 4; 3; 3 ] in
  let rng = Prng.create ~seed:1234 () in
  let rel = random_relation rng schema 300 in
  let r = Ranges.interval in
  let joints =
    [
      (* Two disjoint 3D boxes over (0,1,2). *)
      Predicate.of_alist ~arity:4 [ (0, r 0 1); (1, r 0 2); (2, r 0 1) ];
      Predicate.of_alist ~arity:4 [ (0, r 2 3); (1, r 1 3); (2, r 0 2) ];
      (* A 2D family over (1,3) chaining attribute 1 into the group. *)
      Predicate.of_alist ~arity:4 [ (1, r 0 1); (3, r 0 2) ];
      Predicate.of_alist ~arity:4 [ (1, r 2 3); (3, r 1 2) ];
    ]
  in
  let phi = Phi.of_relation rel ~joints in
  let poly = Poly.create phi in
  let bf = Bruteforce.create phi in
  let qrng = Prng.create ~seed:1235 () in
  randomize_alphas qrng poly phi;
  let alpha = alpha_vector poly phi in
  Alcotest.(check bool) "P matches" true
    (Floatx.approx_eq ~rtol:1e-8 (Poly.p poly) (Bruteforce.p bf alpha));
  for j = 0 to Phi.num_stats phi - 1 do
    if
      not
        (Floatx.approx_eq ~rtol:1e-7 ~atol:1e-9 (Poly.partial poly j)
           (Bruteforce.partial bf alpha j))
    then Alcotest.failf "3D partial mismatch at %d" j
  done;
  for _ = 1 to 10 do
    let q = random_query qrng schema in
    if
      not
        (Floatx.approx_eq ~rtol:1e-7 ~atol:1e-9
           (Poly.eval_restricted poly q)
           (Bruteforce.eval_restricted bf alpha q))
    then Alcotest.failf "3D restricted eval mismatch"
  done;
  (* And the solver converges on the mixed-arity model. *)
  let poly2 = Poly.create phi in
  let report =
    Solver.solve
      ~config:{ Solver.default_config with max_sweeps = 300; log_every = 0 }
      poly2
  in
  if report.max_rel_error > 1e-4 then
    Alcotest.failf "3D model did not converge (err %.2e)" report.max_rel_error

(* Weighted evaluation (SUM/AVG backbone) against brute force. *)
let check_weighted_equivalence seed =
  let case = random_case seed in
  let phi = Phi.of_relation case.rel ~joints:case.joints in
  let poly = Poly.create phi in
  let bf = Bruteforce.create phi in
  let rng = Prng.create ~seed:(seed + 4242) () in
  randomize_alphas rng poly phi;
  let alpha = alpha_vector poly phi in
  let schema = Phi.schema phi in
  let m = Schema.arity schema in
  for _ = 1 to 10 do
    let q = random_query rng schema in
    (* Random product-form weights on a random subset of attributes. *)
    let weights =
      List.filter_map
        (fun i ->
          if Prng.unit_float rng < 0.5 then
            let size = Schema.domain_size schema i in
            let table =
              Array.init size (fun _ -> Prng.float rng 4. -. 1.)
            in
            Some (i, fun v -> table.(v))
          else None)
        (List.init m Fun.id)
    in
    let fast = Poly.eval_weighted poly q ~weights in
    let slow = Bruteforce.eval_weighted bf alpha q ~weights in
    if not (Floatx.approx_eq ~rtol:1e-7 ~atol:1e-9 fast slow) then
      Alcotest.failf "%s: weighted eval mismatch %.12g vs %.12g" case.descr
        fast slow
  done;
  (* All-ones weights must agree with the restricted evaluation. *)
  let q = random_query rng schema in
  let ones = List.init m (fun i -> (i, fun _ -> 1.)) in
  if
    not
      (Floatx.approx_eq ~rtol:1e-9
         (Poly.eval_weighted poly q ~weights:ones)
         (Poly.eval_restricted poly q))
  then Alcotest.fail "weights=1 differs from restricted eval"

let test_weighted_equivalence () =
  for seed = 300 to 320 do
    check_weighted_equivalence seed
  done

(* SUM estimates: with a marginals-only model and a predicate over the
   summed attribute alone, E[SUM(A)] = sum over selected values of
   midpoint * marginal target. *)
let test_estimate_sum_marginals_only () =
  let schema = make_schema [ 5; 4 ] in
  let rng = Prng.create ~seed:61 () in
  let rel = random_relation rng schema 400 in
  let phi = Phi.of_relation rel ~joints:[] in
  let summary =
    Summary.of_phi ~solver_config:{ Solver.default_config with log_every = 0 }
      phi
  in
  let h = Histogram.d1 rel ~attr:0 in
  let domain = Schema.domain schema 0 in
  let pred = Predicate.of_alist ~arity:2 [ (0, Ranges.interval 1 3) ] in
  let expected =
    List.fold_left
      (fun acc v ->
        acc +. (Domain.bin_midpoint domain v *. float_of_int h.(v)))
      0. [ 1; 2; 3 ]
  in
  let sum = Summary.sum summary ~attr:0 pred in
  Alcotest.(check (float 0.1)) "sum matches marginal targets" expected sum.est;
  (* AVG consistency: sum / count. *)
  let count = Summary.estimate summary pred in
  (match Summary.estimate_avg summary ~attr:0 pred with
  | Some avg ->
      Alcotest.(check (float 1e-6)) "avg = sum/count" (sum.est /. count) avg
  | None -> Alcotest.fail "avg undefined");
  Alcotest.(check bool) "variance_sum >= 0" true (sum.var >= 0.)

(* ------------------------------------------------------------------ *)
(* Solver convergence                                                  *)
(* ------------------------------------------------------------------ *)

let check_solver seed =
  let case = random_case seed in
  let phi = Phi.of_relation case.rel ~joints:case.joints in
  let poly = Poly.create phi in
  let config = { Solver.default_config with max_sweeps = 300; log_every = 0 } in
  let report = Solver.solve ~config poly in
  let n = float_of_int (Phi.n phi) in
  (* Every statistic's expectation must match its target. *)
  Array.iter
    (fun s ->
      let j = Statistic.id s in
      let e = Poly.expected poly j in
      let sj = Statistic.target s in
      if Float.abs (e -. sj) /. n > 1e-4 then
        Alcotest.failf "%s: statistic %a expectation %.6g (target %.6g)"
          case.descr Statistic.pp s e sj)
    (Phi.stats phi);
  if not report.converged then
    Alcotest.failf "%s: solver did not converge (err %.3g)" case.descr
      report.max_rel_error

let test_solver () =
  for seed = 100 to 112 do
    check_solver seed
  done

(* The mirror-descent (multiplicative) solver must reach the same optimum:
   Ψ is concave with a unique maximum, so both algorithms' duals and
   expectations agree. *)
let test_multiplicative_matches_coordinate () =
  for seed = 150 to 155 do
    let case = random_case seed in
    let phi = Phi.of_relation case.rel ~joints:case.joints in
    let n = float_of_int (Phi.n phi) in
    let poly_c = Poly.create phi in
    let config_c =
      { Solver.default_config with max_sweeps = 300; log_every = 0 }
    in
    ignore (Solver.solve ~config:config_c poly_c);
    let poly_m = Poly.create phi in
    let config_m =
      {
        Solver.algorithm = Solver.Multiplicative;
        max_sweeps = 3000;
        tolerance = 1e-5;
        log_every = 0;
      }
    in
    let report_m = Solver.solve ~config:config_m poly_m in
    if report_m.max_rel_error > 1e-3 then
      Alcotest.failf "%s: multiplicative did not converge (err %.2e)"
        case.descr report_m.max_rel_error;
    (* Expectations from both solvers match every target. *)
    Array.iter
      (fun s ->
        let j = Statistic.id s in
        let e = Poly.expected poly_m j in
        if Float.abs (e -. Statistic.target s) /. n > 2e-3 then
          Alcotest.failf "%s: multiplicative E[%d]=%.4g target %.4g"
            case.descr j e (Statistic.target s))
      (Phi.stats phi);
    let d_c = Poly.dual poly_c and d_m = Poly.dual poly_m in
    if Float.abs (d_c -. d_m) > 1e-2 *. (1. +. Float.abs d_c) then
      Alcotest.failf "%s: duals differ %.6g vs %.6g" case.descr d_c d_m
  done

(* Uniform initialization converges to the same optimum as the marginal
   initialization (uniqueness of the MaxEnt solution). *)
let test_init_ablation () =
  let case = random_case 160 in
  let phi = Phi.of_relation case.rel ~joints:case.joints in
  let config = { Solver.default_config with max_sweeps = 400; log_every = 0 } in
  let solved poly =
    Summary.of_solved_poly ~poly ~report:(Solver.solve ~config poly) ()
  in
  let summary_a = solved (Poly.create phi) in
  let poly_b = Poly.create phi in
  Poly.reinit poly_b `Uniform;
  let summary_b = solved poly_b in
  let rng = Prng.create ~seed:161 () in
  for _ = 1 to 20 do
    let q = random_query rng (Phi.schema phi) in
    let ea = Summary.estimate summary_a q
    and eb = Summary.estimate summary_b q in
    if not (Floatx.approx_eq ~rtol:5e-3 ~atol:1e-3 ea eb) then
      Alcotest.failf "init-dependent estimates: %.6g vs %.6g" ea eb
  done

let test_dual_monotone () =
  let case = random_case 31 in
  let phi = Phi.of_relation case.rel ~joints:case.joints in
  let poly = Poly.create phi in
  let config = { Solver.default_config with max_sweeps = 40; log_every = 0 } in
  let report = Solver.solve ~config poly in
  let rec check = function
    | a :: (b :: _ as rest) ->
        if b < a -. 1e-6 *. (1. +. Float.abs a) then
          Alcotest.failf "dual decreased: %.9g -> %.9g" a b;
        check rest
    | _ -> ()
  in
  check report.dual_trace

(* Convergence regression over the [on_sweep] telemetry stream: fixed
   seed and config, so the sweep count to 1e-6 is deterministic and
   pinned.  Catches both solver regressions (more sweeps to tolerance)
   and telemetry regressions (missing/duplicated/disordered sweep
   stats). *)
let test_convergence_telemetry () =
  let case = random_case 100 in
  let phi = Phi.of_relation case.rel ~joints:case.joints in
  let poly = Poly.create phi in
  let config =
    { Solver.default_config with max_sweeps = 300; tolerance = 1e-6; log_every = 0 }
  in
  let stats = ref [] in
  let report =
    Solver.solve ~config ~on_sweep:(fun st -> stats := st :: !stats) poly
  in
  let stats = List.rev !stats in
  if not report.converged then
    Alcotest.failf "%s: did not converge (err %.3g)" case.descr
      report.max_rel_error;
  (* One stat per sweep, numbered 1..sweeps in order. *)
  Alcotest.(check int) "one stat per sweep" report.sweeps (List.length stats);
  List.iteri
    (fun i st -> Alcotest.(check int) "sweep numbering" (i + 1) st.Solver.sweep)
    stats;
  (* The telemetry dual is the same series the report's trace records. *)
  Alcotest.(check (list (float 0.)))
    "dual matches dual_trace" report.dual_trace
    (List.map (fun st -> st.Solver.dual) stats);
  (* Ψ is concave and each coordinate step is an exact maximization, so
     the dual is non-decreasing up to floating-point noise. *)
  let rec mono = function
    | a :: (b :: _ as rest) ->
        if b.Solver.dual < a.Solver.dual -. 1e-6 *. (1. +. Float.abs a.Solver.dual)
        then
          Alcotest.failf "dual decreased at sweep %d: %.9g -> %.9g"
            b.Solver.sweep a.Solver.dual b.Solver.dual;
        mono rest
    | _ -> ()
  in
  mono stats;
  List.iter
    (fun st ->
      Alcotest.(check bool) "max_step >= 0" true (st.Solver.max_step >= 0.);
      Alcotest.(check bool) "rel error >= 0" true
        (st.Solver.sweep_max_rel_error >= 0.))
    stats;
  (* elapsed_s is wall time since the solve began: non-decreasing. *)
  let rec elapsed_mono = function
    | a :: (b :: _ as rest) ->
        if b.Solver.elapsed_s < a.Solver.elapsed_s then
          Alcotest.fail "elapsed_s decreased between sweeps";
        elapsed_mono rest
    | _ -> ()
  in
  elapsed_mono stats;
  (* Per-sweep elapsed time is measured inside the solve the report's
     end-to-end seconds wrap around, so the last sweep's clock can never
     exceed the report's. *)
  (match List.rev stats with
  | last :: _ ->
      Alcotest.(check bool) "sweep elapsed within report.seconds" true
        (last.Solver.elapsed_s <= report.seconds +. 1e-3)
  | [] -> ());
  (* Pinned iterations-to-tolerance bound for this fixed case: the seed,
     schema, and config are frozen, so a jump in sweep count is a solver
     regression, not noise.  (Currently converges well under this.) *)
  if report.sweeps > 60 then
    Alcotest.failf "%s: took %d sweeps to reach 1e-6 (pinned bound 60)"
      case.descr report.sweeps

(* Query answering consistency: after solving, the estimate of a statistic's
   own predicate equals its target (the query path and the expectation path
   must agree). *)
let test_estimate_matches_statistics () =
  let case = random_case 55 in
  let phi = Phi.of_relation case.rel ~joints:case.joints in
  let config = { Solver.default_config with max_sweeps = 300; log_every = 0 } in
  let summary = Summary.of_phi ~solver_config:config phi in
  let n = float_of_int (Phi.n phi) in
  Array.iter
    (fun s ->
      let est = Summary.estimate summary (Statistic.pred s) in
      let sj = Statistic.target s in
      if Float.abs (est -. sj) /. n > 1e-4 then
        Alcotest.failf "estimate %.6g vs target %.6g for %a" est sj
          Statistic.pp s)
    (Phi.stats phi)

(* With only 1D statistics the MaxEnt model is the product of marginals:
   estimates of point queries must equal n * prod_i (s_i / n). *)
let test_product_of_marginals () =
  let schema = make_schema [ 3; 4 ] in
  let rng = Prng.create ~seed:9 () in
  let rel = random_relation rng schema 500 in
  let phi = Phi.of_relation rel ~joints:[] in
  let summary =
    Summary.of_phi
      ~solver_config:{ Solver.default_config with log_every = 0 }
      phi
  in
  let h0 = Histogram.d1 rel ~attr:0 and h1 = Histogram.d1 rel ~attr:1 in
  let n = float_of_int (Relation.cardinality rel) in
  for v0 = 0 to 2 do
    for v1 = 0 to 3 do
      let expected = float_of_int h0.(v0) *. float_of_int h1.(v1) /. n in
      let est =
        Summary.estimate summary (Predicate.point ~arity:2 [ (0, v0); (1, v1) ])
      in
      Alcotest.(check (float 1e-3))
        (Printf.sprintf "point (%d,%d)" v0 v1)
        expected est
    done
  done

(* The flights running example from the paper's introduction: 500,000
   flights, 50x50 origin/dest, no statistics beyond cardinality =>
   uniform estimate 200 for any (origin, dest) pair. *)
let test_paper_intro_example () =
  let schema = make_schema [ 50; 50 ] in
  (* A synthetic uniform relation is unnecessary: feed uniform marginal
     targets directly. *)
  let marginal_targets =
    Array.init 2 (fun _ -> Array.make 50 (500_000. /. 50.))
  in
  let phi =
    Phi.of_targets schema ~n:500_000 ~marginal_targets ~joints:[]
  in
  let summary =
    Summary.of_phi
      ~solver_config:{ Solver.default_config with log_every = 0 }
      phi
  in
  let est =
    Summary.estimate summary (Predicate.point ~arity:2 [ (0, 0); (1, 1) ])
  in
  Alcotest.(check (float 0.5)) "CA->NY flights" 200. est

(* ------------------------------------------------------------------ *)
(* Phi construction                                                    *)
(* ------------------------------------------------------------------ *)

let small_rel () =
  let schema = make_schema [ 3; 3; 2 ] in
  let rng = Prng.create ~seed:4 () in
  random_relation rng schema 100

let test_phi_overcomplete () =
  let rel = small_rel () in
  let phi = Phi.of_relation rel ~joints:[] in
  Alcotest.(check bool) "overcomplete" true (Phi.check_overcomplete phi)

let test_phi_rejects_overlapping_family () =
  let rel = small_rel () in
  let r a b = Ranges.interval a b in
  let j1 = Predicate.of_alist ~arity:3 [ (0, r 0 1); (1, r 0 1) ] in
  let j2 = Predicate.of_alist ~arity:3 [ (0, r 1 2); (1, r 1 2) ] in
  Alcotest.check_raises "overlap rejected"
    (Invalid_argument
       (Fmt.str "Phi.of_relation: overlapping same-family statistics %a and %a"
          Predicate.pp j1 Predicate.pp j2)) (fun () ->
      ignore (Phi.of_relation rel ~joints:[ j1; j2 ]))

let test_phi_rejects_1d_joint () =
  let rel = small_rel () in
  let j = Predicate.of_alist ~arity:3 [ (0, Ranges.interval 0 1) ] in
  (try
     ignore (Phi.of_relation rel ~joints:[ j ]);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_marginal_ids () =
  let rel = small_rel () in
  let phi = Phi.of_relation rel ~joints:[] in
  Alcotest.(check int) "num marginals" 8 (Phi.num_marginals phi);
  Alcotest.(check int) "id(0,0)" 0 (Phi.marginal_id phi ~attr:0 ~value:0);
  Alcotest.(check int) "id(1,0)" 3 (Phi.marginal_id phi ~attr:1 ~value:0);
  Alcotest.(check int) "id(2,1)" 7 (Phi.marginal_id phi ~attr:2 ~value:1)

(* ------------------------------------------------------------------ *)
(* Variance                                                            *)
(* ------------------------------------------------------------------ *)

let test_variance_bounds () =
  let case = random_case 77 in
  let phi = Phi.of_relation case.rel ~joints:case.joints in
  let summary = Summary.of_phi ~solver_config:{ Solver.default_config with log_every = 0 } phi in
  let rng = Prng.create ~seed:3 () in
  for _ = 1 to 20 do
    let q = random_query rng (Phi.schema phi) in
    let v = (Summary.count summary q).var in
    let n = float_of_int (Summary.cardinality summary) in
    if v < 0. || v > n /. 4. +. 1e-9 then
      Alcotest.failf "variance %.6g outside [0, n/4]" v
  done;
  (* Tautology: p = 1, variance 0. *)
  let taut = Predicate.tautology (Schema.arity (Phi.schema phi)) in
  Alcotest.(check (float 1e-6))
    "Var[n] = 0" 0.
    (Summary.count summary taut).var

let test_tautology_estimate () =
  let case = random_case 78 in
  let phi = Phi.of_relation case.rel ~joints:case.joints in
  let summary = Summary.of_phi ~solver_config:{ Solver.default_config with log_every = 0 } phi in
  let taut = Predicate.tautology (Schema.arity (Phi.schema phi)) in
  Alcotest.(check (float 1e-6))
    "E[true] = n"
    (float_of_int (Summary.cardinality summary))
    (Summary.estimate summary taut)

(* GROUP BY estimation: the group estimates partition the predicate's
   total, and top-k returns the k largest in order. *)
let test_estimate_groups () =
  let case = random_case 900 in
  let phi = Phi.of_relation case.rel ~joints:case.joints in
  let summary =
    Summary.of_phi ~solver_config:{ Solver.default_config with log_every = 0 }
      phi
  in
  let schema = Phi.schema phi in
  let arity = Schema.arity schema in
  let rng = Prng.create ~seed:901 () in
  let q = random_query rng schema in
  let attrs = [ 0; arity - 1 ] |> List.sort_uniq compare in
  let groups = group_estimates summary ~attrs q in
  let total = List.fold_left (fun acc (_, e) -> acc +. e) 0. groups in
  Alcotest.(check (float 1e-3))
    "groups partition the total" (Summary.estimate summary q) total;
  let k = 3 in
  (* ORDER BY COUNT( * ) DESC LIMIT k, by the one grouped-answer rule. *)
  let top =
    Edb_query.Translate.order_groups
      {
        Edb_query.Translate.disjuncts = [ q ];
        aggregate = Edb_query.Translate.Count;
        group_attrs = attrs;
        order = Some Edb_query.Ast.Desc;
        limit = Some k;
      }
      (List.map (fun (key, e) -> (key, e, ())) groups)
    |> List.map (fun (key, e, ()) -> (key, e))
  in
  Alcotest.(check bool) "at most k" true (List.length top <= k);
  let rec desc = function
    | (_, a) :: ((_, b) :: _ as rest) -> a >= b -. 1e-12 && desc rest
    | _ -> true
  in
  Alcotest.(check bool) "descending" true (desc top);
  (match (top, groups) with
  | (_, best) :: _, _ ->
      let max_group =
        List.fold_left (fun acc (_, e) -> Float.max acc e) 0. groups
      in
      Alcotest.(check (float 1e-9)) "top is the max" max_group best
  | [], _ -> ())

(* The batched GROUP BY kernel must agree with one restricted evaluation
   per value — on arbitrary (unsolved) variable assignments, for every
   attribute, sequentially and under domain chunking. *)
let batched_kernel_matches_per_value =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:12 ~name:"batched kernel = per-value eval"
       QCheck.(int_range 0 10_000)
       (fun seed ->
         let case = random_case seed in
         let phi = Phi.of_relation case.rel ~joints:case.joints in
         let poly = Poly.create phi in
         let rng = Prng.create ~seed:(seed + 7) () in
         randomize_alphas rng poly phi;
         let schema = Phi.schema phi in
         let arity = Schema.arity schema in
         let check () =
           for _ = 1 to 4 do
             let q = random_query rng schema in
             let attr = Prng.int rng arity in
             let vec = Poly.eval_restricted_by_value poly q ~attr in
             let allowed =
               match Predicate.restriction q attr with
               | None -> List.init (Schema.domain_size schema attr) Fun.id
               | Some r -> Ranges.to_list r
             in
             Array.iteri
               (fun v bv ->
                 if List.mem v allowed then begin
                   let direct =
                     Poly.eval_restricted poly
                       (Predicate.restrict q attr (Ranges.singleton v))
                   in
                   if not (Floatx.approx_eq ~rtol:1e-9 ~atol:1e-12 direct bv)
                   then
                     QCheck.Test.fail_reportf
                       "%s: attr %d value %d: batched %.12g vs direct %.12g"
                       case.descr attr v bv direct
                 end
                 else if bv <> 0. then
                   QCheck.Test.fail_reportf
                     "%s: attr %d value %d outside restriction: %.12g"
                     case.descr attr v bv)
               vec
           done
         in
         Poly.set_parallelism ~threshold:30_000 1;
         check ();
         Poly.set_parallelism ~threshold:1 4;
         Fun.protect
           ~finally:(fun () -> Poly.set_parallelism ~threshold:30_000 1)
           check;
         true))

(* Summary.groups (batched, flat and a k = 1 partitioned build)
   must match the naive one-estimate-per-cell enumeration it replaced,
   keys, order, variances, and all. *)
let test_estimate_groups_matches_naive () =
  let case = random_case 903 in
  let phi = Phi.of_relation case.rel ~joints:case.joints in
  let summary =
    Summary.of_phi ~solver_config:{ Solver.default_config with log_every = 0 }
      phi
  in
  let schema = Phi.schema phi in
  let arity = Schema.arity schema in
  let sharded =
    Edb_shard.Builder.build
      ~solver_config:{ Solver.default_config with log_every = 0 }
      case.rel ~shards:1 ~strategy:Edb_shard.Partition.Rows ~joints:case.joints
  in
  let rng = Prng.create ~seed:904 () in
  for _ = 1 to 6 do
    let q = random_query rng schema in
    let attrs =
      List.filter (fun _ -> Prng.unit_float rng < 0.5) (List.init arity Fun.id)
    in
    let attrs = if attrs = [] then [ Prng.int rng arity ] else attrs in
    (* The pre-kernel implementation, verbatim: nested enumeration with a
       full estimate per cell. *)
    let rec naive chosen = function
      | [] ->
          let chosen = List.rev chosen in
          let nq =
            List.fold_left
              (fun nq (i, v) -> Predicate.restrict nq i (Ranges.singleton v))
              q chosen
          in
          [ (List.map snd chosen, Summary.estimate summary nq, nq) ]
      | attr :: rest ->
          let candidates =
            match Predicate.restriction q attr with
            | None -> List.init (Schema.domain_size schema attr) Fun.id
            | Some r -> Ranges.to_list r
          in
          List.concat_map
            (fun v -> naive ((attr, v) :: chosen) rest)
            candidates
    in
    let expected = naive [] attrs in
    let batched = Summary.groups summary ~attrs q in
    Alcotest.(check int)
      "same cell count" (List.length expected) (List.length batched);
    List.iter2
      (fun (key, est, nq) (key', (a : Summary.answer)) ->
        Alcotest.(check (list int)) "same key order" key key';
        if not (Floatx.approx_eq ~rtol:1e-9 ~atol:1e-9 est a.est) then
          Alcotest.failf "%s: cell estimate %.12g vs naive %.12g" case.descr
            a.est est;
        let var = (Summary.count summary nq).var in
        if not (Floatx.approx_eq ~rtol:1e-9 ~atol:1e-9 var a.var) then
          Alcotest.failf "%s: cell variance %.12g vs naive %.12g" case.descr
            a.var var)
      expected batched;
    (* k = 1 sharded must be bitwise identical to flat. *)
    List.iter2
      (fun (ka, (a : Summary.answer)) (kb, (b : Summary.answer)) ->
        if ka <> kb || a.est <> b.est || a.var <> b.var then
          Alcotest.failf "%s: k=1 sharded group-by differs from flat"
            case.descr)
      batched
      (Summary.groups sharded ~attrs q)
  done

(* Estimate invariants on solved models: bounds and monotonicity. *)
let test_estimate_invariants () =
  for seed = 800 to 805 do
    let case = random_case seed in
    let phi = Phi.of_relation case.rel ~joints:case.joints in
    let summary =
      Summary.of_phi
        ~solver_config:{ Solver.default_config with log_every = 0 }
        phi
    in
    let n = float_of_int (Summary.cardinality summary) in
    let schema = Phi.schema phi in
    let rng = Prng.create ~seed:(seed * 3) () in
    for _ = 1 to 15 do
      let q = random_query rng schema in
      let e = Summary.estimate summary q in
      if e < -1e-9 || e > n +. 1e-6 then
        Alcotest.failf "%s: estimate %.6g outside [0, n]" case.descr e;
      (* Adding a restriction can only reduce the estimate. *)
      let attr = Prng.int rng (Schema.arity schema) in
      let size = Schema.domain_size schema attr in
      let narrowed =
        Predicate.restrict q attr (Ranges.interval 0 (Prng.int rng size))
      in
      let e' = Summary.estimate summary narrowed in
      if e' > e +. 1e-6 *. (1. +. e) then
        Alcotest.failf "%s: narrowing increased estimate %.6g -> %.6g"
          case.descr e e'
    done
  done

(* ------------------------------------------------------------------ *)
(* Query cache                                                         *)
(* ------------------------------------------------------------------ *)

let test_cache_transparent () =
  let case = random_case 700 in
  let phi = Phi.of_relation case.rel ~joints:case.joints in
  let summary =
    Summary.of_phi ~solver_config:{ Solver.default_config with log_every = 0 }
      phi
  in
  let cache = Cache.create ~capacity:64 summary in
  let rng = Prng.create ~seed:701 () in
  let queries = List.init 30 (fun _ -> random_query rng (Phi.schema phi)) in
  (* First pass: misses; values equal uncached. *)
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-12))
        "cached = uncached"
        (Summary.estimate summary q)
        (Cache.estimate cache q))
    queries;
  let s1 = Cache.stats cache in
  (* Second pass over the same queries: all hits, same values. *)
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-12))
        "hit value" (Summary.estimate summary q) (Cache.estimate cache q))
    queries;
  let s2 = Cache.stats cache in
  Alcotest.(check int) "hits grew by query count" (s1.hits + 30) s2.hits;
  Alcotest.(check int) "no new misses" s1.misses s2.misses;
  Cache.clear cache;
  Alcotest.(check int) "cleared" 0 (Cache.stats cache).entries

let test_cache_eviction () =
  let case = random_case 702 in
  let phi = Phi.of_relation case.rel ~joints:case.joints in
  let summary =
    Summary.of_phi ~solver_config:{ Solver.default_config with log_every = 0 }
      phi
  in
  let cache = Cache.create ~capacity:16 summary in
  let schema = Phi.schema phi in
  let arity = Schema.arity schema in
  let size0 = Schema.domain_size schema 0 in
  (* More distinct queries than the capacity: vary the upper bound of a
     range restriction on two attributes. *)
  for k = 0 to 40 do
    let q =
      Predicate.of_alist ~arity
        [
          (0, Ranges.interval 0 (k mod size0));
          (1, Ranges.interval 0 (k mod Schema.domain_size schema 1));
        ]
    in
    ignore (Cache.estimate cache q)
  done;
  Alcotest.(check bool) "bounded" true ((Cache.stats cache).entries <= 16)

(* A grouped result and a plain COUNT over the *same* predicate must live
   under distinct keys — and distinct grouping-attribute lists must not
   collide either. *)
let test_cache_grouped_no_collision () =
  let case = random_case 703 in
  let phi = Phi.of_relation case.rel ~joints:case.joints in
  let summary =
    Summary.of_phi ~solver_config:{ Solver.default_config with log_every = 0 }
      phi
  in
  let cache = Cache.create ~capacity:64 summary in
  let rng = Prng.create ~seed:704 () in
  let q = random_query rng (Phi.schema phi) in
  let count = Cache.estimate cache q in
  let g0 = Cache.estimate_groups cache ~attrs:[ 0 ] q in
  let g1 = Cache.estimate_groups cache ~attrs:[ 1 ] q in
  let s = Cache.stats cache in
  Alcotest.(check int) "three distinct entries" 3 s.entries;
  Alcotest.(check int) "three misses, no collisions" 3 s.misses;
  Alcotest.(check int) "no hits yet" 0 s.hits;
  (* Repeats hit, and return the exact first-computed values. *)
  Alcotest.(check bool) "count hit" true (count = Cache.estimate cache q);
  Alcotest.(check bool)
    "grouped hit" true
    (g0 = Cache.estimate_groups cache ~attrs:[ 0 ] q);
  Alcotest.(check bool)
    "other attrs hit" true
    (g1 = Cache.estimate_groups cache ~attrs:[ 1 ] q);
  let s' = Cache.stats cache in
  Alcotest.(check int) "three hits" 3 s'.hits;
  Alcotest.(check int) "still three entries" 3 s'.entries;
  (* Cached grouped values equal the uncached evaluation. *)
  Alcotest.(check bool)
    "grouped = summary" true
    (g0
    = List.map
        (fun (key, (a : Summary.answer)) -> (key, a.est, sqrt a.var))
        (Summary.groups summary ~attrs:[ 0 ] q))

(* A one-attribute summary with 12 values: the cache tests below only
   need distinct predicates over it. *)
let cache_summary () =
  let schema = make_schema [ 12 ] in
  let rel = random_relation (Prng.create ~seed:705 ()) schema 40 in
  Summary.build ~solver_config:{ Solver.default_config with log_every = 0 }
    rel ~joints:[]

(* Eviction must drop exactly the least-recently-used entries: recency is
   ticked on hits, not just inserts. *)
(* A cache is built on every catalog (re)open; its table must start
   small whatever the eviction bound, not preallocate 2 x capacity
   buckets. *)
let test_cache_starts_small () =
  let allocated f =
    let b0 = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity (f ()));
    Gc.allocated_bytes () -. b0
  in
  let summary = cache_summary () in
  let make capacity () = Cache.create ~capacity summary in
  ignore (allocated (make 16));
  let small = allocated (make 16) and large = allocated (make 4096) in
  Alcotest.(check bool)
    (Printf.sprintf "capacity 4096 allocates %.0f B vs %.0f B at 16" large small)
    true
    (large <= small +. 256.)

let test_cache_eviction_order () =
  let pred k = Predicate.of_alist ~arity:1 [ (0, Ranges.interval 0 k) ] in
  let cache = Cache.create ~capacity:10 (cache_summary ()) in
  (* Fill to capacity: q0..q9, inserted in order. *)
  for k = 0 to 9 do
    ignore (Cache.estimate cache (pred k))
  done;
  (* Touch q0..q8, leaving q9 as the LRU entry despite being newest-inserted. *)
  for k = 0 to 8 do
    ignore (Cache.estimate cache (pred k))
  done;
  let before = Cache.stats cache in
  Alcotest.(check int) "full" 10 before.entries;
  Alcotest.(check int) "warm-up hits" 9 before.hits;
  (* One more insert evicts capacity/10 = 1 entry: q9, the LRU. *)
  ignore (Cache.estimate cache (pred 10));
  let after = Cache.stats cache in
  Alcotest.(check int) "one eviction" 1 after.evictions;
  Alcotest.(check int) "entries bounded" 10 after.entries;
  (* q0 survived (hit); q9 was evicted (miss). *)
  ignore (Cache.estimate cache (pred 0));
  Alcotest.(check int) "LRU-protected entry hits" (after.hits + 1)
    (Cache.stats cache).hits;
  ignore (Cache.estimate cache (pred 9));
  Alcotest.(check int) "evicted entry misses" (after.misses + 1)
    (Cache.stats cache).misses

(* Variance calibration: the closed-form Var = n p (1-p) must match the
   empirical variance of counts over many sampled possible worlds.  A
   marginals-only model keeps the world sampler exact (free attributes
   sample directly from their marginal variables, no Gibbs). *)
let test_variance_calibrated () =
  let schema = make_schema [ 4; 3 ] in
  let rng = Prng.create ~seed:950 () in
  let rel = random_relation rng schema 150 in
  let summary =
    Summary.of_phi ~solver_config:{ Solver.default_config with log_every = 0 }
      (Phi.of_relation rel ~joints:[])
  in
  let sampler = Worlds.create summary in
  let srng = Prng.create ~seed:951 () in
  let queries =
    [
      Predicate.point ~arity:2 [ (0, 0) ];
      Predicate.point ~arity:2 [ (0, 1); (1, 1) ];
      Predicate.of_alist ~arity:2 [ (0, Ranges.interval 0 1) ];
    ]
  in
  let reps = 400 in
  let counts = List.map (fun _ -> Array.make reps 0.) queries in
  for r = 0 to reps - 1 do
    let world = Worlds.sample_instance sampler srng in
    List.iteri
      (fun qi q ->
        (List.nth counts qi).(r) <- float_of_int (Exec.count world q))
      queries
  done;
  List.iteri
    (fun qi q ->
      let theory = (Summary.count summary q).var in
      let empirical = Floatx.variance (List.nth counts qi) in
      (* Sample variance of a variance estimate is itself noisy: accept a
         generous but meaningful band. *)
      if theory > 1. then begin
        let ratio = empirical /. theory in
        if ratio < 0.6 || ratio > 1.6 then
          Alcotest.failf "query %d: empirical var %.2f vs theory %.2f" qi
            empirical theory
      end)
    queries

(* The solver accepts targets that came from no actual relation (noisy or
   privatized statistics).  The block targets below violate the law of
   total probability, so no distribution realizes them and the dual is
   unbounded: the contract is graceful termination — the divergence guard
   stops the iteration, the report says converged = false, the dual trace
   is still monotone, and the final model gives finite, bounded
   estimates. *)
let test_solver_inconsistent_targets () =
  let schema = make_schema [ 4; 4 ] in
  let n = 1000 in
  let rng = Prng.create ~seed:960 () in
  (* Marginals that sum to n per attribute (required), but joint targets
     drawn independently — generally unrealizable exactly. *)
  let marginal_targets =
    Array.init 2 (fun _ ->
        let raw = Array.init 4 (fun _ -> 1. +. Prng.float rng 10.) in
        let total = Array.fold_left ( +. ) 0. raw in
        Array.map (fun x -> x /. total *. float_of_int n) raw)
  in
  let joints =
    [
      ( Predicate.of_alist ~arity:2
          [ (0, Ranges.interval 0 1); (1, Ranges.interval 0 1) ],
        float_of_int (Prng.int rng 500) );
      ( Predicate.of_alist ~arity:2
          [ (0, Ranges.interval 2 3); (1, Ranges.interval 2 3) ],
        float_of_int (Prng.int rng 500) );
    ]
  in
  let phi = Phi.of_targets schema ~n ~marginal_targets ~joints in
  let poly = Poly.create phi in
  let report =
    Solver.solve
      ~config:{ Solver.default_config with max_sweeps = 2000; log_every = 0 }
      poly
  in
  Alcotest.(check bool) "did not claim convergence" false report.converged;
  Alcotest.(check bool) "P finite and non-negative" true
    (Float.is_finite (Poly.p poly) && Poly.p poly >= 0.);
  (* Monotone ascent is only numerically meaningful away from the
     divergence boundary (there, variables reach extreme magnitudes and
     the within-sweep incremental state cancels catastrophically): check
     the first 50 sweeps only. *)
  let rec check k = function
    | a :: (b :: _ as rest) when k < 50 ->
        if b < a -. 1e-4 *. (1. +. Float.abs a) then
          Alcotest.failf "dual decreased early (%g -> %g at sweep %d)" a b k;
        check (k + 1) rest
    | _ -> ()
  in
  check 0 report.dual_trace;
  (* Estimates remain finite and within bounds. *)
  let e =
    Summary.estimate
      (Summary.of_solved_poly ~poly ~report ())
      (Predicate.point ~arity:2 [ (0, 0); (1, 0) ])
  in
  Alcotest.(check bool) "estimate in bounds" true
    (Float.is_finite e && e >= 0. && e <= float_of_int n)

(* ------------------------------------------------------------------ *)
(* Serialization round-trip                                            *)
(* ------------------------------------------------------------------ *)

let test_serialize_roundtrip () =
  let case = random_case 123 in
  let phi = Phi.of_relation case.rel ~joints:case.joints in
  let summary = Summary.of_phi ~solver_config:{ Solver.default_config with log_every = 0 } phi in
  let path = Filename.temp_file "entropydb" ".summary" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Serialize.save summary path;
      let summary' = Serialize.load path in
      let rng = Prng.create ~seed:5 () in
      for _ = 1 to 30 do
        let q = random_query rng (Phi.schema phi) in
        Alcotest.(check (float 1e-6))
          "estimate preserved"
          (Summary.estimate summary q)
          (Summary.estimate summary' q)
      done)

(* Fuzz: truncations and header corruptions of a summary file must raise
   Format_error, never crash or load.  Runs over the current format and
   over a v2 file, which the reader refuses and `upgrade` decodes: both
   must fail cleanly on every cut and every flipped header byte. *)
let test_serialize_fuzz () =
  let case = random_case 124 in
  let phi = Phi.of_relation case.rel ~joints:case.joints in
  let summary =
    Summary.of_phi ~solver_config:{ Solver.default_config with log_every = 0 }
      phi
  in
  let out = Filename.temp_file "entropydb" ".upgraded" in
  let loaders =
    [
      ("load", fun path -> ignore (Serialize.load path));
      ("upgrade", fun path -> Edb_ingest.Ingest.upgrade path out);
    ]
  in
  List.iter
    (fun (what, save) ->
      let path = Filename.temp_file "entropydb" ".summary" in
      Fun.protect
        ~finally:(fun () ->
          Sys.remove path;
          try Sys.remove out with Sys_error _ -> ())
        (fun () ->
          save summary path;
          let original = In_channel.with_open_bin path In_channel.input_all in
          let len = String.length original in
          let rng = Prng.create ~seed:125 () in
          let rejects label =
            List.iter
              (fun (how, f) ->
                match f path with
                | exception Serialize.Format_error _ -> ()
                | exception e ->
                    Alcotest.failf "%s %s: %s raised %s" what label how
                      (Printexc.to_string e)
                | () -> Alcotest.failf "%s %s: %s succeeded" what label how)
              loaders
          in
          (* Truncations at random prefixes. *)
          for _ = 1 to 20 do
            let cut = Prng.int rng len in
            Out_channel.with_open_bin path (fun oc ->
                Out_channel.output_string oc (String.sub original 0 cut));
            rejects (Printf.sprintf "truncation at %d" cut)
          done;
          (* Header byte flips. *)
          for pos = 0 to min 8 (len - 1) do
            let corrupted = Bytes.of_string original in
            Bytes.set corrupted pos
              (Char.chr ((Char.code (Bytes.get corrupted pos) + 1) land 0xff));
            Out_channel.with_open_bin path (fun oc ->
                Out_channel.output_bytes oc corrupted);
            rejects (Printf.sprintf "flip at %d" pos)
          done))
    [ ("current", Serialize.save); ("v2", Summary_files.write_v2) ]

let test_serialize_bad_magic () =
  let path = Filename.temp_file "entropydb" ".summary" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc "NOTADB";
      close_out oc;
      try
        ignore (Serialize.load path);
        Alcotest.fail "expected Format_error"
      with Serialize.Format_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Storage fuzz battery                                                *)
(* ------------------------------------------------------------------ *)

let str_contains hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* One summary + its file + pristine bytes, shared by the corruption
   tests below (the solver build dominates their cost). *)
let v3_fixture =
  lazy
    (let case = random_case 321 in
     let phi = Phi.of_relation case.rel ~joints:case.joints in
     let summary =
       Summary.of_phi
         ~solver_config:{ Solver.default_config with log_every = 0 }
         phi
     in
     let path = Filename.temp_file "entropydb" ".summary" in
     at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
     Serialize.save summary path;
     let original = In_channel.with_open_bin path In_channel.input_all in
     (summary, path, original))

let v3_restore path original =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc original)

(* Every body section, corrupted in isolation: the open stays body-blind
   (it must succeed), and lazy verification must raise a Format_error
   *naming the section*.  A flipped byte can never survive to a silently
   wrong answer because no estimator runs before verification. *)
let test_v3_section_corruption () =
  let summary, path, original = Lazy.force v3_fixture in
  let manifest = Serialize.manifest path in
  let rng = Prng.create ~seed:322 () in
  Fun.protect
    ~finally:(fun () -> v3_restore path original)
    (fun () ->
      List.iter
        (fun (sec : Serialize.section) ->
          let pos = sec.sec_off + Prng.int rng (8 * sec.sec_len) in
          let b = Bytes.of_string original in
          Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x5b));
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_bytes oc b);
          match Serialize.load path with
          | exception e ->
              Alcotest.failf "flip in %s broke the O(1) open: %s" sec.sec_name
                (Printexc.to_string e)
          | m -> (
              match Summary.verify m with
              | exception Serialize.Format_error msg ->
                  if not (str_contains msg sec.sec_name) then
                    Alcotest.failf "flip in %s reported %S" sec.sec_name msg
              | exception e ->
                  Alcotest.failf "flip in %s raised %s" sec.sec_name
                    (Printexc.to_string e)
              | () ->
                  Alcotest.failf "flip in %s passed verification" sec.sec_name))
        manifest.m_parts.(0).pm_sections;
      (* Restored intact, the file serves again, bitwise. *)
      v3_restore path original;
      let q = random_query (Prng.create ~seed:323 ()) (Summary.schema summary) in
      let m = Serialize.load path in
      Summary.verify m;
      Alcotest.(check (float 0.))
        "mapped answer after restore" (Summary.estimate summary q)
        (Summary.estimate m q))

(* A torn header — any flipped byte in the fixed 96-byte prelude — must
   be rejected before the body is ever touched. *)
let test_v3_torn_header () =
  let _, path, original = Lazy.force v3_fixture in
  Fun.protect
    ~finally:(fun () -> v3_restore path original)
    (fun () ->
      for pos = 0 to 95 do
        let b = Bytes.of_string original in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x11));
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_bytes oc b);
        match Serialize.load path with
        | exception Serialize.Format_error _ -> ()
        | exception e ->
            Alcotest.failf "header flip at %d raised %s" pos
              (Printexc.to_string e)
        | _ -> Alcotest.failf "header flip at %d opened" pos
      done)

(* qcheck: random truncations never crash or load; random single-byte
   flips anywhere in the file either fail cleanly as Format_error or —
   when the byte is dead padding outside every checksummed range — leave
   answers bitwise-identical.  "Wrong but plausible" is the one
   forbidden outcome. *)
let v3_fuzz_truncation =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:40 ~name:"v3 random truncation"
       QCheck.(int_range 0 1_000_000)
       (fun x ->
         let _, path, original = Lazy.force v3_fixture in
         let cut = x mod String.length original in
         Fun.protect
           ~finally:(fun () -> v3_restore path original)
           (fun () ->
             Out_channel.with_open_bin path (fun oc ->
                 Out_channel.output_string oc (String.sub original 0 cut));
             match Serialize.load path with
             | exception Serialize.Format_error _ -> true
             | exception _ -> false
             | m -> (
                 match Summary.verify m with
                 | exception Serialize.Format_error _ -> true
                 | exception _ -> false
                 | () -> false))))

let v3_fuzz_flip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"v3 random byte flip"
       QCheck.(pair (int_range 0 1_000_000) (int_range 1 255))
       (fun (x, delta) ->
         let summary, path, original = Lazy.force v3_fixture in
         let pos = x mod String.length original in
         let q =
           random_query (Prng.create ~seed:(x + delta) ())
             (Summary.schema summary)
         in
         let expected = Summary.estimate summary q in
         Fun.protect
           ~finally:(fun () -> v3_restore path original)
           (fun () ->
             let b = Bytes.of_string original in
             Bytes.set b pos
               (Char.chr (Char.code (Bytes.get b pos) lxor delta));
             Out_channel.with_open_bin path (fun oc ->
                 Out_channel.output_bytes oc b);
             match Serialize.load path with
             | exception Serialize.Format_error _ -> true
             | exception _ -> false
             | m -> (
                 match
                   Summary.verify m;
                   Summary.estimate m q
                 with
                 | exception Serialize.Format_error _ -> true
                 | exception _ -> false
                 | v ->
                     (* The flip dodged every checksum: it must have hit
                        padding, so the answer is still bitwise right. *)
                     Int64.equal (Int64.bits_of_float v)
                       (Int64.bits_of_float expected)))))

(* ------------------------------------------------------------------ *)
(* Replaced formats: refused by the reader, converted by upgrade       *)
(* ------------------------------------------------------------------ *)

let quiet_config = { Solver.default_config with log_every = 0 }

let manifest_temp_dir () =
  let path = Filename.temp_file "entropydb-manifest" "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let manifest_rm_rf dir =
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

(* k same-schema summaries over contiguous row ranges of one random
   relation — what lib/shard produces, built here without it so this
   test exercises Serialize alone. *)
let manifest_summaries seed k =
  let rng = Prng.create ~seed () in
  let schema = make_schema [ 5; 4; 3 ] in
  let rel = random_relation rng schema (60 + Prng.int rng 200) in
  let n = Relation.cardinality rel in
  let joints =
    [
      Predicate.of_alist ~arity:3
        [ (0, Ranges.interval 0 2); (1, Ranges.interval 1 3) ];
    ]
  in
  ( schema,
    Array.init k (fun s ->
        let lo = s * n / k and hi = (s + 1) * n / k in
        let part =
          Relation.select_rows rel (Array.init (hi - lo) (fun i -> lo + i))
        in
        Summary.build ~solver_config:quiet_config part ~joints) )

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* What a replaced format's loader answered: the polynomial rebuilt from
   the stored variable vector, which is what [Poly.refresh] computes. *)
let as_reloaded s =
  Array.iter (fun p -> Poly.refresh (Summary.poly p)) (Summary.parts s);
  s

(* [b] answers every probe's COUNT (est, var), SUM and one GROUP BY
   bitwise as [a]. *)
let answers_bitwise what a b queries =
  List.iter
    (fun q ->
      let x = Summary.count a q and y = Summary.count b q in
      if not (same_bits x.est y.est && same_bits x.var y.var) then
        Alcotest.failf "%s: COUNT %h vs %h" what y.est x.est;
      let x = Summary.sum a ~attr:0 q and y = Summary.sum b ~attr:0 q in
      if not (same_bits x.est y.est && same_bits x.var y.var) then
        Alcotest.failf "%s: SUM %h vs %h" what y.est x.est;
      List.iter2
        (fun (_, (x : Summary.answer)) (_, (y : Summary.answer)) ->
          if not (same_bits x.est y.est && same_bits x.var y.var) then
            Alcotest.failf "%s: GROUP BY cell %h vs %h" what y.est x.est)
        (Summary.groups a ~attrs:[ 1 ] q)
        (Summary.groups b ~attrs:[ 1 ] q))
    queries

(* The reader refuses [path] with the upgrade hint. *)
let refused_with_hint what path =
  match Serialize.load path with
  | exception Serialize.Format_error m when str_contains m "entropydb upgrade"
    ->
      ()
  | exception e -> Alcotest.failf "%s: load raised %s" what (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: a replaced format loaded" what

(* A k-part manifest written the old way converts through upgrade into
   one file whose parts answer bitwise as the manifest's parts did. *)
let sharded_manifest_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:8 ~name:"sharded manifest round-trip"
       QCheck.(pair (int_range 0 10_000) (int_range 1 3))
       (fun (seed, k) ->
         let schema, summaries = manifest_summaries seed k in
         let dir = manifest_temp_dir () in
         Fun.protect
           ~finally:(fun () -> manifest_rm_rf dir)
           (fun () ->
             let path = Filename.concat dir "s.edb" in
             let whole = Summary.of_parts ~strategy:"rows" summaries in
             Summary_files.write_manifest whole path;
             refused_with_hint "manifest" path;
             let out = Filename.concat dir "s.upgraded" in
             Edb_ingest.Ingest.upgrade path out;
             let loaded = Serialize.load out in
             let rng = Prng.create ~seed:(seed + 1) () in
             answers_bitwise "upgraded manifest" (as_reloaded whole) loaded
               (List.init 10 (fun _ -> random_query rng schema));
             Summary.strategy loaded = "rows"
             && Summary.num_parts loaded = k
             && Array.for_all2
                  (fun a b -> Summary.cardinality a = Summary.cardinality b)
                  summaries (Summary.parts loaded))))

let manifest_summary_other_schema () =
  let rng = Prng.create ~seed:654 () in
  let schema = make_schema [ 3; 3 ] in
  let rel = random_relation rng schema 50 in
  Summary.build ~solver_config:quiet_config rel ~joints:[]

(* Every corruption mode of an old manifest must surface as Format_error
   in upgrade — never an unhandled exception and never a bogus file —
   and the reader refuses the manifest itself whatever its bytes. *)
let test_sharded_manifest_corruption () =
  let _, summaries = manifest_summaries 987 2 in
  let dir = manifest_temp_dir () in
  Fun.protect
    ~finally:(fun () -> manifest_rm_rf dir)
    (fun () ->
      let path = Filename.concat dir "s.edb" in
      let out = Filename.concat dir "out.edb" in
      Summary_files.write_manifest
        (Summary.of_parts ~strategy:"rows" summaries)
        path;
      let original = In_channel.with_open_bin path In_channel.input_all in
      let len = String.length original in
      let write bytes =
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc bytes)
      in
      let expect_format_error what =
        (match Serialize.load path with
        | exception Serialize.Format_error _ -> ()
        | exception e ->
            Alcotest.failf "%s: load raised %s" what (Printexc.to_string e)
        | _ -> Alcotest.failf "%s: load succeeded" what);
        match Edb_ingest.Ingest.upgrade path out with
        | exception Serialize.Format_error _ -> ()
        | exception e ->
            Alcotest.failf "%s raised %s" what (Printexc.to_string e)
        | () -> Alcotest.failf "%s upgraded successfully" what
      in
      (* Bad magic: flip the version tag byte so it is no format. *)
      let bad = Bytes.of_string original in
      Bytes.set bad 9 '\x07';
      write (Bytes.to_string bad);
      expect_format_error "bad magic";
      (* Truncation at every prefix. *)
      for cut = 0 to len - 1 do
        write (String.sub original 0 cut);
        expect_format_error (Printf.sprintf "truncation at %d" cut)
      done;
      (* Shard-count field vs. name list: the count lives right after the
         strategy string ("rows"), big-endian at offset 10+4+4+4.  Too
         large reads past the names; too small leaves trailing bytes.
         Both are count/list disagreements and must fail. *)
      let count_off = 10 + 4 + 4 + String.length "rows" in
      let patch_count v =
        let b = Bytes.of_string original in
        Bytes.set_int32_be b count_off (Int32.of_int v);
        write (Bytes.to_string b)
      in
      patch_count 3;
      expect_format_error "count too large";
      patch_count 1;
      expect_format_error "count too small";
      patch_count 0;
      expect_format_error "count zero";
      patch_count 2_000_000;
      expect_format_error "implausible count";
      (* Restore the manifest; now attack the shard files. *)
      write original;
      let shard1 = Filename.concat dir "s.edb.shard1" in
      let shard1_bytes = In_channel.with_open_bin shard1 In_channel.input_all in
      Sys.remove shard1;
      expect_format_error "missing shard file";
      (* A shard whose schema disagrees with shard 0. *)
      Summary_files.write_v2 (manifest_summary_other_schema ()) shard1;
      expect_format_error "shard schema mismatch";
      (* Restored intact, it upgrades again. *)
      Out_channel.with_open_bin shard1 (fun oc ->
          Out_channel.output_string oc shard1_bytes);
      Edb_ingest.Ingest.upgrade path out;
      let loaded = Serialize.load out in
      Alcotest.(check string) "strategy back" "rows" (Summary.strategy loaded);
      Alcotest.(check int) "both shards back" 2 (Summary.num_parts loaded))

(* v1, v2, a k = 2 manifest and a version-3 file: each is refused by the
   reader with the upgrade hint, and upgrades — to a new path and in
   place — to a file answering bitwise as the original did. *)
let test_upgrade_answers_bitwise () =
  let case = random_case 331 in
  let schema = Relation.schema case.rel in
  let build () =
    Summary.of_phi ~solver_config:quiet_config
      (Phi.of_relation case.rel ~joints:case.joints)
  in
  let rng = Prng.create ~seed:332 () in
  let queries = List.init 30 (fun _ -> random_query rng schema) in
  let dir = manifest_temp_dir () in
  Fun.protect
    ~finally:(fun () -> manifest_rm_rf dir)
    (fun () ->
      List.iter
        (fun (what, write, original) ->
          let path = Filename.concat dir what in
          write original path;
          refused_with_hint what path;
          let out = Filename.concat dir (what ^ ".upgraded") in
          Edb_ingest.Ingest.upgrade path out;
          answers_bitwise what (as_reloaded original) (Serialize.load out)
            queries;
          (* In place: NEW may be OLD. *)
          Edb_ingest.Ingest.upgrade path path;
          answers_bitwise (what ^ " in place") original (Serialize.load path)
            queries;
          (* A current-format file upgrades to itself. *)
          Edb_ingest.Ingest.upgrade out out;
          answers_bitwise (what ^ " twice") original (Serialize.load out)
            queries)
        [
          ("v1", Summary_files.write_v1, build ());
          ("v2", Summary_files.write_v2, build ());
          ( "manifest",
            Summary_files.write_manifest,
            Edb_shard.Builder.build ~solver_config:quiet_config case.rel
              ~shards:2 ~strategy:Edb_shard.Partition.Rows
              ~joints:case.joints );
          ("version3", Summary_files.write_v3, build ());
        ])

(* ------------------------------------------------------------------ *)
(* Possible-world sampling                                             *)
(* ------------------------------------------------------------------ *)

let test_worlds_distribution () =
  (* Small model: compare empirical tuple frequencies from the Gibbs
     sampler with the exact distribution from brute force. *)
  let schema = make_schema [ 3; 3 ] in
  let rng = Prng.create ~seed:21 () in
  let rel = random_relation rng schema 200 in
  let joints =
    [
      Predicate.of_alist ~arity:2
        [ (0, Ranges.interval 0 1); (1, Ranges.interval 1 2) ];
    ]
  in
  let phi = Phi.of_relation rel ~joints in
  let summary = Summary.of_phi ~solver_config:{ Solver.default_config with log_every = 0 } phi in
  let bf = Bruteforce.create phi in
  let alpha =
    Array.init (Phi.num_stats phi) (fun j -> Poly.alpha (Summary.poly summary) j)
  in
  let probs = Bruteforce.tuple_probabilities bf alpha in
  let sampler = Worlds.create summary in
  let srng = Prng.create ~seed:99 () in
  let counts = Hashtbl.create 16 in
  let draws = 20_000 in
  for _ = 1 to draws do
    let t = Worlds.sample_tuple ~sweeps:6 sampler srng in
    let key = (t.(0) * 3) + t.(1) in
    Hashtbl.replace counts key
      (1 + Option.value (Hashtbl.find_opt counts key) ~default:0)
  done;
  Array.iteri
    (fun idx p ->
      let tuple = Bruteforce.tuple bf idx in
      let key = (tuple.(0) * 3) + tuple.(1) in
      let emp =
        float_of_int (Option.value (Hashtbl.find_opt counts key) ~default:0)
        /. float_of_int draws
      in
      (* 4-sigma binomial tolerance plus slack for Gibbs mixing. *)
      let tol = (4. *. sqrt (p *. (1. -. p) /. float_of_int draws)) +. 0.01 in
      if Float.abs (emp -. p) > tol then
        Alcotest.failf "tuple %d: empirical %.4f vs exact %.4f (tol %.4f)" idx
          emp p tol)
    probs

let test_worlds_respects_zero_statistics () =
  (* A ZERO statistic pins its rectangle's probability to 0 (delta = 0);
     the world sampler must never emit a tuple inside it. *)
  let schema = make_schema [ 4; 4 ] in
  let rows = ref [] in
  let rng = Prng.create ~seed:44 () in
  for _ = 1 to 300 do
    (* Keep the block [0,1]x[0,1] empty. *)
    let a = Prng.int rng 4 and b = Prng.int rng 4 in
    let a, b = if a <= 1 && b <= 1 then (a + 2, b) else (a, b) in
    rows := [| a; b |] :: !rows
  done;
  let rel = Relation.of_rows schema !rows in
  let zero_block =
    Predicate.of_alist ~arity:2
      [ (0, Ranges.interval 0 1); (1, Ranges.interval 0 1) ]
  in
  Alcotest.(check int) "block is empty" 0 (Exec.count rel zero_block);
  let summary =
    Summary.of_phi ~solver_config:{ Solver.default_config with log_every = 0 }
      (Phi.of_relation rel ~joints:[ zero_block ])
  in
  let sampler = Worlds.create summary in
  let srng = Prng.create ~seed:45 () in
  for _ = 1 to 3_000 do
    let t = Worlds.sample_tuple sampler srng in
    if t.(0) <= 1 && t.(1) <= 1 then
      Alcotest.failf "sampled a zero-probability tuple (%d, %d)" t.(0) t.(1)
  done

let test_sample_instance_size () =
  let case = random_case 11 in
  let phi = Phi.of_relation case.rel ~joints:case.joints in
  let summary = Summary.of_phi ~solver_config:{ Solver.default_config with log_every = 0 } phi in
  let sampler = Worlds.create summary in
  let inst = Worlds.sample_instance ~rows:123 sampler (Prng.create ~seed:1 ()) in
  Alcotest.(check int) "rows" 123 (Relation.cardinality inst)

(* Parallel restricted evaluation must agree bit-for-bit in structure with
   sequential evaluation; forcing the threshold to 1 exercises the domain
   chunking even on small models.  The weighted pass runs the same
   kernel, so it is held to the same agreement, with signed weights
   (unclamped groups) and with non-negative ones (clamped). *)
let test_parallel_eval_matches_sequential () =
  let case = random_case 500 in
  let phi = Phi.of_relation case.rel ~joints:case.joints in
  let poly = Poly.create phi in
  let rng = Prng.create ~seed:501 () in
  randomize_alphas rng poly phi;
  let schema = Phi.schema phi in
  let queries = List.init 15 (fun _ -> random_query rng schema) in
  let weights ~signed =
    let attr = Prng.int rng (Schema.arity schema) in
    let table =
      Array.init (Schema.domain_size schema attr) (fun _ ->
          if signed then Prng.float rng 4. -. 2. else Prng.float rng 3.)
    in
    if signed then table.(0) <- -1.;
    [ (attr, fun v -> table.(v)) ]
  in
  let weighted =
    List.concat_map
      (fun q -> [ (q, weights ~signed:true); (q, weights ~signed:false) ])
      queries
  in
  let answers () =
    List.map (fun q -> ("count", Poly.eval_restricted poly q)) queries
    @ List.map
        (fun (q, weights) -> ("weighted", Poly.eval_weighted poly q ~weights))
        weighted
  in
  Poly.set_parallelism ~threshold:30_000 1;
  let seq = answers () in
  Poly.set_parallelism ~threshold:1 4;
  let par = answers () in
  Poly.set_parallelism ~threshold:30_000 1;
  List.iter2
    (fun (what, a) (_, b) ->
      if not (Floatx.approx_eq ~rtol:1e-9 a b) then
        Alcotest.failf "parallel %s mismatch: %.12g vs %.12g" what a b)
    seq par

(* ------------------------------------------------------------------ *)
(* Disjunctions (inclusion–exclusion)                                  *)
(* ------------------------------------------------------------------ *)

let test_disjunction_inclusion_exclusion () =
  (* E[q1 OR q2] computed by Disjunction must equal the direct expansion
     E[q1] + E[q2] - E[q1 AND q2], and more generally match a brute-force
     union evaluation on random models. *)
  for seed = 400 to 405 do
    let case = random_case seed in
    let phi = Phi.of_relation case.rel ~joints:case.joints in
    let summary =
      Summary.of_phi
        ~solver_config:{ Solver.default_config with log_every = 0 }
        phi
    in
    let bf = Bruteforce.create phi in
    let alpha =
      Array.init (Phi.num_stats phi) (fun j ->
          Poly.alpha (Summary.poly summary) j)
    in
    let rng = Prng.create ~seed:(seed + 1) () in
    let schema = Phi.schema phi in
    for _ = 1 to 5 do
      let d = 1 + Prng.int rng 3 in
      let preds = List.init d (fun _ -> random_query rng schema) in
      let fast = Summary.count_disjuncts summary preds in
      (* Reference: per-tuple union membership via brute force; the
         union's count is Binomial(n, m). *)
      let n = float_of_int (Phi.n phi) in
      let m =
        let probs = Bruteforce.tuple_probabilities bf alpha in
        let m = ref 0. in
        Array.iteri
          (fun idx p ->
            let tuple = Bruteforce.tuple bf idx in
            if List.exists (fun q -> Predicate.matches_row q tuple) preds
            then m := !m +. p)
          probs;
        !m
      in
      if not (Floatx.approx_eq ~rtol:1e-6 ~atol:1e-6 fast.est (n *. m)) then
        Alcotest.failf "%s: disjunction %.8g vs brute force %.8g" case.descr
          fast.est (n *. m);
      let var = n *. m *. (1. -. m) in
      if not (Floatx.approx_eq ~rtol:1e-6 ~atol:1e-6 fast.var var) then
        Alcotest.failf "%s: disjunction variance %.8g vs brute force %.8g"
          case.descr fast.var var
    done
  done

let test_disjunction_guards () =
  let case = random_case 410 in
  let phi = Phi.of_relation case.rel ~joints:case.joints in
  let summary =
    Summary.of_phi ~solver_config:{ Solver.default_config with log_every = 0 }
      phi
  in
  (try
     ignore (Summary.count_disjuncts summary []);
     Alcotest.fail "empty disjunction must raise"
   with Invalid_argument _ -> ());
  let arity = Schema.arity (Phi.schema phi) in
  let taut = Predicate.tautology arity in
  (try
     ignore (Summary.count_disjuncts summary (List.init 11 (fun _ -> taut)));
     Alcotest.fail "too many disjuncts must raise"
   with Invalid_argument _ -> ());
  (* Union with the tautology is everything. *)
  Alcotest.(check (float 1e-6))
    "union with true = n"
    (float_of_int (Summary.cardinality summary))
    (Summary.count_disjuncts summary [ taut; taut ]).est;
  (* Probability bounded. *)
  let p = snd (Disjunction.count (Summary.poly summary) [ taut ]) in
  Alcotest.(check (float 1e-9)) "P[true] = 1" 1. p

(* ------------------------------------------------------------------ *)
(* Hierarchical summaries (Sec. 7 extension)                           *)
(* ------------------------------------------------------------------ *)

let quiet = { Solver.default_config with log_every = 0 }

let test_hierarchy_identity_buckets () =
  (* One bucket per value and no refinement: the hierarchy must agree with
     a flat summary of the same relation. *)
  let schema = make_schema [ 6; 4 ] in
  let rng = Prng.create ~seed:90 () in
  let rel = random_relation rng schema 400 in
  let flat = Summary.of_phi ~solver_config:quiet (Phi.of_relation rel ~joints:[]) in
  let h =
    Hierarchy.build ~solver_config:quiet rel ~attr:0
      ~boundaries:(Array.init 6 Fun.id) ~refine:(`Buckets [])
  in
  let qrng = Prng.create ~seed:91 () in
  for _ = 1 to 20 do
    let q = random_query qrng schema in
    Alcotest.(check (float 1e-3))
      "flat = hierarchical"
      (Summary.estimate flat q)
      (Hierarchy.estimate h q)
  done

let test_hierarchy_total_mass () =
  let schema = make_schema [ 8; 5 ] in
  let rng = Prng.create ~seed:92 () in
  let rel = random_relation rng schema 500 in
  let h =
    Hierarchy.build ~solver_config:quiet rel ~attr:0 ~boundaries:[| 0; 3; 6 |]
      ~refine:(`Top_k 2)
  in
  Alcotest.(check int) "two refined" 2 (Hierarchy.num_refined h);
  Alcotest.(check (float 0.5))
    "E[true] = n" 500.
    (Hierarchy.estimate h (Predicate.tautology 2))

let test_hierarchy_refinement_helps () =
  (* Within one coarse bucket the drill attribute is extremely skewed:
     value 0 holds almost everything.  The root alone spreads the bucket's
     mass uniformly; the refined hierarchy recovers the skew. *)
  let schema = make_schema [ 6; 3 ] in
  let rows = ref [] in
  let rng = Prng.create ~seed:93 () in
  for _ = 1 to 300 do
    (* Bucket {0,1,2}: 95% on value 0. *)
    let v = if Prng.unit_float rng < 0.95 then 0 else 1 + Prng.int rng 2 in
    rows := [| v; Prng.int rng 3 |] :: !rows
  done;
  for _ = 1 to 100 do
    rows := [| 3 + Prng.int rng 3; Prng.int rng 3 |] :: !rows
  done;
  let rel = Relation.of_rows schema !rows in
  let refined =
    Hierarchy.build ~solver_config:quiet rel ~attr:0 ~boundaries:[| 0; 3 |]
      ~refine:(`Top_k 1)
  in
  let unrefined =
    Hierarchy.build ~solver_config:quiet rel ~attr:0 ~boundaries:[| 0; 3 |]
      ~refine:(`Buckets [])
  in
  let q = Predicate.point ~arity:2 [ (0, 0) ] in
  let truth = float_of_int (Exec.count rel q) in
  let err est = Float.abs (est -. truth) /. truth in
  let e_refined = err (Hierarchy.estimate refined q) in
  let e_unrefined = err (Hierarchy.estimate unrefined q) in
  Alcotest.(check bool)
    (Printf.sprintf "refined %.3f < unrefined %.3f" e_refined e_unrefined)
    true
    (e_refined < e_unrefined /. 2.);
  Alcotest.(check bool) "refined is accurate" true (e_refined < 0.05)

let test_hierarchy_validation () =
  let schema = make_schema [ 6; 3 ] in
  let rng = Prng.create ~seed:94 () in
  let rel = random_relation rng schema 100 in
  let expect_invalid f =
    try
      ignore (f ());
      Alcotest.fail "expected Invalid_argument"
    with Invalid_argument _ -> ()
  in
  expect_invalid (fun () ->
      Hierarchy.build ~solver_config:quiet rel ~attr:0 ~boundaries:[| 1; 3 |]
        ~refine:(`Buckets []));
  expect_invalid (fun () ->
      Hierarchy.build ~solver_config:quiet rel ~attr:0 ~boundaries:[| 0; 3; 3 |]
        ~refine:(`Buckets []));
  expect_invalid (fun () ->
      Hierarchy.build ~solver_config:quiet rel ~attr:0 ~boundaries:[| 0; 9 |]
        ~refine:(`Buckets []));
  expect_invalid (fun () ->
      Hierarchy.build ~solver_config:quiet rel ~attr:0 ~boundaries:[| 0; 3 |]
        ~refine:(`Buckets [ 7 ]))

(* ------------------------------------------------------------------ *)
(* Edge cases: degenerate clauses, single-bucket domains               *)
(* ------------------------------------------------------------------ *)

let test_disjunction_edge_clauses () =
  let schema = make_schema [ 5; 4 ] in
  let rng = Prng.create ~seed:420 () in
  let rel = random_relation rng schema 300 in
  let summary =
    Summary.of_phi ~solver_config:quiet (Phi.of_relation rel ~joints:[])
  in
  let n = float_of_int (Summary.cardinality summary) in
  let q = Predicate.of_alist ~arity:2 [ (0, Ranges.interval 1 3) ] in
  let unsat = Predicate.of_alist ~arity:2 [ (1, Ranges.empty) ] in
  (* An unsatisfiable clause contributes exactly nothing: alone and as a
     disjunct (its intersections with the others are unsatisfiable too,
     so the whole inclusion–exclusion sum for it collapses). *)
  Alcotest.(check (float 1e-9))
    "unsat alone" 0.
    (or_estimate summary [ unsat ]);
  Alcotest.(check (float 1e-9))
    "unsat clause drops out"
    (or_estimate summary [ q ])
    (or_estimate summary [ q; unsat ]);
  (* A clause explicitly enumerating an attribute's whole domain is the
     tautology in disguise; with any other clause it absorbs the union. *)
  let full = Predicate.of_alist ~arity:2 [ (0, Ranges.interval 0 4) ] in
  Alcotest.(check (float 1e-6))
    "explicit full-domain clause = n" n
    (or_estimate summary [ full ]);
  Alcotest.(check (float 1e-6))
    "full-domain clause absorbs" n
    (or_estimate summary [ q; full ]);
  Alcotest.(check (float 1e-9))
    "singleton OR = plain estimate"
    (Summary.estimate summary q)
    (or_estimate summary [ q ])

let test_single_bucket_attribute () =
  (* A degenerate attribute whose active domain has exactly one value:
     restricting to it is a no-op, excluding it empties the relation,
     and grouping by it yields the one total cell. *)
  let schema = make_schema [ 1; 4 ] in
  let rng = Prng.create ~seed:421 () in
  let rel = random_relation rng schema 200 in
  let summary =
    Summary.of_phi ~solver_config:quiet (Phi.of_relation rel ~joints:[])
  in
  let n = float_of_int (Summary.cardinality summary) in
  Alcotest.(check (float 1e-6))
    "restricting to the only value = n" n
    (Summary.estimate summary (Predicate.point ~arity:2 [ (0, 0) ]));
  Alcotest.(check (float 1e-9))
    "excluding the only value = 0" 0.
    (Summary.estimate summary
       (Predicate.of_alist ~arity:2 [ (0, Ranges.empty) ]));
  (* Marginal-only model: restrictions on the other attribute stay exact. *)
  let q =
    Predicate.of_alist ~arity:2
      [ (0, Ranges.singleton 0); (1, Ranges.interval 1 2) ]
  in
  Alcotest.(check (float 0.5))
    "1D restriction exact"
    (float_of_int (Exec.count rel q))
    (Summary.estimate summary q);
  (match group_estimates summary ~attrs:[ 0 ] (Predicate.tautology 2) with
  | [ ([ 0 ], total) ] ->
      Alcotest.(check (float 1e-6)) "one group cell = n" n total
  | cells -> Alcotest.failf "expected one cell, got %d" (List.length cells));
  Alcotest.(check (float 1e-9))
    "disjunction over the degenerate schema"
    (Summary.estimate summary q)
    (or_estimate summary [ q ])

let test_hierarchy_edges () =
  let schema = make_schema [ 6; 3 ] in
  let rng = Prng.create ~seed:422 () in
  let rel = random_relation rng schema 250 in
  (* Top_k 0: a legal request for no refinement at all. *)
  let h0 =
    Hierarchy.build ~solver_config:quiet rel ~attr:0 ~boundaries:[| 0; 3 |]
      ~refine:(`Top_k 0)
  in
  Alcotest.(check int) "Top_k 0 refines nothing" 0 (Hierarchy.num_refined h0);
  Alcotest.(check (float 0.5))
    "unrefined mass" 250.
    (Hierarchy.estimate h0 (Predicate.tautology 2));
  (* One bucket covering the whole domain, refined: every drill query is
     answered by the sub-summary, so the hierarchy matches a flat build. *)
  let h1 =
    Hierarchy.build ~solver_config:quiet rel ~attr:0 ~boundaries:[| 0 |]
      ~refine:(`Buckets [ 0 ])
  in
  Alcotest.(check int) "single refined bucket" 1 (Hierarchy.num_refined h1);
  let flat =
    Summary.of_phi ~solver_config:quiet (Phi.of_relation rel ~joints:[])
  in
  let qrng = Prng.create ~seed:423 () in
  for _ = 1 to 10 do
    let q = random_query qrng schema in
    Alcotest.(check (float 1e-3))
      "one refined bucket = flat"
      (Summary.estimate flat q)
      (Hierarchy.estimate h1 q)
  done;
  (* Same single bucket left unrefined: total mass must still be exact. *)
  let h2 =
    Hierarchy.build ~solver_config:quiet rel ~attr:0 ~boundaries:[| 0 |]
      ~refine:(`Buckets [])
  in
  Alcotest.(check (float 0.5))
    "single coarse bucket mass" 250.
    (Hierarchy.estimate h2 (Predicate.tautology 2));
  (* Degenerate drill attribute with a single value. *)
  let schema1 = make_schema [ 1; 4 ] in
  let rel1 = random_relation rng schema1 150 in
  let h3 =
    Hierarchy.build ~solver_config:quiet rel1 ~attr:0 ~boundaries:[| 0 |]
      ~refine:(`Top_k 1)
  in
  Alcotest.(check int) "degenerate drill refined" 1 (Hierarchy.num_refined h3);
  Alcotest.(check (float 0.5))
    "degenerate drill mass" 150.
    (Hierarchy.estimate h3 (Predicate.tautology 2))

(* ------------------------------------------------------------------ *)
(* Compression accounting                                              *)
(* ------------------------------------------------------------------ *)

let test_compression_smaller () =
  let case = random_case 200 in
  let phi = Phi.of_relation case.rel ~joints:case.joints in
  let poly = Poly.create phi in
  let compressed = float_of_int (Poly.num_terms poly) in
  Alcotest.(check bool)
    "compressed <= uncompressed" true
    (compressed <= Poly.uncompressed_monomials poly)

let test_term_cap () =
  let case = random_case 201 in
  match
    Phi.of_relation case.rel ~joints:case.joints |> fun phi ->
    if List.length case.joints < 2 then raise (Poly.Too_many_terms { cap = 1; group_attrs = [] })
    else Poly.create ~term_cap:1 phi
  with
  | exception Poly.Too_many_terms _ -> ()
  | _poly -> Alcotest.fail "expected Too_many_terms with cap 1"

(* ------------------------------------------------------------------ *)
(* Allocation regression: steady-state cost of the flat kernel         *)
(* ------------------------------------------------------------------ *)

(* Minor-heap words allocated per call of [f]: warm up (first calls may
   claim scratch, fill caches), then bracket a batch so fixed costs
   amortize away. *)
let minor_words_per_call f =
  f ();
  f ();
  let n = 200 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let check_words_cap name cap w =
  Alcotest.(check bool)
    (Fmt.str "%s: %.1f minor words/call (cap %.0f)" name w cap)
    true (w <= cap)

let test_kernel_allocation () =
  if Edb_obs.Obs.enabled () then
    (* Tracing wraps every evaluation in a span (closure + clock reads),
       which allocates by design; the steady-state guarantee only holds
       with observability off, so the EDB_TRACE=1 leg skips this. *)
    ()
  else begin
    (* Wide pivot domain so a per-cell result vector (the pre-SoA
       behavior of GROUP BY) would dominate the budget. *)
    let schema = make_schema [ 64; 3; 4 ] in
    let rng = Prng.create ~seed:77 () in
    let rel = random_relation rng schema 400 in
    let s = Summary.of_phi ~solver_config:quiet (Phi.of_relation rel ~joints:[]) in
    let poly = Summary.poly s in
    let q =
      Predicate.of_alist ~arity:3
        [ (1, Ranges.interval 0 1); (2, Ranges.interval 1 3) ]
    in
    (* The scalar kernel: zero-allocation steady state (a few words of
       headroom for the boxed float return at the call boundary). *)
    check_words_cap "eval_restricted" 16.
      (minor_words_per_call (fun () -> ignore (Poly.eval_restricted poly q)));
    (* The batched kernel into a caller-owned buffer: same budget. *)
    let out = Array.make (Schema.domain_size schema 0) 0. in
    check_words_cap "eval_restricted_by_value_into" 16.
      (minor_words_per_call (fun () ->
           Poly.eval_restricted_by_value_into poly q ~attr:0 ~out));
    (* GROUP BY reuses one kernel buffer across the cross product.  The
       remaining budget is the cell list itself (~70 words per cell for
       key/tuple/boxed floats/sort) plus per-combination predicates;
       revived per-evaluation kernel scratch (the pre-SoA behavior,
       hundreds of words per cell) would blow through the cap. *)
    let cells = 64 * 6 in
    check_words_cap "Summary.groups"
      (100. *. float_of_int cells)
      (minor_words_per_call (fun () ->
           ignore (Summary.groups s ~attrs:[ 0; 1; 2 ] q)))
  end

(* ------------------------------------------------------------------ *)
(* One evaluator: a file answers as the summary that wrote it          *)
(* ------------------------------------------------------------------ *)

(* The bench-kernel summary shape, scaled down: flights-fine with
   Composite joints over (origin, distance), 151 terms.  origin sits in
   the statistic group, so GROUP BY origin takes the batched kernel's
   scatter path; fl_time is free. *)
let one_evaluator_fixture =
  lazy
    (let module F = Edb_datagen.Flights in
     let rel = (F.generate ~rows:2000 ~seed:1 ()).F.fine in
     let joints =
       Edb_select.Heuristic.select Edb_select.Heuristic.Composite rel
         ~attr1:F.origin ~attr2:F.distance ~budget:150
     in
     let summary =
       Summary.of_phi ~solver_config:quiet (Phi.of_relation rel ~joints)
     in
     let path = Filename.temp_file "entropydb" ".summary" in
     at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
     Serialize.save summary path;
     (summary, path))

(* The same relation partitioned three ways by rows. *)
let k3_fixture =
  lazy
    (let module F = Edb_datagen.Flights in
     let rel = (F.generate ~rows:2000 ~seed:1 ()).F.fine in
     let joints =
       Edb_select.Heuristic.select Edb_select.Heuristic.Composite rel
         ~attr1:F.origin ~attr2:F.distance ~budget:60
     in
     Edb_shard.Builder.build ~solver_config:quiet rel ~shards:3
       ~strategy:Edb_shard.Partition.Rows ~joints)

(* Every estimator surface of [m], each forced to run on its own. *)
let estimator_surfaces m q q' =
  let schema = Summary.schema m in
  [
    ("count", fun () -> ignore (Summary.count m q));
    ("sum", fun () -> ignore (Summary.sum m ~attr:0 q));
    ( "groups",
      fun () ->
        ignore (Summary.groups m ~attrs:[ Schema.arity schema - 1 ] q) );
    ("count_disjuncts", fun () -> ignore (Summary.count_disjuncts m [ q; q' ]));
    ("estimate_avg", fun () -> ignore (Summary.estimate_avg m ~attr:0 q));
  ]

(* Crafted files: one element of one index table of group 0 overwritten
   with an out-of-range value, and every checksum recomputed, so only
   the reader's range checks stand between the edit and the evaluator.
   Every estimator must raise a Format_error naming the section, and
   none may crash. *)
let range_checked_tables =
  [ "fa_off"; "fa_attr"; "iv_off"; "iv_lo"; "iv_hi"; "t_mask"; "mask_bits" ]

(* An out-of-range value for element [i] of [table], [r] >= 0 steps past
   the bound the reader enforces. *)
let out_of_range (m : Serialize.manifest) table ~r =
  let p = m.m_parts.(0) in
  let len name =
    (List.find
       (fun (s : Serialize.section) -> s.sec_name = "g0." ^ name)
       p.pm_sections)
      .sec_len
  in
  match table with
  | "fa_off" -> len "fa_attr" + 1 + r
  | "fa_attr" -> Schema.arity m.m_schema + r
  | "iv_off" -> len "iv_lo" + 1 + r
  | "iv_lo" -> -1 - r
  | "iv_hi" -> 1_000_000 + r
  | "t_mask" -> len "mask_bits" + r
  | _ -> (1 lsl Array.length p.pm_groups.(0).gm_attrs) + r

let crafted_index_tables =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:40 ~name:"out-of-range index tables"
       QCheck.(
         triple
           (int_range 0 (List.length range_checked_tables - 1))
           (int_range 0 1_000_000) (int_range 0 1000))
       (fun (ti, x, r) ->
         let summary, pristine = Lazy.force one_evaluator_fixture in
         let table = List.nth range_checked_tables ti in
         let path = Filename.temp_file "entropydb-crafted" ".summary" in
         Fun.protect
           ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
           (fun () ->
             Out_channel.with_open_bin path (fun oc ->
                 Out_channel.output_string oc
                   (In_channel.with_open_bin pristine In_channel.input_all));
             let m = Serialize.manifest path in
             let name = "g0." ^ table in
             let sec =
               List.find
                 (fun (s : Serialize.section) -> s.sec_name = name)
                 m.m_parts.(0).pm_sections
             in
             Summary_files.poke path ~name ~index:(x mod sec.sec_len)
               (out_of_range m table ~r);
             let rng = Prng.create ~seed:x () in
             let q = random_query rng (Summary.schema summary) in
             let q' = random_query rng (Summary.schema summary) in
             List.for_all
               (fun (what, f) ->
                 match f () with
                 | exception Serialize.Format_error msg when str_contains msg name
                   ->
                     true
                 | exception e ->
                     QCheck.Test.fail_reportf "%s over a bad %s raised %s" what
                       name (Printexc.to_string e)
                 | () ->
                     QCheck.Test.fail_reportf "%s answered over a bad %s" what
                       name)
               (estimator_surfaces (Serialize.load path) q q'))))

(* Heap and mapped summaries share one evaluator, parallel path included,
   so they agree bit for bit at any parallelism. *)
let test_heap_mapped_one_answer () =
  let heap, path = Lazy.force one_evaluator_fixture in
  let schema = Summary.schema heap in
  let rng = Prng.create ~seed:812 () in
  let queries = List.init 200 (fun _ -> random_query rng schema) in
  let disjunctions =
    List.init 40 (fun _ -> [ random_query rng schema; random_query rng schema ])
  in
  let check_at label =
    let mapped = Serialize.load path in
    let differ = ref [] in
    let same what a b = if not (same_bits a b) then differ := what :: !differ in
    List.iter
      (fun q ->
        let h = Summary.count heap q and m = Summary.count mapped q in
        same "COUNT" h.est m.est;
        same "COUNT variance" h.var m.var;
        let sum s = Summary.sum s ~attr:Edb_datagen.Flights.distance q in
        let h = sum heap and m = sum mapped in
        same "SUM" h.est m.est;
        same "SUM variance" h.var m.var;
        List.iter
          (fun (what, attrs) ->
            List.iter2
              (fun (hk, (h : Summary.answer)) (mk, (m : Summary.answer)) ->
                if hk <> mk then differ := what :: !differ;
                same what h.est m.est;
                same what h.var m.var)
              (Summary.groups heap ~attrs q)
              (Summary.groups mapped ~attrs q))
          [
            ("GROUP BY grouped", [ Edb_datagen.Flights.origin ]);
            ("GROUP BY free", [ Edb_datagen.Flights.fl_time ]);
          ])
      queries;
    List.iter
      (fun d ->
        let h = Summary.count_disjuncts heap d
        and m = Summary.count_disjuncts mapped d in
        same "OR" h.est m.est;
        same "OR variance" h.var m.var)
      disjunctions;
    match !differ with
    | [] -> ()
    | d ->
        Alcotest.failf "%s: %d heap/mapped answers differ bitwise (%s ...)"
          label (List.length d) (List.hd d)
  in
  Fun.protect
    ~finally:(fun () ->
      Poly.set_parallelism ~threshold:30_000 (Parallel.default_domains ()))
    (fun () ->
      Poly.set_parallelism ~threshold:1 4;
      check_at "4 domains, threshold 1";
      Poly.set_parallelism ~threshold:30_000 1;
      check_at "1 domain")

(* Nothing writes through a mapping: the solver and every update raise,
   and the file and the answers are untouched afterwards. *)
let test_mapped_is_read_only () =
  let heap, path = Lazy.force one_evaluator_fixture in
  let before = In_channel.with_open_bin path In_channel.input_all in
  let mapped = Serialize.load path in
  let poly = Summary.poly mapped in
  Alcotest.(check bool) "mapped is read-only" true (Summary.read_only mapped);
  Alcotest.(check bool) "heap is not" false (Summary.read_only heap);
  let refuses what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.failf "%s updated a mapped summary" what
  in
  refuses "Poly.refresh" (fun () -> Poly.refresh poly);
  refuses "Poly.set_alpha" (fun () -> Poly.set_alpha poly 0 0.5);
  refuses "Poly.set_alphas" (fun () -> Poly.set_alphas poly (Poly.alphas poly));
  refuses "Poly.normalize" (fun () -> Poly.normalize poly);
  refuses "Poly.reinit" (fun () -> Poly.reinit poly `Uniform);
  refuses "Solver.solve" (fun () -> ignore (Solver.solve ~config:quiet poly));
  refuses "warm Solver.solve" (fun () ->
      ignore (Solver.solve ~config:quiet ~init:(Poly.alphas poly) poly));
  Alcotest.(check bool)
    "file unchanged" true
    (String.equal before (In_channel.with_open_bin path In_channel.input_all));
  let q =
    Predicate.of_alist
      ~arity:(Schema.arity (Summary.schema heap))
      [
        (Edb_datagen.Flights.origin, Ranges.interval 2 70);
        (Edb_datagen.Flights.distance, Ranges.interval 1 30);
      ]
  in
  Alcotest.(check bool)
    "answers unchanged" true
    (same_bits (Summary.estimate heap q) (Summary.estimate mapped q));
  (* Releasing the mapping's pages drops residency, not data. *)
  Summary.release_pages mapped;
  Summary.release_pages heap;
  Alcotest.(check bool)
    "answers unchanged after release_pages" true
    (same_bits (Summary.estimate heap q) (Summary.estimate mapped q))

(* A mapped summary is one mapping of its file, whatever number of views
   the evaluator carves from it and whatever its part count. *)
let test_mapped_one_mapping () =
  if not (Sys.file_exists "/proc/self/maps") then
    Alcotest.skip ();
  let _, fixture = Lazy.force one_evaluator_fixture in
  let k3 = Filename.temp_file "entropydb-one-map" ".k3" in
  let path = Filename.temp_file "entropydb-one-map" ".flat" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ path; k3 ])
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (In_channel.with_open_bin fixture In_channel.input_all));
      Serialize.save (Lazy.force k3_fixture) k3;
      List.iter
        (fun (what, file, k) ->
          let mapped = Serialize.load file in
          Summary.verify mapped;
          Alcotest.(check int) (what ^ " parts") k (Summary.num_parts mapped);
          let suffix = "/" ^ Filename.basename file in
          let maps =
            In_channel.with_open_bin "/proc/self/maps" In_channel.input_all
            |> String.split_on_char '\n'
            |> List.filter (String.ends_with ~suffix)
          in
          Alcotest.(check int) (what ^ ": mappings of the file") 1
            (List.length maps);
          ignore (Sys.opaque_identity (Summary.cardinality mapped)))
        [ ("k = 1", path, 1); ("k = 3", k3, 3) ])

(* A k = 3 file answers every estimator bitwise as the partitioned
   summary that wrote it, and charges its file size once. *)
let test_k3_file_bitwise () =
  let sh = Lazy.force k3_fixture in
  let path = Filename.temp_file "entropydb-k3" ".summary" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Serialize.save sh path;
      let m = Serialize.load path in
      Alcotest.(check int) "parts" 3 (Summary.num_parts m);
      Alcotest.(check string) "strategy" (Summary.strategy sh)
        (Summary.strategy m);
      Alcotest.(check bool) "read-only" true (Summary.read_only m);
      Alcotest.(check int) "footprint is the file size, once"
        (Unix.stat path).Unix.st_size (Summary.footprint_bytes m);
      let rng = Prng.create ~seed:813 () in
      answers_bitwise "k = 3" sh m
        (List.init 60 (fun _ -> random_query rng (Summary.schema sh)));
      List.iter
        (fun d ->
          let a = Summary.count_disjuncts sh d
          and b = Summary.count_disjuncts m d in
          if not (same_bits a.est b.est && same_bits a.var b.var) then
            Alcotest.failf "k = 3 OR: %h vs %h" b.est a.est)
        (List.init 10 (fun _ ->
             [ random_query rng (Summary.schema sh);
               random_query rng (Summary.schema sh) ])))

(* Every section a written file lists is one the reader carves: the
   flat and k = 3 files list exactly alpha, attr_sums, prefix and the
   nine evaluator tables per group, and a file listing any other
   section, checksums recomputed, is refused at open. *)
let test_sections_all_carved () =
  let heap, _ = Lazy.force one_evaluator_fixture in
  let dir = manifest_temp_dir () in
  Fun.protect
    ~finally:(fun () -> manifest_rm_rf dir)
    (fun () ->
      List.iter
        (fun (what, s) ->
          let path = Filename.concat dir what in
          Serialize.save s path;
          let m = Serialize.manifest path in
          Array.iteri
            (fun i (p : Serialize.part_meta) ->
              let expected =
                [ "alpha"; "attr_sums"; "prefix" ]
                @ List.concat
                    (List.init (Array.length p.pm_groups) (fun gi ->
                         List.map
                           (Printf.sprintf "g%d.%s" gi)
                           [
                             "fa_off"; "fa_attr"; "factors"; "iv_off"; "iv_lo";
                             "iv_hi"; "t_mask"; "dprod"; "mask_bits";
                           ]))
              in
              Alcotest.(check (list string))
                (Printf.sprintf "%s part %d sections" what i)
                (List.sort compare expected)
                (List.sort compare
                   (List.map
                      (fun (s : Serialize.section) -> s.sec_name)
                      p.pm_sections)))
            m.m_parts;
          (* An extra, unread section: refused before anything is
             mapped. *)
          Summary_files.reseal path ~edit:(fun _ m ->
              let p = m.m_parts.(0) in
              let extra = { (List.hd p.pm_sections) with sec_name = "g0.bys_term" } in
              let parts = Array.copy m.m_parts in
              parts.(0) <- { p with pm_sections = p.pm_sections @ [ extra ] };
              { m with m_parts = parts });
          match Serialize.load path with
          | exception Serialize.Format_error msg
            when str_contains msg "g0.bys_term" ->
              ()
          | exception e ->
              Alcotest.failf "%s: extra section raised %s" what
                (Printexc.to_string e)
          | _ -> Alcotest.failf "%s: a file with an unread section loaded" what)
        [ ("flat", heap); ("k3", Lazy.force k3_fixture) ])

(* A table view outlives the summary it came from: the mapping is
   unmapped only when the last view of it is finalized. *)
let test_mapped_view_outlives_summary () =
  let heap, path = Lazy.force one_evaluator_fixture in
  let views () =
    let tb = Poly.tables (Summary.poly (Serialize.load path)) in
    (tb.Poly.tb_alpha, tb.Poly.tb_groups.(0).Poly.factors)
  in
  let alpha, factors = views () in
  for _ = 1 to 3 do
    Gc.full_major ()
  done;
  let tb = Poly.tables (Summary.poly heap) in
  let same_view what (a : Poly.fbuf) (b : Poly.fbuf) =
    Alcotest.(check int) (what ^ " length") (Bigarray.Array1.dim b)
      (Bigarray.Array1.dim a);
    for i = 0 to Bigarray.Array1.dim a - 1 do
      if not (same_bits a.{i} b.{i}) then
        Alcotest.failf "%s.{%d}: mapped %h vs heap %h" what i a.{i} b.{i}
    done
  in
  same_view "alpha" alpha tb.Poly.tb_alpha;
  same_view "g0.factors" factors tb.Poly.tb_groups.(0).Poly.factors

let () =
  Alcotest.run "entropydb-core"
    [
      ( "poly-vs-bruteforce",
        [
          Alcotest.test_case "40 random models, 3 states each" `Slow
            test_equivalence;
          Alcotest.test_case "weighted evaluation" `Slow
            test_weighted_equivalence;
          Alcotest.test_case "3D statistics" `Quick test_3d_statistics;
        ] );
      ( "solver",
        [
          Alcotest.test_case "convergence on random models" `Slow test_solver;
          Alcotest.test_case "multiplicative matches coordinate" `Slow
            test_multiplicative_matches_coordinate;
          Alcotest.test_case "initialization ablation" `Quick
            test_init_ablation;
          Alcotest.test_case "dual is monotone" `Quick test_dual_monotone;
          Alcotest.test_case "convergence telemetry (pinned)" `Quick
            test_convergence_telemetry;
          Alcotest.test_case "estimates match statistics" `Quick
            test_estimate_matches_statistics;
          Alcotest.test_case "1D-only = product of marginals" `Quick
            test_product_of_marginals;
          Alcotest.test_case "paper intro example (200 flights)" `Quick
            test_paper_intro_example;
          Alcotest.test_case "SUM/AVG estimation" `Quick
            test_estimate_sum_marginals_only;
        ] );
      ( "phi",
        [
          Alcotest.test_case "overcompleteness" `Quick test_phi_overcomplete;
          Alcotest.test_case "rejects overlapping family" `Quick
            test_phi_rejects_overlapping_family;
          Alcotest.test_case "rejects 1D joint" `Quick test_phi_rejects_1d_joint;
          Alcotest.test_case "marginal id layout" `Quick test_marginal_ids;
        ] );
      ( "kernel-allocation",
        [
          Alcotest.test_case "steady state allocates nothing" `Quick
            test_kernel_allocation;
        ] );
      ( "summary",
        [
          Alcotest.test_case "variance in [0, n/4]" `Quick test_variance_bounds;
          Alcotest.test_case "variance calibrated vs sampled worlds" `Slow
            test_variance_calibrated;
          Alcotest.test_case "inconsistent targets don't break solving"
            `Quick test_solver_inconsistent_targets;
          Alcotest.test_case "tautology estimates n" `Quick
            test_tautology_estimate;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "estimate bounds and monotonicity" `Quick
            test_estimate_invariants;
          Alcotest.test_case "group-by estimation" `Quick test_estimate_groups;
          batched_kernel_matches_per_value;
          Alcotest.test_case "batched group-by = naive per-cell" `Quick
            test_estimate_groups_matches_naive;
        ] );
      ( "cache",
        [
          Alcotest.test_case "transparent and hit-counting" `Quick
            test_cache_transparent;
          Alcotest.test_case "eviction bounds entries" `Quick
            test_cache_eviction;
          Alcotest.test_case "grouped and COUNT keys never collide" `Quick
            test_cache_grouped_no_collision;
          Alcotest.test_case "eviction drops exactly the LRU" `Quick
            test_cache_eviction_order;
          Alcotest.test_case "table starts small" `Quick
            test_cache_starts_small;
        ] );
      ( "serialize",
        [
          Alcotest.test_case "round-trip" `Quick test_serialize_roundtrip;
          Alcotest.test_case "bad magic" `Quick test_serialize_bad_magic;
          sharded_manifest_roundtrip;
          Alcotest.test_case "sharded manifest corruption" `Quick
            test_sharded_manifest_corruption;
          Alcotest.test_case "upgrade answers bitwise like the original"
            `Quick test_upgrade_answers_bitwise;
          Alcotest.test_case "fuzz truncation/corruption" `Quick
            test_serialize_fuzz;
          Alcotest.test_case "v3 per-section corruption names the section"
            `Quick test_v3_section_corruption;
          Alcotest.test_case "v3 torn header" `Quick test_v3_torn_header;
          v3_fuzz_truncation;
          v3_fuzz_flip;
          crafted_index_tables;
          Alcotest.test_case "heap and mapped give one answer at any parallelism"
            `Quick test_heap_mapped_one_answer;
          Alcotest.test_case "nothing writes through a mapping" `Quick
            test_mapped_is_read_only;
          Alcotest.test_case "one mapping per mapped file" `Quick
            test_mapped_one_mapping;
          Alcotest.test_case "a k = 3 file answers bitwise" `Quick
            test_k3_file_bitwise;
          Alcotest.test_case "every listed section is carved" `Quick
            test_sections_all_carved;
          Alcotest.test_case "a table view outlives its summary" `Quick
            test_mapped_view_outlives_summary;
        ] );
      ( "worlds",
        [
          Alcotest.test_case "Gibbs matches exact distribution" `Slow
            test_worlds_distribution;
          Alcotest.test_case "respects ZERO statistics" `Quick
            test_worlds_respects_zero_statistics;
          Alcotest.test_case "instance size" `Quick test_sample_instance_size;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "domains match sequential" `Quick
            test_parallel_eval_matches_sequential;
        ] );
      ( "disjunction",
        [
          Alcotest.test_case "matches brute-force union" `Slow
            test_disjunction_inclusion_exclusion;
          Alcotest.test_case "guards and identities" `Quick
            test_disjunction_guards;
          Alcotest.test_case "degenerate clauses" `Quick
            test_disjunction_edge_clauses;
          Alcotest.test_case "single-bucket attribute" `Quick
            test_single_bucket_attribute;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "identity buckets = flat summary" `Quick
            test_hierarchy_identity_buckets;
          Alcotest.test_case "total mass" `Quick test_hierarchy_total_mass;
          Alcotest.test_case "refinement recovers in-bucket skew" `Quick
            test_hierarchy_refinement_helps;
          Alcotest.test_case "validation" `Quick test_hierarchy_validation;
          Alcotest.test_case "edge configurations" `Quick test_hierarchy_edges;
        ] );
      ( "compression",
        [
          Alcotest.test_case "smaller than SOP" `Quick test_compression_smaller;
          Alcotest.test_case "term cap raises" `Quick test_term_cap;
        ] );
    ]
