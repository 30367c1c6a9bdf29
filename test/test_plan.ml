(* Tests for the error-aware planner (lib/plan).

   Covers the target grammar and the probit quantile, the estimator
   abstraction's bitwise pass-through and inverse-variance combination,
   and Plan.choose's routing behaviour: lazy evaluation order, the
   meets-target/best-effort split, GROUP BY worst-cell logic, and the
   EXPLAIN rendering. *)

open Edb_util
open Edb_storage
open Entropydb_core
module P = Edb_plan.Plan
module E = Edb_plan.Estimator

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let make_schema sizes =
  Schema.create
    (List.mapi
       (fun i n ->
         Schema.attr
           (Printf.sprintf "a%d" i)
           (Domain.int_bins ~lo:0 ~hi:(n - 1) ~width:1))
       sizes)

let small_relation ~seed sizes rows =
  let schema = make_schema sizes in
  let rng = Prng.create ~seed () in
  let b = Relation.builder ~capacity:rows schema in
  for _ = 1 to rows do
    Relation.add_row b
      (Array.init (List.length sizes) (fun i ->
           Prng.int rng (Schema.domain_size schema i)))
  done;
  Relation.build b

let fixture =
  lazy
    (let rel = small_relation ~seed:7 [ 6; 5; 4 ] 500 in
     let summary =
       Summary.build
         ~solver_config:{ Solver.default_config with log_every = 0 }
         rel ~joints:[]
     in
     let sample =
       Edb_sampling.Uniform.create (Prng.create ~seed:8 ()) ~rate:0.2 rel
     in
     (rel, summary, sample))

let pred alist = Predicate.of_alist ~arity:3 alist

(* ------------------------------------------------------------------ *)
(* Targets and quantiles                                               *)
(* ------------------------------------------------------------------ *)

let test_target_parsing () =
  let t = P.target_of_string "95:2" in
  Alcotest.(check (float 1e-12)) "confidence" 0.95 t.P.confidence;
  Alcotest.(check (float 1e-12)) "rel" 0.02 t.P.rel;
  Alcotest.(check (float 1e-12)) "abs default" 1. t.P.abs;
  let t = P.target_of_string "99:0.5:10" in
  Alcotest.(check (float 1e-12)) "confidence" 0.99 t.P.confidence;
  Alcotest.(check (float 1e-12)) "rel" 0.005 t.P.rel;
  Alcotest.(check (float 1e-12)) "abs" 10. t.P.abs;
  (* to_string/of_string round-trip. *)
  let t = P.target_of_string "90:12.5:2" in
  Alcotest.(check bool) "round-trip" true
    (P.target_of_string (P.target_to_string t) = t);
  let bad s =
    match P.target_of_string s with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "accepted %S" s
  in
  List.iter bad [ ""; "95"; "0:2"; "100:2"; "95:-1"; "95:2:-3"; "x:y"; "95:2:3:4" ]

let test_probit () =
  (* Reference values of the standard normal quantile. *)
  List.iter
    (fun (p, z) ->
      Alcotest.(check (float 1e-6)) (Printf.sprintf "probit %g" p) z (P.probit p))
    [
      (0.5, 0.); (0.975, 1.959964); (0.995, 2.575829);
      (0.025, -1.959964); (0.9999, 3.719016); (0.841344746, 0.9999997);
    ];
  Alcotest.(check (float 1e-6)) "z(95%)" 1.959964 (P.z_of_confidence 0.95);
  Alcotest.(check (float 1e-6)) "z(99%)" 2.575829 (P.z_of_confidence 0.99);
  (match P.probit 0. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "probit 0 should raise");
  match P.probit 1.5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "probit 1.5 should raise"

(* ------------------------------------------------------------------ *)
(* Estimators                                                          *)
(* ------------------------------------------------------------------ *)

let test_singleton_bitwise () =
  let _, summary, _ = Lazy.force fixture in
  let queries =
    [
      pred [];
      pred [ (0, Ranges.interval 1 3) ];
      pred [ (0, Ranges.singleton 2); (2, Ranges.interval 0 1) ];
      pred [ (1, Ranges.empty) ];
    ]
  in
  List.iter
    (fun q ->
      let d =
        P.choose ~combine:false ~target:P.default_target
          [ E.of_summary summary ] (P.Count q)
      in
      let a = P.chosen_answer d in
      let direct = Summary.count summary q in
      Alcotest.(check (float 0.)) "estimate bitwise" direct.est a.E.est;
      Alcotest.(check (float 0.)) "variance bitwise" direct.var a.E.var;
      Alcotest.(check (float 0.))
        "matches the plain estimator too"
        (Summary.estimate summary q)
        a.E.est)
    queries

let test_combine_variance () =
  let _, summary, sample = Lazy.force fixture in
  let es = E.of_summary summary and ea = E.of_sample sample in
  let ec = E.combine es ea in
  Alcotest.(check bool) "combined kind" true (E.kind ec = E.Combined);
  Alcotest.(check (float 1e-12))
    "cost is the sum (both run)"
    (E.cost_us es +. E.cost_us ea)
    (E.cost_us ec);
  let q = pred [ (0, Ranges.interval 0 2) ] in
  let a = E.count es q and b = E.count ea q and c = E.count ec q in
  Alcotest.(check bool) "var <= min of components" true
    (c.E.var <= Float.min a.E.var b.E.var +. 1e-12);
  (* Inverse-variance weights: est between the components, var is the
     harmonic combination. *)
  Alcotest.(check bool) "estimate between components" true
    (c.E.est >= Float.min a.E.est b.E.est -. 1e-9
    && c.E.est <= Float.max a.E.est b.E.est +. 1e-9);
  Alcotest.(check (float 1e-6))
    "harmonic variance"
    (a.E.var *. b.E.var /. (a.E.var +. b.E.var))
    c.E.var;
  (* A zero-variance component dominates. *)
  let z = { E.est = 42.; var = 0. } and noisy = { E.est = 40.; var = 9. } in
  Alcotest.(check (float 0.)) "zero-variance wins (est)" 42.
    (E.combine_answers z noisy).E.est;
  Alcotest.(check (float 0.)) "zero-variance wins (var)" 0.
    (E.combine_answers z noisy).E.var;
  (* GROUP BY is not combined. *)
  Alcotest.(check bool) "no combined GROUP BY" true (E.groups ec [ 1 ] q = None)

(* ------------------------------------------------------------------ *)
(* Routing                                                             *)
(* ------------------------------------------------------------------ *)

let test_lazy_walk_skips_exact () =
  let rel, summary, _ = Lazy.force fixture in
  let q = pred [ (0, Ranges.interval 0 4) ] in
  (* A loose target the summary meets: the exact scan (costlier) must
     not be evaluated at all. *)
  let d =
    P.choose ~combine:false
      ~target:{ P.confidence = 0.95; rel = 0.9; abs = 1. }
      [ E.of_summary summary; E.of_relation rel ]
      (P.Count q)
  in
  Alcotest.(check string) "reason" "meets-target" d.P.reason;
  Alcotest.(check bool) "summary chosen" true
    (E.kind d.P.chosen.P.estimator = E.Summary);
  let exact =
    List.find (fun c -> E.kind c.P.estimator = E.Exact) d.P.candidates
  in
  Alcotest.(check bool) "exact not evaluated" true (exact.P.evaluation = None);
  (* Eager mode evaluates everything. *)
  let d = P.choose_all ~combine:false ~target:P.default_target
      [ E.of_summary summary; E.of_relation rel ] (P.Count q)
  in
  List.iter
    (fun c ->
      Alcotest.(check bool) "eager evaluates all" true (c.P.evaluation <> None))
    d.P.candidates

let test_exact_fallback () =
  let rel, summary, sample = Lazy.force fixture in
  let q = pred [ (0, Ranges.interval 1 3) ] in
  (* A target no noisy estimator can meet: the exact scan is the
     always-sufficient last resort, and its answer is the true count. *)
  let d =
    P.choose ~target:{ P.confidence = 0.99; rel = 1e-6; abs = 1e-6 }
      [ E.of_summary summary; E.of_sample sample; E.of_relation rel ]
      (P.Count q)
  in
  Alcotest.(check string) "reason" "meets-target" d.P.reason;
  Alcotest.(check bool) "exact chosen" true
    (E.kind d.P.chosen.P.estimator = E.Exact);
  Alcotest.(check (float 0.))
    "true count"
    (float_of_int (Exec.count rel q))
    (P.chosen_answer d).E.est

let test_best_effort () =
  let _, summary, sample = Lazy.force fixture in
  let q = pred [ (0, Ranges.interval 1 3) ] in
  (* No exact route and an unmeetable target: the planner answers
     anyway with the smallest half-width and says so. *)
  let d =
    P.choose ~target:{ P.confidence = 0.99; rel = 1e-9; abs = 1e-9 }
      [ E.of_summary summary; E.of_sample sample ]
      (P.Count q)
  in
  Alcotest.(check string) "reason" "best-effort" d.P.reason;
  let chosen_hw =
    match d.P.chosen.P.evaluation with
    | Some ev -> ev.P.half_width
    | None -> Alcotest.fail "chosen candidate not evaluated"
  in
  List.iter
    (fun c ->
      match c.P.evaluation with
      | Some ev ->
          Alcotest.(check bool) "chosen minimizes half-width" true
            (chosen_hw <= ev.P.half_width +. 1e-12)
      | None -> ())
    d.P.candidates

let test_groups_worst_cell () =
  let rel, summary, _ = Lazy.force fixture in
  let q = pred [] in
  let shape = P.Groups { attrs = [ 1 ]; pred = q } in
  let d =
    P.choose_all ~target:P.default_target
      [ E.of_summary summary; E.of_relation rel ]
      shape
  in
  let cells = Option.get (P.chosen_groups d) in
  Alcotest.(check int) "one cell per a1 value" 5 (List.length cells);
  (* The decision's scalar answer is the widest cell of the chosen
     candidate, and meets iff every cell meets. *)
  (match d.P.chosen.P.evaluation with
  | Some ev ->
      let max_hw =
        List.fold_left
          (fun acc (_, (a : E.answer)) ->
            Float.max acc (d.P.z *. sqrt (Float.max 0. a.E.var)))
          0. cells
      in
      Alcotest.(check (float 1e-9)) "worst cell half-width" max_hw
        ev.P.half_width
  | None -> Alcotest.fail "chosen candidate not evaluated");
  (* Exact scan's groups match Exec's group counts. *)
  let exact =
    List.find (fun c -> E.kind c.P.estimator = E.Exact) d.P.candidates
  in
  match exact.P.evaluation with
  | Some { P.groups = Some gs; _ } ->
      List.iter
        (fun (key, (a : E.answer)) ->
          match key with
          | [ v ] ->
              let cell = Predicate.restrict q 1 (Ranges.singleton v) in
              Alcotest.(check (float 0.))
                "exact group cell"
                (float_of_int (Exec.count rel cell))
                a.E.est
          | _ -> Alcotest.fail "unexpected group key arity")
        gs
  | _ -> Alcotest.fail "exact candidate has no groups"

let test_invalid_inputs () =
  let rel, summary, _ = Lazy.force fixture in
  (match P.choose ~target:P.default_target [] (P.Count (pred [])) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty estimator list accepted");
  (* SUM on an exact+summary pool works; GROUP BY on a combined-only
     pool is the unsupported corner. *)
  let d =
    P.choose ~target:P.default_target
      [ E.of_summary summary; E.of_relation rel ]
      (P.Sum { attr = 0; pred = pred [ (1, Ranges.interval 0 2) ] })
  in
  Alcotest.(check bool) "sum supported" true (d.P.chosen.P.supported);
  let combined = E.combine (E.of_summary summary) (E.of_summary summary) in
  match
    P.choose ~combine:false ~target:P.default_target [ combined ]
      (P.Groups { attrs = [ 0 ]; pred = pred [] })
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "combined-only GROUP BY should raise"

let test_obs_counters () =
  let module R = Edb_obs.Registry in
  let _, summary, _ = Lazy.force fixture in
  let before = R.Counter.value (R.counter "plan_route_summary") in
  let d =
    P.choose ~combine:false ~target:{ P.confidence = 0.95; rel = 0.9; abs = 1. }
      [ E.of_summary summary ]
      (P.Count (pred [ (0, Ranges.interval 0 4) ]))
  in
  Alcotest.(check bool) "chose summary" true
    (E.kind d.P.chosen.P.estimator = E.Summary);
  Alcotest.(check int) "route counter ticked" (before + 1)
    (R.Counter.value (R.counter "plan_route_summary"))

(* ------------------------------------------------------------------ *)
(* EXPLAIN rendering                                                   *)
(* ------------------------------------------------------------------ *)

let test_explain_lines () =
  let starts_with prefix line =
    String.length line >= String.length prefix
    && String.sub line 0 (String.length prefix) = prefix
  in
  let rel, summary, sample = Lazy.force fixture in
  let q = pred [ (0, Ranges.interval 1 3) ] in
  let d =
    P.choose_all ~target:P.default_target
      [ E.of_summary summary; E.of_sample sample; E.of_relation rel ]
      (P.Count q)
  in
  let lines = Edb_plan.Explain.lines ~truth:100. d in
  Alcotest.(check bool) "target line" true
    (starts_with "plan target" (List.hd lines));
  Alcotest.(check int)
    "one candidate line per candidate + target + route"
    (List.length d.P.candidates + 2)
    (List.length lines);
  Alcotest.(check bool) "route line last" true
    (starts_with "plan route" (List.nth lines (List.length lines - 1)));
  Alcotest.(check bool) "observed error present with truth" true
    (List.exists (fun l -> starts_with "plan candidate" l
                           && String.length l > 0
                           && (let rec has i = i < String.length l - 4
                                 && (String.sub l i 4 = " err" || has (i + 1))
                               in has 0)) lines);
  (* Without [~truth], the exact candidate's own answer is the truth,
     so its line reports an observed error of exactly 0. *)
  Alcotest.(check bool) "exact candidate is the default truth" true
    (List.exists
       (fun l ->
         starts_with "plan candidate exact " l
         && String.ends_with ~suffix:" err 0" l)
       (Edb_plan.Explain.lines d));
  let table = Edb_plan.Explain.table d in
  Alcotest.(check int)
    "table has one row per candidate"
    (List.length d.P.candidates)
    (List.length (Table.rows table));
  Alcotest.(check bool) "chosen row is starred" true
    (List.exists (fun row -> List.hd row = "*") (Table.rows table))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "plan"
    [
      ( "targets",
        [
          Alcotest.test_case "parse + round-trip" `Quick test_target_parsing;
          Alcotest.test_case "probit quantiles" `Quick test_probit;
        ] );
      ( "estimators",
        [
          Alcotest.test_case "singleton pass-through is bitwise" `Quick
            test_singleton_bitwise;
          Alcotest.test_case "inverse-variance combination" `Quick
            test_combine_variance;
        ] );
      ( "routing",
        [
          Alcotest.test_case "lazy walk skips costlier routes" `Quick
            test_lazy_walk_skips_exact;
          Alcotest.test_case "exact fallback on unmeetable targets" `Quick
            test_exact_fallback;
          Alcotest.test_case "best-effort without exact" `Quick
            test_best_effort;
          Alcotest.test_case "GROUP BY worst cell" `Quick
            test_groups_worst_cell;
          Alcotest.test_case "invalid inputs" `Quick test_invalid_inputs;
          Alcotest.test_case "edb_obs route counters" `Quick test_obs_counters;
        ] );
      ( "explain",
        [ Alcotest.test_case "lines and table" `Quick test_explain_lines ] );
    ]
