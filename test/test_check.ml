(* Tests of the correctness harness itself (lib/check): generation is
   deterministic, clean code sweeps clean, a planted estimator bug is
   caught and shrunk, and the repro line's replay reproduces it. *)

open Edb_check

(* ------------------------------------------------------------------ *)
(* Generation determinism                                              *)
(* ------------------------------------------------------------------ *)

let test_spec_deterministic () =
  for seed = 0 to 20 do
    Alcotest.(check bool)
      "spec_of_seed is a pure function" true
      (Gen.spec_of_seed seed = Gen.spec_of_seed seed)
  done;
  Alcotest.(check bool)
    "different seeds differ" true
    (Gen.spec_of_seed 1 <> Gen.spec_of_seed 2)

let test_workload_streams_independent () =
  (* Queries, grouping sets, and disjunctions come from separate derived
     streams: drawing one workload must not perturb another. *)
  let spec = Gen.spec_of_seed 7 in
  let schema =
    Edb_storage.Relation.schema (Case.build spec).Case.rel
  in
  let qs = Gen.queries spec schema in
  ignore (Gen.disjunctions spec schema);
  ignore (Gen.group_attr_sets spec schema);
  Alcotest.(check bool)
    "query stream unperturbed" true
    (List.for_all2 Edb_storage.Predicate.equal qs (Gen.queries spec schema))

let test_synthetic_prefix_stable () =
  (* Growing a relation keeps the shared prefix bitwise identical, so a
     shrink step that halves rows reuses the same leading data. *)
  let sizes = [ 5; 3; 4 ] in
  let small =
    Edb_datagen.Synthetic.generate ~sizes ~rows:40
      ~mode:(Edb_datagen.Synthetic.Mixture 2) ~seed:99
  in
  let large =
    Edb_datagen.Synthetic.generate ~sizes ~rows:80
      ~mode:(Edb_datagen.Synthetic.Mixture 2) ~seed:99
  in
  for i = 0 to Edb_storage.Relation.cardinality small - 1 do
    Alcotest.(check (array int))
      (Printf.sprintf "row %d" i)
      (Edb_storage.Relation.row small i)
      (Edb_storage.Relation.row large i)
  done

(* ------------------------------------------------------------------ *)
(* The oracle battery on correct code                                  *)
(* ------------------------------------------------------------------ *)

let server_config = { Oracle.default with Oracle.server = true }

let test_clean_sweep () =
  let outcome = Sweep.run_seeds ~config:server_config [ 2000; 2001; 2002 ] in
  Alcotest.(check int) "cases" 3 outcome.Sweep.cases;
  Alcotest.(check bool) "assertions ran" true (outcome.Sweep.checks_run > 100);
  (match outcome.Sweep.findings with
  | [] -> ()
  | (_, f) :: _ ->
      Alcotest.failf "unexpected finding: %s [%s] %s" f.Oracle.check
        (Oracle.tier_name f.Oracle.tier)
        f.Oracle.detail);
  Alcotest.(check bool)
    "exact tier within tolerance" true
    (outcome.Sweep.max_exact_sigma < Oracle.default.Oracle.z)

let test_replay_deterministic () =
  let a = Sweep.replay 2003 in
  let b = Sweep.replay 2003 in
  Alcotest.(check int) "same assertion count" a.Sweep.checks_run
    b.Sweep.checks_run;
  Alcotest.(check bool)
    "same findings" true
    (a.Sweep.findings = b.Sweep.findings);
  Alcotest.(check (float 0.))
    "same worst sigma" a.Sweep.max_exact_sigma b.Sweep.max_exact_sigma

(* ------------------------------------------------------------------ *)
(* Fault injection: the harness must catch a planted bug               *)
(* ------------------------------------------------------------------ *)

let with_clamp_mutation f =
  Entropydb_core.Poly.set_cancellation_floor 0.05;
  Fun.protect
    ~finally:(fun () -> Entropydb_core.Poly.set_cancellation_floor 0.)
    f

let test_mutation_caught_and_shrunk () =
  let seeds = [ 1000; 1001; 1002; 1003; 1004; 1005 ] in
  let outcome =
    with_clamp_mutation (fun () ->
        let outcome = Sweep.run_seeds seeds in
        (match outcome.Sweep.findings with
        | [] -> Alcotest.fail "planted clamp bug was not detected"
        | findings ->
            List.iter
              (fun ((shrunk : Gen.spec), (f : Oracle.finding)) ->
                let original = Gen.spec_of_seed f.Oracle.seed in
                Alcotest.(check bool)
                  "shrunk case is no larger" true
                  (shrunk.Gen.rows <= original.Gen.rows
                  && shrunk.Gen.shards <= original.Gen.shards
                  && List.length shrunk.Gen.sizes
                     <= List.length original.Gen.sizes);
                (* The shrunk spec still fails the same check (while the
                   bug is in place) — the point of printing it. *)
                let r = Oracle.run ~only:f.Oracle.check Oracle.default shrunk in
                Alcotest.(check bool)
                  (Printf.sprintf "shrunk spec still fails %s" f.Oracle.check)
                  true
                  (List.exists
                     (fun (g : Oracle.finding) ->
                       g.Oracle.check = f.Oracle.check)
                     r.Oracle.findings))
              findings);
        outcome)
  in
  (* The repro line's replay reproduces the failure... *)
  let seed = (snd (List.hd outcome.Sweep.findings)).Oracle.seed in
  let replayed = with_clamp_mutation (fun () -> Sweep.replay seed) in
  Alcotest.(check bool)
    "replay reproduces" true
    (replayed.Sweep.findings <> []);
  (* ... and with the bug removed the very same seeds are clean (the
     findings really were the mutation's doing). *)
  let clean = Sweep.run_seeds seeds in
  Alcotest.(check bool) "clean without mutation" true (clean.Sweep.findings = [])

(* ------------------------------------------------------------------ *)
(* Pinned outputs: committed hex-float fixtures                        *)
(* ------------------------------------------------------------------ *)

(* A pin is a committed fixture of hex-formatted ([%h]) numbers and the
   generator that recomputes them: identical iteration and summation
   orders mean identical floating-point results, not merely close ones,
   so a refactor that claims to keep the arithmetic must reproduce every
   line.

   Re-record one pin's fixture with
     EDB_PIN_RECORD=$PWD/test/data dune exec test/test_check.exe -- test <pin>
   — but doing so re-baselines the contract; only ever re-record from an
   implementation known to produce correct output. *)
let check_pinned ~fixture lines =
  match Sys.getenv_opt "EDB_PIN_RECORD" with
  | Some dir ->
      let path = Filename.concat dir fixture in
      Out_channel.with_open_text path (fun oc ->
          List.iter (fun l -> output_string oc (l ^ "\n")) (lines ()));
      Printf.printf "recorded pin file at %s\n%!" path
  | None ->
      (* dune runtest runs with cwd test/; dune exec from the root. *)
      let path =
        List.find Sys.file_exists
          [ Filename.concat "data" fixture; Filename.concat "test/data" fixture ]
      in
      let expected =
        In_channel.with_open_text path In_channel.input_all
        |> String.trim |> String.split_on_char '\n'
      in
      let actual = lines () in
      Alcotest.(check int)
        "pinned line count" (List.length expected) (List.length actual);
      List.iteri
        (fun i (e, a) ->
          if e <> a then
            Alcotest.failf "%s line %d diverged:\n  recorded %s\n  computed %s"
              fixture i e a)
        (List.combine expected actual)

let pin_seeds = [ 3; 17; 42; 101 ]

(* The SoA layout vs the pre-refactor boxed-record (AoS) implementation:
   solved P and dual, every workload query's estimate, the batched GROUP
   BY kernel's nonzero cells, and the estimates again after a
   [Poly.refresh] (incremental state must equal recomputed-from-scratch
   state). *)
let kernel_pin_lines () =
  let module Core = Entropydb_core in
  List.concat_map
    (fun seed ->
      let spec = Gen.spec_of_seed seed in
      let case = Case.build spec in
      let s = case.Case.summary in
      let poly = Core.Summary.poly s in
      let schema = Edb_storage.Relation.schema case.Case.rel in
      let buf = ref [] in
      let addf fmt = Printf.ksprintf (fun l -> buf := l :: !buf) fmt in
      addf "seed %d" seed;
      addf "p %h" (Core.Poly.p poly);
      addf "dual %h" (Core.Poly.dual poly);
      List.iteri
        (fun i q -> addf "est %d %h" i (Core.Summary.estimate s q))
        case.Case.queries;
      let attrs =
        List.sort_uniq compare
          (List.concat (Gen.group_attr_sets spec schema))
      in
      let queries2 = List.filteri (fun i _ -> i < 2) case.Case.queries in
      List.iter
        (fun attr ->
          List.iteri
            (fun qi q ->
              let vec = Core.Poly.eval_restricted_by_value poly q ~attr in
              Array.iteri
                (fun v x -> if x <> 0. then addf "vec %d %d %d %h" attr qi v x)
                vec)
            queries2)
        attrs;
      Core.Poly.refresh poly;
      List.iteri
        (fun i q ->
          if i < 3 then addf "refresh_est %d %h" i (Core.Summary.estimate s q))
        case.Case.queries;
      List.rev !buf)
    pin_seeds

let test_kernel_pinned () =
  check_pinned ~fixture:"kernel_soa_expected.txt" kernel_pin_lines

(* The whole estimator surface of a summary, flat and partitioned (k = 3
   by rows, k = 2 by attribute 0): COUNT moments, SUM/AVG on attribute
   0, GROUP BY cells and top-3, every disjunction, and the planner's
   summary route.  Nothing else pins a k > 1 answer bitwise, so this is
   what holds the per-part fold to its summation order. *)
let summary_pin_lines () =
  let module S = Entropydb_core.Summary in
  let module E = Edb_plan.Estimator in
  let module T = Edb_query.Translate in
  List.concat_map
    (fun seed ->
      let spec = Gen.spec_of_seed seed in
      let case = Case.build spec in
      let schema = Edb_storage.Relation.schema case.Case.rel in
      let part k strategy =
        Edb_shard.Builder.build ~solver_config:Case.quiet case.Case.rel
          ~shards:k ~strategy ~joints:case.Case.joints
      in
      let builds =
        [
          ("flat", case.Case.summary);
          ("rows3", part 3 Edb_shard.Partition.Rows);
          ("attr2", part 2 (Edb_shard.Partition.By_attr 0));
        ]
      in
      let group_sets = Gen.group_attr_sets spec schema in
      let q0 = List.hd case.Case.queries in
      let top3 attrs =
        {
          T.disjuncts = [ q0 ];
          aggregate = T.Count;
          group_attrs = attrs;
          order = Some Edb_query.Ast.Desc;
          limit = Some 3;
        }
      in
      let key k = String.concat "," (List.map string_of_int k) in
      List.concat_map
        (fun (build, s) ->
          let plan = E.of_summary s in
          let buf = ref [] in
          let addf fmt = Printf.ksprintf (fun l -> buf := l :: !buf) fmt in
          addf "seed %d build %s" seed build;
          List.iteri
            (fun i q ->
              (* Columns 2 and 3 recorded the split variance and the
                 joint estimate before one answer carried both moments;
                 the joint answer must still reproduce them. *)
              let a = S.count s q in
              addf "count %d %h %h %h %h" i (S.estimate s q) a.var a.est a.var;
              let sm = S.sum s ~attr:0 q in
              addf "sum %d %h %h %s" i sm.est sm.var
                (match S.estimate_avg s ~attr:0 q with
                | Some a -> Printf.sprintf "%h" a
                | None -> "none");
              let c = E.count plan q in
              let sm = Option.get (E.sum plan 0 q) in
              addf "plan %d %h %h %h %h" i c.E.est c.E.var sm.E.est sm.E.var)
            case.Case.queries;
          List.iteri
            (fun gi attrs ->
              let cells =
                List.map
                  (fun (k, (a : S.answer)) -> (k, a.est, a.var))
                  (S.groups s ~attrs q0)
              in
              List.iter
                (fun (k, e, v) -> addf "group %d %s %h %h" gi (key k) e v)
                cells;
              List.iter
                (fun (k, e, _) -> addf "top %d %s %h" gi (key k) e)
                (T.order_groups (top3 attrs) cells);
              List.iter
                (fun (k, (a : E.answer)) ->
                  addf "plan_group %d %s %h %h" gi (key k) a.E.est a.E.var)
                (Option.get (E.groups plan attrs q0)))
            group_sets;
          List.iteri
            (fun di d ->
              let a = S.count_disjuncts s d in
              addf "or %d %h %h" di a.est a.var)
            (Gen.disjunctions spec schema);
          List.rev !buf)
        builds)
    pin_seeds

let test_summary_pinned () =
  check_pinned ~fixture:"summary_expected.txt" summary_pin_lines

(* ------------------------------------------------------------------ *)
(* SoA kernel vs brute-force enumeration (property)                    *)
(* ------------------------------------------------------------------ *)

(* Random [Gen.spec_of_seed] cases: the flat kernel's scalar and batched
   restricted evaluations must match the brute-force tuple enumeration
   at the solved assignment (oracle tolerances), keep matching after 50
   extra solver sweeps plus a [refresh] (incremental caches = recomputed
   caches), and do all of that identically at 1 and at 4 evaluation
   domains. *)
let kernel_soa_vs_bruteforce =
  let module Core = Entropydb_core in
  let module St = Edb_storage in
  let module F = Edb_util.Floatx in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:6 ~name:"SoA kernel = bruteforce on random specs"
       QCheck.(int_range 0 10_000)
       (fun seed ->
         let spec = Gen.spec_of_seed seed in
         let case = Case.build spec in
         let s = case.Case.summary in
         let poly = Core.Summary.poly s in
         let bf = Core.Bruteforce.create (Core.Poly.phi poly) in
         let schema = St.Relation.schema case.Case.rel in
         let arity = St.Schema.arity schema in
         let n = float_of_int (Core.Summary.cardinality s) in
         let check_vs_bruteforce phase =
           let alphas = Core.Poly.alphas poly in
           let p = Core.Poly.p poly in
           let est r = if p <= 0. then 0. else n *. r /. p in
           List.iteri
             (fun idx q ->
               let fast = est (Core.Poly.eval_restricted poly q) in
               let slow = Core.Bruteforce.estimate bf alphas q in
               if not (F.approx_eq ~rtol:1e-6 ~atol:1e-6 fast slow) then
                 QCheck.Test.fail_reportf
                   "seed %d (%s): estimate %.12g vs bruteforce %.12g on \
                    query %d"
                   seed phase fast slow idx;
               let attr = idx mod arity in
               let vec = Core.Poly.eval_restricted_by_value poly q ~attr in
               Array.iteri
                 (fun v x ->
                   let qv =
                     St.Predicate.restrict q attr (Edb_util.Ranges.singleton v)
                   in
                   let slow = Core.Bruteforce.estimate bf alphas qv in
                   if not (F.approx_eq ~rtol:1e-6 ~atol:1e-6 (est x) slow) then
                     QCheck.Test.fail_reportf
                       "seed %d (%s): by-value cell (attr %d, v %d) %.12g vs \
                        bruteforce %.12g on query %d"
                       seed phase attr v (est x) slow idx)
                 vec)
             case.Case.queries
         in
         check_vs_bruteforce "solved";
         (* 50 more sweeps move the variables; refresh must then be a
            pure recompute of the same state the incremental updates
            left behind — and the kernels must still match enumeration
            at the new assignment. *)
         ignore
           (Core.Solver.solve
              ~config:{ Case.quiet with Core.Solver.max_sweeps = 50 }
              poly);
         let before =
           List.map (fun q -> Core.Poly.eval_restricted poly q) case.Case.queries
         in
         Core.Poly.refresh poly;
         let after =
           List.map (fun q -> Core.Poly.eval_restricted poly q) case.Case.queries
         in
         List.iteri
           (fun i (b, a) ->
             if not (F.approx_eq ~rtol:1e-9 ~atol:(1e-9 *. (n +. 1.)) b a)
             then
               QCheck.Test.fail_reportf
                 "seed %d: refresh moved query %d's restricted value %.17g \
                  -> %.17g"
                 seed i b a)
           (List.combine before after);
         check_vs_bruteforce "refreshed";
         true))

let test_report_shapes () =
  let spec = Gen.spec_of_seed 5 in
  Alcotest.(check string)
    "repro line" "entropydb check --replay 5" (Report.repro_line spec);
  match Report.spec_json spec with
  | Edb_util.Json.Obj fields ->
      Alcotest.(check bool)
        "spec json has seed" true
        (List.mem_assoc "seed" fields)
  | _ -> Alcotest.fail "spec_json must be an object"

let () =
  Alcotest.run "entropydb-check"
    [
      ( "generation",
        [
          Alcotest.test_case "spec determinism" `Quick test_spec_deterministic;
          Alcotest.test_case "independent workload streams" `Quick
            test_workload_streams_independent;
          Alcotest.test_case "synthetic prefix stability" `Quick
            test_synthetic_prefix_stable;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "clean sweep" `Quick test_clean_sweep;
          Alcotest.test_case "replay determinism" `Quick
            test_replay_deterministic;
          Alcotest.test_case "report shapes" `Quick test_report_shapes;
        ] );
      ( "pinned-kernel",
        [
          Alcotest.test_case "SoA outputs = recorded AoS outputs (bitwise)"
            `Quick test_kernel_pinned;
        ] );
      ( "pinned-summary",
        [
          Alcotest.test_case "estimator surface = recorded outputs (bitwise)"
            `Quick test_summary_pinned;
        ] );
      ("kernel-soa", [ kernel_soa_vs_bruteforce ]);
      ( "fault-injection",
        [
          Alcotest.test_case "clamp mutation caught and shrunk" `Slow
            test_mutation_caught_and_shrunk;
        ] );
    ]
