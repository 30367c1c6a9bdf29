(* End-to-end integration tests: the full pipeline the README promises —
   generate data, choose statistics, build a summary, answer SQL — plus
   serialization through disk and the accuracy contracts that make the
   system useful (summary beats uniform sampling on rare values, exact
   statistics are reproduced, hierarchical drill-down works on flights). *)

open Edb_util
open Edb_storage
open Edb_workload
open Entropydb_core
module F = Edb_datagen.Flights

let quiet = { Solver.default_config with log_every = 0 }

(* Shared small flights pipeline: built once, used by several tests. *)
let pipeline =
  lazy
    (let flights = F.generate ~rows:40_000 ~seed:77 () in
     let rel = flights.coarse in
     let pairs =
       Edb_select.Pairs.select ~strategy:Edb_select.Pairs.By_cover ~budget:2 rel
     in
     let joints =
       List.concat_map
         (fun (a, b) ->
           Edb_select.Heuristic.select Edb_select.Heuristic.Composite rel
             ~attr1:a ~attr2:b ~budget:120)
         pairs
     in
     let summary = Summary.build ~solver_config:quiet rel ~joints in
     (flights, rel, summary))

let test_sql_pipeline () =
  let _, rel, summary = Lazy.force pipeline in
  let schema = Relation.schema rel in
  (* Every statistic the model was built on is reproduced through the SQL
     front end within solver tolerance. *)
  let sqls =
    [
      "SELECT COUNT(*) FROM flights WHERE origin_state = 'S07'";
      "SELECT COUNT(*) FROM flights WHERE fl_time IN [10, 30]";
      "SELECT COUNT(*) FROM flights WHERE dest_state = 'S03' AND distance IN [0, 40]";
      "SELECT COUNT(*) FROM flights WHERE origin_state = 'S01' OR origin_state = 'S02'";
    ]
  in
  List.iter
    (fun sql ->
      match Edb_query.Translate.compile_string schema sql with
      | Error e -> Alcotest.failf "%s: %a" sql Edb_query.Translate.pp_error e
      | Ok c ->
          let est = (Summary.count_disjuncts summary c.disjuncts).est in
          let truth = float_of_int (Exec.count_dnf rel c.disjuncts) in
          let err = Metrics.rel_error ~truth ~est in
          if err > 0.35 then
            Alcotest.failf "%s: err %.3f (est %.1f truth %.1f)" sql err est
              truth)
    sqls

let test_sql_aggregates_pipeline () =
  let _, rel, summary = Lazy.force pipeline in
  let schema = Relation.schema rel in
  match
    Edb_query.Translate.compile_string schema
      "SELECT SUM(distance) FROM flights WHERE fl_time IN [0, 20]"
  with
  | Error e -> Alcotest.failf "compile: %a" Edb_query.Translate.pp_error e
  | Ok c -> (
      match (Edb_query.Translate.conjunctive c, c.aggregate) with
      | Some pred, Edb_query.Translate.Sum attr ->
          let est = (Summary.sum summary ~attr pred).est in
          let truth = Exec.sum rel ~attr pred in
          let err = Metrics.rel_error ~truth ~est in
          if err > 0.1 then
            Alcotest.failf "SUM err %.3f (est %.1f truth %.1f)" err est truth
      | _ -> Alcotest.fail "expected a conjunctive SUM query")

let test_statistics_reproduced () =
  let _, _, summary = Lazy.force pipeline in
  let phi = Poly.phi (Summary.poly summary) in
  let n = float_of_int (Phi.n phi) in
  let worst = ref 0. in
  Array.iter
    (fun s ->
      let est = Summary.estimate summary (Statistic.pred s) in
      worst := Float.max !worst (Float.abs (est -. Statistic.target s) /. n))
    (Phi.stats phi);
  if !worst > 1e-2 then
    Alcotest.failf "statistic reproduction drifted: %.4f relative to n" !worst

let test_beats_uniform_on_rare_values () =
  let _, rel, summary = Lazy.force pipeline in
  let attrs = [ F.fl_time; F.distance ] in
  let arity = Schema.arity (Relation.schema rel) in
  let rng = Prng.create ~seed:99 () in
  let w = Hitters.standard rng rel ~attrs ~num_hitters:25 ~num_nulls:25 in
  let uni =
    Methods.of_sample (Edb_sampling.Uniform.create rng ~rate:0.01 rel)
  in
  let ent = Methods.of_summary summary in
  let fs = Runner.run_f_all [ uni; ent ] ~arity ~attrs ~light:w.light ~nulls:w.nulls in
  match fs with
  | [ f_uni; f_ent ] ->
      if f_ent.f_measure <= f_uni.f_measure then
        Alcotest.failf "EntropyDB F %.3f <= uniform F %.3f" f_ent.f_measure
          f_uni.f_measure
  | _ -> Alcotest.fail "wrong arity"

let test_serialize_through_disk () =
  let _, rel, summary = Lazy.force pipeline in
  let path = Filename.temp_file "edb_integration" ".summary" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Serialize.save summary path;
      let summary' = Serialize.load path in
      let arity = Schema.arity (Relation.schema rel) in
      let rng = Prng.create ~seed:5 () in
      for _ = 1 to 25 do
        let q =
          Predicate.point ~arity
            [
              (F.origin, Prng.int rng F.n_states);
              (F.distance, Prng.int rng F.n_distances);
            ]
        in
        Alcotest.(check (float 1e-6))
          "estimates preserved"
          (Summary.estimate summary q)
          (Summary.estimate summary' q)
      done)

let test_csv_roundtrip_build () =
  (* generate -> CSV -> load -> build: the CLI's data path, in-process. *)
  let flights = F.generate ~rows:5_000 ~seed:13 () in
  let path = Filename.temp_file "edb_integration" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csv_io.save_indices flights.coarse path;
      match Csv_io.load_indices (Relation.schema flights.coarse) path with
      | Error e -> Alcotest.failf "load: %a" Csv_io.pp_error e
      | Ok rel ->
          let summary = Summary.build ~solver_config:quiet rel ~joints:[] in
          Alcotest.(check int) "cardinality" 5_000
            (Summary.cardinality summary))

let test_hierarchy_on_flights () =
  (* Drill the fine city attribute: root at ~state granularity (coarse
     buckets of contiguous city ids), refine the busiest buckets. *)
  let flights = F.generate ~rows:30_000 ~seed:21 () in
  let rel = flights.fine in
  (* Bucket boundaries: every 10 city ids (contiguity is what the
     hierarchy coarsens over). *)
  let boundaries = Array.init 15 (fun i -> i * 10) in
  (* Refine exactly the buckets holding the five busiest cities, so point
     queries on those cities are answered by sub-summaries. *)
  let top = Exec.top_k rel ~attrs:[ F.origin ] ~k:5 in
  let refine_buckets =
    List.sort_uniq compare
      (List.map (fun (vs, _) -> List.hd vs / 10) top)
  in
  let h =
    Hierarchy.build ~solver_config:quiet rel ~attr:F.origin ~boundaries
      ~refine:(`Buckets refine_buckets)
  in
  Alcotest.(check int) "refined buckets" (List.length refine_buckets)
    (Hierarchy.num_refined h);
  let arity = Schema.arity (Relation.schema rel) in
  (* Aggregate consistency. *)
  Alcotest.(check (float 100.))
    "total mass" 30_000.
    (Hierarchy.estimate h (Predicate.tautology arity));
  (* Point queries inside refined buckets track the truth reasonably. *)
  List.iter
    (fun (vs, truth) ->
      let v = List.hd vs in
      let q = Predicate.point ~arity [ (F.origin, v) ] in
      let est = Hierarchy.estimate h q in
      let err = Metrics.rel_error ~truth:(float_of_int truth) ~est in
      if err > 0.35 then
        Alcotest.failf "origin city %d: err %.3f (est %.1f truth %d)" v err est
          truth)
    top

let test_worlds_roundtrip_statistics () =
  (* Sampling a world from the summary and re-measuring its marginals
     approximates the original statistics (law of large numbers check on a
     few heavy marginals). *)
  let _, rel, summary = Lazy.force pipeline in
  ignore rel;
  let sampler = Worlds.create summary in
  let world =
    Worlds.sample_instance ~rows:20_000 sampler (Prng.create ~seed:31 ())
  in
  let phi = Poly.phi (Summary.poly summary) in
  let n_orig = float_of_int (Phi.n phi) in
  let n_world = float_of_int (Relation.cardinality world) in
  let hist = Histogram.d1 world ~attr:F.distance in
  let worst = ref 0. in
  for v = 0 to F.n_distances - 1 do
    let target =
      Phi.target phi (Phi.marginal_id phi ~attr:F.distance ~value:v) /. n_orig
    in
    if target > 0.02 then begin
      let got = float_of_int hist.(v) /. n_world in
      worst := Float.max !worst (Float.abs (got -. target) /. target)
    end
  done;
  if !worst > 0.2 then
    Alcotest.failf "sampled world marginals drift %.3f" !worst

let () =
  Alcotest.run "entropydb-integration"
    [
      ( "pipeline",
        [
          Alcotest.test_case "SQL counts (incl. OR)" `Slow test_sql_pipeline;
          Alcotest.test_case "SQL aggregates" `Slow test_sql_aggregates_pipeline;
          Alcotest.test_case "statistics reproduced" `Slow
            test_statistics_reproduced;
          Alcotest.test_case "beats uniform on rare values" `Slow
            test_beats_uniform_on_rare_values;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "summary through disk" `Slow
            test_serialize_through_disk;
          Alcotest.test_case "CSV round trip + build" `Slow
            test_csv_roundtrip_build;
        ] );
      ( "hierarchy",
        [ Alcotest.test_case "flights drill-down" `Slow test_hierarchy_on_flights ] );
      ( "worlds",
        [
          Alcotest.test_case "sampled world reproduces marginals" `Slow
            test_worlds_roundtrip_statistics;
        ] );
    ]
