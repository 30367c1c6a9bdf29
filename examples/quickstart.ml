(* Quickstart: summarize a dataset and explore it with SQL.

   Run with:  dune exec examples/quickstart.exe

   The flow is the paper's end-to-end story in miniature:
   1. load a relation (here: a generated flights dataset);
   2. choose 2D statistics automatically (correlated attribute pairs,
      COMPOSITE KD-tree rectangles);
   3. build the MaxEnt summary (offline step);
   4. answer exploratory SQL queries from the summary alone, and compare
      with exact answers. *)

open Edb_storage
open Entropydb_core

let queries =
  [
    "SELECT COUNT(*) FROM flights WHERE origin_state = 'S00'";
    "SELECT COUNT(*) FROM flights WHERE origin_state = 'S00' AND dest_state = 'S01'";
    "SELECT COUNT(*) FROM flights WHERE distance IN [40, 80]";
    "SELECT COUNT(*) FROM flights WHERE fl_time IN [0, 10] AND distance IN [60, 80]";
    "SELECT COUNT(*) FROM flights WHERE fl_date = 100 AND origin_state = 'S02'";
  ]

let () =
  Printf.printf "=== EntropyDB quickstart ===\n\n%!";

  (* 1. Data: 100k synthetic US flights at state granularity. *)
  let flights = Edb_datagen.Flights.generate ~rows:100_000 ~seed:42 () in
  let rel = flights.coarse in
  let schema = Relation.schema rel in
  Printf.printf "Relation: %d rows, %d attributes, |Tup| = %.3g\n\n"
    (Relation.cardinality rel) (Schema.arity schema)
    (Schema.tuple_space_size schema);

  (* 2. Statistics: two correlated attribute pairs, 150 KD-tree rectangles
        each. *)
  let pairs =
    Edb_select.Pairs.select ~strategy:Edb_select.Pairs.By_cover ~budget:2 rel
  in
  let joints =
    List.concat_map
      (fun (a, b) ->
        Printf.printf "2D statistics on (%s, %s)\n%!" (Schema.attr_name schema a)
          (Schema.attr_name schema b);
        Edb_select.Heuristic.select Edb_select.Heuristic.Composite rel ~attr1:a
          ~attr2:b ~budget:150)
      pairs
  in

  (* 3. Summary: solve the MaxEnt model. *)
  Printf.printf "\nBuilding summary (%d joint statistics)...\n%!"
    (List.length joints);
  let summary = Summary.build rel ~joints in
  let report = Summary.solver_report summary in
  Printf.printf "Solved in %d sweeps, %.2fs (max rel err %.2e)\n"
    report.sweeps report.seconds report.max_rel_error;
  Fmt.pr "%a\n\n" Summary.pp_size_report (Summary.size_report summary);

  (* 4. Explore with SQL. *)
  Printf.printf "%-78s %10s %10s %8s\n" "query" "exact" "entropydb" "stddev";
  List.iter
    (fun sql ->
      match Edb_query.Translate.compile_string schema sql with
      | Error e -> Fmt.pr "%s -> error: %a\n" sql Edb_query.Translate.pp_error e
      | Ok c ->
          let predicate =
            Option.get (Edb_query.Translate.conjunctive c)
          in
          let exact = Exec.count rel predicate in
          let a = Summary.count summary predicate in
          Printf.printf "%-78s %10d %10.1f %8.1f\n" sql exact a.est
            (sqrt a.var))
    queries;

  (* Bonus: the summary is a full probabilistic database — sample a
     possible world from it. *)
  let sampler = Worlds.create summary in
  let world =
    Worlds.sample_instance ~rows:5 sampler (Edb_util.Prng.create ~seed:7 ())
  in
  Printf.printf "\nFive tuples sampled from the model:\n";
  Relation.iteri
    (fun _ row ->
      let cells =
        Array.to_list
          (Array.mapi (fun i v -> Domain.label (Schema.domain schema i) v) row)
      in
      Printf.printf "  %s\n" (String.concat ", " cells))
    world
