(* Rare vs nonexistent values: EntropyDB's headline qualitative advantage.

   Run with:  dune exec examples/rare_values.exe

   A sample that misses a rare combination cannot tell "rare" from "absent"
   — both estimate 0.  The MaxEnt summary infers something about *every*
   point of the tuple space, and its COMPOSITE statistics pin truly absent
   regions to zero, so it can separate the two cases.  This example prints
   the raw estimates side by side and the resulting F measures, then shows
   the model's uncertainty for a rare value. *)

open Edb_util
open Edb_storage
open Edb_workload
module F = Edb_datagen.Flights

let () =
  let flights = F.generate ~rows:80_000 ~seed:11 () in
  let rel = flights.coarse in
  let schema = Relation.schema rel in
  let arity = Schema.arity schema in
  let attrs = [ F.fl_time; F.distance ] in

  (* EntropyDB with COMPOSITE rectangles on (fl_time, distance). *)
  let joints =
    Edb_select.Heuristic.select Edb_select.Heuristic.Composite rel
      ~attr1:F.fl_time ~attr2:F.distance ~budget:400
  in
  let summary = Entropydb_core.Summary.build rel ~joints in
  let ent = Methods.of_summary ~name:"EntropyDB" summary in
  let rng = Prng.create ~seed:5 () in
  let uni =
    Methods.of_sample ~name:"Uniform1%"
      (Edb_sampling.Uniform.create rng ~rate:0.01 rel)
  in

  let w = Hitters.standard rng rel ~attrs ~num_hitters:15 ~num_nulls:15 in
  Printf.printf "%-28s %8s %12s %12s\n" "(fl_time, distance)" "truth"
    "Uniform1%" "EntropyDB";
  let show tag values truth =
    let pred = Hitters.to_predicate ~arity ~attrs values in
    Printf.printf "%-28s %8d %12.1f %12.1f\n"
      (Printf.sprintf "%s (%s)" tag
         (String.concat ","
            (List.map2
               (fun a v -> Domain.label (Schema.domain schema a) v)
               attrs values)))
      truth (Methods.estimate uni pred) (Methods.estimate ent pred)
  in
  List.iteri (fun i (vs, c) -> if i < 8 then show "rare" vs c) w.light;
  List.iteri (fun i vs -> if i < 8 then show "absent" vs 0) w.nulls;

  let fs =
    Runner.run_f_all [ uni; ent ] ~arity ~attrs ~light:w.light ~nulls:w.nulls
  in
  Printf.printf "\n%-12s %10s %10s %10s\n" "method" "precision" "recall" "F";
  List.iter
    (fun r ->
      Printf.printf "%-12s %10.3f %10.3f %10.3f\n" r.Runner.f_method
        r.f_precision r.f_recall r.f_measure)
    fs;

  (* Estimates come with uncertainty: report a 95% interval for one rare
     value. *)
  match w.light with
  | (vs, c) :: _ ->
      let pred = Hitters.to_predicate ~arity ~attrs vs in
      let a = Entropydb_core.Summary.count summary pred in
      Printf.printf
        "\nModel belief for the first rare value: %.2f +/- %.2f (true %d)\n"
        a.est
        (1.96 *. sqrt a.var)
        c
  | [] -> ()
