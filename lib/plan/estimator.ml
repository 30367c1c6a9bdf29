(* The planner's common interface over the repo's three answer machines.

   A MaxEnt summary (of any number of parts), a weighted sample, and an exact
   scan all answer the same aggregate shapes; what distinguishes them is
   the error they make and the work they do.  An [Estimator.t] packages a
   backend behind a uniform [(estimate, variance)] surface plus a static
   cost model, which is all the planner needs to route a query. *)

open Edb_storage

type kind = Summary | Sample | Exact | Combined

let kind_name = function
  | Summary -> "summary"
  | Sample -> "sample"
  | Exact -> "exact"
  | Combined -> "combined"

type answer = Entropydb_core.Summary.answer = { est : float; var : float }

type t = {
  name : string;
  kind : kind;
  cost_us : float;
  count : Predicate.t -> answer;
  sum : (int -> Predicate.t -> answer) option;
  groups : (int list -> Predicate.t -> (int list * answer) list) option;
}

let name t = t.name
let kind t = t.kind
let cost_us t = t.cost_us
let count t q = t.count q
let sum t attr q = Option.map (fun f -> f attr q) t.sum
let groups t attrs q = Option.map (fun f -> f attrs q) t.groups

(* Cost model: predicted microseconds for one COUNT.  The constants are
   deliberately coarse — the planner only needs the ordering
   sample < summary < exact at realistic sizes (a 1% sample scans 100×
   fewer rows than the base table; a summary touches terms, not rows),
   not microsecond accuracy.  [bench planner] records predicted vs
   measured latency per route. *)
let term_cost_us = 0.02
let row_cost_us = 0.0025

let summary_cost num_terms = term_cost_us *. float_of_int (max 1 num_terms)
let scan_cost rows = row_cost_us *. float_of_int (max 1 rows)

let of_summary ?(name = "summary") s =
  let open Entropydb_core in
  {
    name;
    kind = Summary;
    cost_us = summary_cost (Summary.size_report s).Summary.num_terms;
    count = Summary.count s;
    sum = Some (fun attr q -> Summary.sum s ~attr q);
    groups = Some (fun attrs q -> Summary.groups s ~attrs q);
  }

let of_sample ?name s =
  let open Edb_sampling in
  let name = Option.value name ~default:"sample" in
  {
    name;
    kind = Sample;
    cost_us = scan_cost (Sample.size s);
    count =
      (fun q ->
        let est, var = Sample.estimate_with_variance s q in
        { est; var });
    sum =
      Some
        (fun attr q ->
          let est, var = Sample.estimate_sum_with_variance s ~attr q in
          { est; var });
    groups =
      Some
        (fun attrs q ->
          List.map
            (fun (key, est, var) -> (key, { est; var }))
            (Sample.estimate_group_with_variance s ~attrs q));
  }

let of_relation ?(name = "exact") rel =
  {
    name;
    kind = Exact;
    cost_us = scan_cost (Relation.cardinality rel);
    count = (fun q -> { est = float_of_int (Exec.count rel q); var = 0. });
    sum = Some (fun attr q -> { est = Exec.sum rel ~attr q; var = 0. });
    groups =
      Some
        (fun attrs q ->
          List.map
            (fun (key, c) -> (key, { est = float_of_int c; var = 0. }))
            (Exec.group_count ~pred:q rel ~attrs));
  }

(* Inverse-variance weighting of two unbiased, independent estimators:
   est = (e₁/v₁ + e₂/v₂)/(1/v₁ + 1/v₂) and var = 1/(1/v₁ + 1/v₂)
   = v₁v₂/(v₁+v₂) ≤ min(v₁, v₂) — the minimum-variance unbiased linear
   combination.  A zero-variance component is exact and wins outright
   (the weights degenerate). *)
let combine_answers a b =
  if not (a.var > 0.) then a
  else if not (b.var > 0.) then b
  else
    let w1 = 1. /. a.var and w2 = 1. /. b.var in
    {
      est = ((a.est *. w1) +. (b.est *. w2)) /. (w1 +. w2);
      var = 1. /. (w1 +. w2);
    }

(* GROUP BY is deliberately not combined: a sample omits groups it did not
   draw, so the two group lists need not align — the planner routes group
   queries to a single estimator instead. *)
let combine t1 t2 =
  {
    name = t1.name ^ "+" ^ t2.name;
    kind = Combined;
    cost_us = t1.cost_us +. t2.cost_us;
    count = (fun q -> combine_answers (t1.count q) (t2.count q));
    sum =
      (match (t1.sum, t2.sum) with
      | Some f, Some g -> Some (fun attr q -> combine_answers (f attr q) (g attr q))
      | (Some _ as f), None | None, (Some _ as f) -> f
      | None, None -> None);
    groups = None;
  }
