(* The EntropyDB summary: the public face of the library.

   A summary bundles the solved polynomial with everything needed to answer
   queries: build it once offline (Sec. 3.3), then ask for expected counts
   of any conjunctive counting query (Sec. 4.2), group-by estimates, or
   uncertainty (closed-form variance — the paper's Sec. 7 roadmap item,
   which falls out of the multinomial reading of the fixed-size MaxEnt
   model). *)

open Edb_storage

type t = {
  poly : Poly.t;
  schema : Schema.t;
  n : int;
  report : Solver.report;
  journal : Journal.t; (* lineage: base build + every ingested batch *)
}

let build ?(solver_config = Solver.default_config) ?term_cap ?on_sweep rel
    ~joints =
  let phi = Phi.of_relation rel ~joints in
  let poly = Poly.create ?term_cap phi in
  let report = Solver.solve ~config:solver_config ?on_sweep poly in
  let n = Relation.cardinality rel in
  {
    poly;
    schema = Relation.schema rel;
    n;
    report;
    journal = Journal.base ~rows:n ();
  }

let of_phi ?(solver_config = Solver.default_config) ?term_cap ?init ?on_sweep
    phi =
  let poly = Poly.create ?term_cap phi in
  let report = Solver.solve ~config:solver_config ?init ?on_sweep poly in
  {
    poly;
    schema = Phi.schema phi;
    n = Phi.n phi;
    report;
    journal = Journal.base ~rows:(Phi.n phi) ();
  }

let of_solved_poly ?journal ~poly ~report () =
  let n = Poly.cardinality poly in
  {
    poly;
    schema = Poly.schema poly;
    n;
    report;
    journal =
      (match journal with Some j -> j | None -> Journal.base ~rows:n ());
  }

let schema t = t.schema
let cardinality t = t.n
let poly t = t.poly
let solver_report t = t.report
let journal t = t.journal
let with_journal t journal = { t with journal }
let read_only t = Poly.read_only t.poly
let verify t = Poly.verify t.poly
let release_pages t = Poly.release_pages t.poly

let estimate t query = Poly.estimate t.poly query

(* The paper rounds estimates below 0.5 to 0 when distinguishing rare from
   nonexistent values (Sec. 4.3 discussion of Fig. 2b). *)
let estimate_rounded t query =
  let e = estimate t query in
  if e < 0.5 then 0. else e

(* Multinomial view (Sec. 3.1's slotted worlds of fixed cardinality n):
   each of the n slots holds tuple u with probability p_u = monomial_u / P
   independently, so a counting query's answer is Binomial(n, p) with
   p = P[zeroed]/P; hence Var = n p (1-p). *)
let variance t query =
  let p_total = Poly.p t.poly in
  if p_total <= 0. then 0.
  else
    let p_q = Poly.eval_restricted t.poly query /. p_total in
    let p_q = Edb_util.Floatx.clamp ~lo:0. ~hi:1. p_q in
    float_of_int t.n *. p_q *. (1. -. p_q)

let stddev t query = sqrt (variance t query)

(* One restricted evaluation serving both moments: the estimate is computed
   with the same operations in the same order as [Poly.estimate], so it is
   bitwise-identical to {!estimate}, and the variance matches {!variance}. *)
let estimate_with_variance t query =
  let p_total = Poly.p t.poly in
  if Predicate.is_unsatisfiable query then (0., 0.)
  else if p_total <= 0. then (0., 0.)
  else
    let r = Poly.eval_restricted t.poly query in
    let est = float_of_int t.n *. r /. p_total in
    let p_q = Edb_util.Floatx.clamp ~lo:0. ~hi:1. (r /. p_total) in
    (est, float_of_int t.n *. p_q *. (1. -. p_q))

(* Aggregate queries beyond COUNT: SUM and AVG over a binned attribute,
   answered as weighted linear queries (each row contributes its bin's
   midpoint).  The paper's theory covers all linear queries; its prototype
   stopped at counting (Sec. 7 "limited query support") — this closes that
   gap for the product-form subclass. *)
let midpoint_weights t ~attr =
  let domain = Schema.domain t.schema attr in
  let table =
    Array.init (Schema.domain_size t.schema attr) (fun v ->
        Domain.bin_midpoint domain v)
  in
  fun v -> table.(v)

let estimate_sum t ~attr ?weights query =
  let w = match weights with Some w -> w | None -> midpoint_weights t ~attr in
  Poly.estimate_weighted t.poly query ~weights:[ (attr, w) ]

let estimate_avg t ~attr query =
  let count = estimate t query in
  if count <= 0. then None else Some (estimate_sum t ~attr query /. count)

(* Var[Σ_t w_t X_t] for the multinomial model: n (Σ w² p − (Σ w p)²). *)
let variance_sum t ~attr ?weights query =
  let w = match weights with Some w -> w | None -> midpoint_weights t ~attr in
  let p_total = Poly.p t.poly in
  if p_total <= 0. then 0.
  else
    let mean_w =
      Poly.eval_weighted t.poly query ~weights:[ (attr, w) ] /. p_total
    in
    let mean_w2 =
      Poly.eval_weighted t.poly query ~weights:[ (attr, fun v -> w v ** 2.) ]
      /. p_total
    in
    Float.max 0. (float_of_int t.n *. (mean_w2 -. (mean_w ** 2.)))

(* GROUP BY estimation (the paper's Sec. 3.1 reading of GROUP BY +
   ORDER BY ... LIMIT).  The grouping attribute with the widest
   (restricted) candidate set is answered by the batched kernel
   {!Poly.eval_restricted_by_value} — one term pass for all of its
   values — and the cross product of the remaining attributes is
   enumerated around it, so a d-attribute GROUP BY costs
   Π_{i≠pivot}|D_i| kernel passes instead of Π_i|D_i| full scans.
   Each cell's restricted P also yields its binomial p, so the
   per-group variance is free.  Cells are emitted in the nested
   enumeration order of [attrs] (lexicographic in the group key). *)
let estimate_groups_with_variance t ~attrs query =
  let n = float_of_int t.n in
  let p_total = Poly.p t.poly in
  let cell r =
    if p_total <= 0. then (0., 0.)
    else
      let est = n *. r /. p_total in
      let p = Edb_util.Floatx.clamp ~lo:0. ~hi:1. (r /. p_total) in
      (est, n *. p *. (1. -. p))
  in
  match attrs with
  | [] ->
      let r =
        if Predicate.is_unsatisfiable query then 0.
        else Poly.eval_restricted t.poly query
      in
      let est, var = cell r in
      [ ([], est, var) ]
  | _ ->
      let attr_arr = Array.of_list attrs in
      let cand =
        Array.map
          (fun attr ->
            match Predicate.restriction query attr with
            | None -> Array.init (Schema.domain_size t.schema attr) Fun.id
            | Some r -> Array.of_list (Edb_util.Ranges.to_list r))
          attr_arr
      in
      let pivot = ref 0 in
      Array.iteri
        (fun i c ->
          if Array.length c > Array.length cand.(!pivot) then pivot := i)
        cand;
      let pivot = !pivot in
      let d = Array.length attr_arr in
      let chosen = Array.make d 0 in
      (* One kernel-result buffer for the whole cross product: the
         batched kernel fills it in place per non-pivot combination, so
         a d-attribute GROUP BY no longer allocates a fresh domain-sized
         vector per cell row. *)
      let vec =
        Array.make (Schema.domain_size t.schema attr_arr.(pivot)) 0.
      in
      let cells = ref [] in
      let rec combos i =
        if i = d then begin
          let q = ref query in
          for j = 0 to d - 1 do
            if j <> pivot then
              q :=
                Predicate.restrict !q attr_arr.(j)
                  (Edb_util.Ranges.singleton chosen.(j))
          done;
          Poly.eval_restricted_by_value_into t.poly !q ~attr:attr_arr.(pivot)
            ~out:vec;
          Array.iter
            (fun v ->
              chosen.(pivot) <- v;
              cells := (Array.to_list chosen, vec.(v)) :: !cells)
            cand.(pivot)
        end
        else if i = pivot then combos (i + 1)
        else
          Array.iter
            (fun v ->
              chosen.(i) <- v;
              combos (i + 1))
            cand.(i)
      in
      combos 0;
      (* Candidate sets are ascending, so lexicographic key order is the
         nested enumeration order of [attrs]. *)
      List.sort (fun (a, _) (b, _) -> compare a b) !cells
      |> List.map (fun (key, r) ->
             let est, var = cell r in
             (key, est, var))

let estimate_groups_with_stddev t ~attrs query =
  List.map
    (fun (key, est, var) -> (key, est, sqrt var))
    (estimate_groups_with_variance t ~attrs query)

let estimate_groups t ~attrs query =
  List.map
    (fun (key, est, _) -> (key, est))
    (estimate_groups_with_variance t ~attrs query)

(* Descending by estimate under the NaN-safe total order of
   [Float.compare], ties broken by group key — so top-k selection is
   total and deterministic (and identical across flat and sharded
   summaries). *)
let group_order (ka, a) (kb, b) =
  let c = Float.compare b a in
  if c <> 0 then c else Stdlib.compare ka kb

let top_k_groups t ~attrs ~k query =
  let groups = estimate_groups t ~attrs query in
  let sorted = List.sort group_order groups in
  List.filteri (fun i _ -> i < k) sorted

type size_report = {
  num_statistics : int;
  num_marginals : int;
  num_terms : int;
  num_groups : int;
  uncompressed_monomials : float;
}

let size_report t =
  {
    num_statistics = Poly.num_stats t.poly;
    num_marginals = Poly.num_marginals t.poly;
    num_terms = Poly.num_terms t.poly;
    num_groups = Poly.num_groups t.poly;
    uncompressed_monomials = Poly.uncompressed_monomials t.poly;
  }

let footprint_bytes t = Poly.footprint_bytes t.poly

let pp_size_report ppf r =
  Fmt.pf ppf
    "@[<v>statistics: %d (%d marginals, %d joints)@,\
     compressed terms: %d in %d group(s)@,\
     uncompressed monomials: %.3g@,\
     compression ratio: %.3gx@]"
    r.num_statistics r.num_marginals
    (r.num_statistics - r.num_marginals)
    r.num_terms r.num_groups r.uncompressed_monomials
    (r.uncompressed_monomials /. float_of_int (max 1 r.num_terms))
