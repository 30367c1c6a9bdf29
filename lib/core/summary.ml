(* The EntropyDB summary: the public face of the library.

   A summary bundles solved polynomials with everything needed to answer
   queries: build it once offline (Sec. 3.3), then ask for expected counts
   of any conjunctive counting query (Sec. 4.2), group-by estimates, or
   uncertainty (closed-form variance — the paper's Sec. 7 roadmap item,
   which falls out of the multinomial reading of the fixed-size MaxEnt
   model).

   A summary is k >= 1 solved *parts*: one for a single build, k for a
   relation partitioned into k disjoint row sets (lib/shard) and solved
   part by part.  Every estimator folds over the parts, and the fold is
   exact, not approximate: a linear query over a disjoint union is the
   sum of the per-part queries, so expectations add by linearity (Sec.
   4.2's E[<q,I>] applied per part) and variances add because the
   per-part MaxEnt models are independent distributions.  Per-part
   answers are combined left to right from 0., so answers are
   deterministic and, at k = 1, bitwise the part's own. *)

open Edb_storage

type part = {
  poly : Poly.t;
  n : int;
  report : Solver.report;
  journal : Journal.t; (* lineage: base build + every ingested batch *)
}

type t = {
  parts : part array;
  schema : Schema.t;
  strategy : string; (* provenance: "flat", "rows", "attr:<name>" *)
}

let flat schema part = { parts = [| part |]; schema; strategy = "flat" }

let build ?(solver_config = Solver.default_config) ?term_cap ?on_sweep rel
    ~joints =
  let phi = Phi.of_relation rel ~joints in
  let poly = Poly.create ?term_cap phi in
  let report = Solver.solve ~config:solver_config ?on_sweep poly in
  let n = Relation.cardinality rel in
  flat (Relation.schema rel)
    { poly; n; report; journal = Journal.base ~rows:n () }

let of_phi ?(solver_config = Solver.default_config) ?term_cap ?init ?on_sweep
    phi =
  let poly = Poly.create ?term_cap phi in
  let report = Solver.solve ~config:solver_config ?init ?on_sweep poly in
  let n = Phi.n phi in
  flat (Phi.schema phi) { poly; n; report; journal = Journal.base ~rows:n () }

let of_solved_poly ?journal ~poly ~report () =
  let n = Poly.cardinality poly in
  let journal =
    match journal with Some j -> j | None -> Journal.base ~rows:n ()
  in
  flat (Poly.schema poly) { poly; n; report; journal }

let of_parts ?(strategy = "rows") summaries =
  if Array.length summaries = 0 then invalid_arg "Summary.of_parts: no parts";
  let schema = summaries.(0).schema in
  Array.iter
    (fun s ->
      if Stdlib.compare s.schema schema <> 0 then
        invalid_arg "Summary.of_parts: part schema mismatch")
    summaries;
  let parts = Array.to_list (Array.map (fun s -> s.parts) summaries) in
  { parts = Array.concat parts; schema; strategy }

let parts t = Array.map (flat t.schema) t.parts
let num_parts t = Array.length t.parts
let strategy t = t.strategy
let schema t = t.schema
let cardinality t = Array.fold_left (fun acc p -> acc + p.n) 0 t.parts

(* The accessors below name one polynomial, which only a one-part
   summary has. *)
let only t fn =
  match t.parts with
  | [| p |] -> p
  | parts ->
      invalid_arg
        (Printf.sprintf "Summary.%s: the summary has %d parts" fn
           (Array.length parts))

let poly t = (only t "poly").poly
let solver_report t = (only t "solver_report").report
let journal t = (only t "journal").journal

let with_journal t journal =
  { t with parts = [| { (only t "with_journal") with journal } |] }

let read_only t = Array.for_all (fun p -> Poly.read_only p.poly) t.parts
let verify t = Array.iter (fun p -> Poly.verify p.poly) t.parts
let release_pages t = Array.iter (fun p -> Poly.release_pages p.poly) t.parts

(* ------------------------------------------------------------------ *)
(* One part                                                            *)
(* ------------------------------------------------------------------ *)

(* Multinomial view (Sec. 3.1's slotted worlds of fixed cardinality n):
   each of the n slots holds tuple u with probability p_u = monomial_u / P
   independently, so a counting query's answer is Binomial(n, p) with
   p = P[zeroed]/P; hence Var = n p (1-p). *)
let part_variance p query =
  let p_total = Poly.p p.poly in
  if p_total <= 0. then 0.
  else
    let p_q = Poly.eval_restricted p.poly query /. p_total in
    let p_q = Edb_util.Floatx.clamp ~lo:0. ~hi:1. p_q in
    float_of_int p.n *. p_q *. (1. -. p_q)

(* One restricted evaluation serving both moments: the estimate is computed
   with the same operations in the same order as [Poly.estimate], so it is
   bitwise-identical to it, and the variance matches [part_variance]. *)
let part_estimate_with_variance p query =
  let p_total = Poly.p p.poly in
  if Predicate.is_unsatisfiable query then (0., 0.)
  else if p_total <= 0. then (0., 0.)
  else
    let r = Poly.eval_restricted p.poly query in
    let est = float_of_int p.n *. r /. p_total in
    let p_q = Edb_util.Floatx.clamp ~lo:0. ~hi:1. (r /. p_total) in
    (est, float_of_int p.n *. p_q *. (1. -. p_q))

(* Var[Σ_t w_t X_t] for the multinomial model: n (Σ w² p − (Σ w p)²). *)
let part_variance_sum p ~attr w query =
  let p_total = Poly.p p.poly in
  if p_total <= 0. then 0.
  else
    let mean_w =
      Poly.eval_weighted p.poly query ~weights:[ (attr, w) ] /. p_total
    in
    let mean_w2 =
      Poly.eval_weighted p.poly query ~weights:[ (attr, fun v -> w v ** 2.) ]
      /. p_total
    in
    Float.max 0. (float_of_int p.n *. (mean_w2 -. (mean_w ** 2.)))

(* Binomial variance of a disjunction count, as for conjunctions. *)
let part_variance_disjuncts p disjuncts =
  let pr = Disjunction.probability p.poly disjuncts in
  float_of_int p.n *. pr *. (1. -. pr)

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
let part_groups schema p ~attrs query =
  let n = float_of_int p.n in
  let p_total = Poly.p p.poly in
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
        else Poly.eval_restricted p.poly query
      in
      let est, var = cell r in
      [ ([], est, var) ]
  | _ ->
      let attr_arr = Array.of_list attrs in
      let cand =
        Array.map
          (fun attr ->
            match Predicate.restriction query attr with
            | None -> Array.init (Schema.domain_size schema attr) Fun.id
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
      let vec = Array.make (Schema.domain_size schema attr_arr.(pivot)) 0. in
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
          Poly.eval_restricted_by_value_into p.poly !q ~attr:attr_arr.(pivot)
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

(* ------------------------------------------------------------------ *)
(* The fold over parts                                                 *)
(* ------------------------------------------------------------------ *)

(* One registry counter tick and (when tracing) one span per part
   evaluation, so an answer's cost is attributable part by part. *)
let part_evals = Edb_obs.Registry.counter "shard.evals"

let eval_part i f =
  Edb_obs.Registry.Counter.incr part_evals;
  Edb_obs.Obs.with_span "shard.eval" ~cat:"answer"
    ~attrs:(fun () -> [ ("shard", string_of_int i) ])
    f

(* Left-to-right sum over parts; starting from 0. keeps k = 1 bitwise
   equal to the part's answer (0. +. x = x for every x but -0., which
   no estimator here produces). *)
let sum_parts t f =
  let acc = ref 0. in
  Array.iteri (fun i p -> acc := !acc +. eval_part i (fun () -> f p)) t.parts;
  !acc

let estimate t query = sum_parts t (fun p -> Poly.estimate p.poly query)

(* The paper rounds estimates below 0.5 to 0 when distinguishing rare from
   nonexistent values (Sec. 4.3 discussion of Fig. 2b). *)
let estimate_rounded t query =
  let e = estimate t query in
  if e < 0.5 then 0. else e

let variance t query = sum_parts t (fun p -> part_variance p query)
let stddev t query = sqrt (variance t query)

let estimate_with_variance t query =
  let est = ref 0. and var = ref 0. in
  Array.iteri
    (fun i p ->
      let e, v = eval_part i (fun () -> part_estimate_with_variance p query) in
      est := !est +. e;
      var := !var +. v)
    t.parts;
  (!est, !var)

(* Aggregate queries beyond COUNT: SUM and AVG over a binned attribute,
   answered as weighted linear queries (each row contributes its bin's
   midpoint).  The paper's theory covers all linear queries; its prototype
   stopped at counting (Sec. 7 "limited query support") — this closes that
   gap for the product-form subclass. *)
let weights_for t ~attr = function
  | Some w -> w
  | None ->
      let domain = Schema.domain t.schema attr in
      let table =
        Array.init (Schema.domain_size t.schema attr) (fun v ->
            Domain.bin_midpoint domain v)
      in
      fun v -> table.(v)

let estimate_sum t ~attr ?weights query =
  let w = weights_for t ~attr weights in
  sum_parts t (fun p ->
      Poly.estimate_weighted p.poly query ~weights:[ (attr, w) ])

let variance_sum t ~attr ?weights query =
  let w = weights_for t ~attr weights in
  sum_parts t (fun p -> part_variance_sum p ~attr w query)

let estimate_avg t ~attr query =
  let count = estimate t query in
  if count <= 0. then None else Some (estimate_sum t ~attr query /. count)

(* Disjunctions: inclusion–exclusion is itself a linear combination of
   conjunctive counts, so it runs per part and sums like any other
   linear query. *)
let estimate_disjuncts t disjuncts =
  sum_parts t (fun p -> Disjunction.estimate p.poly disjuncts)

let variance_disjuncts t disjuncts =
  sum_parts t (fun p -> part_variance_disjuncts p disjuncts)

let stddev_disjuncts t disjuncts = sqrt (variance_disjuncts t disjuncts)

(* GROUP BY: every part enumerates the same group keys in the same
   ascending order (the enumeration is driven by the schema's domains and
   the query's restrictions, not by data), so the per-part cells merge
   positionally.  Parts are evaluated concurrently on OCaml 5 domains;
   [Parallel.fold] combines chunks left to right — part order — so the
   merge is deterministic, and at k = 1 part 0's cells are returned
   untouched. *)
let estimate_groups_with_variance t ~attrs query =
  let k = Array.length t.parts in
  let eval i =
    eval_part i (fun () -> part_groups t.schema t.parts.(i) ~attrs query)
  in
  if k = 1 then eval 0
  else
    let per_part =
      Edb_util.Parallel.fold
        ~domains:(min k (Edb_util.Parallel.default_domains ()))
        ~n:k
        ~chunk:(fun ~lo ~hi -> List.init (hi - lo) (fun i -> eval (lo + i)))
        ~combine:( @ ) ~init:[]
    in
    match per_part with
    | [] -> []
    | base :: rest ->
        List.fold_left
          (fun acc cells ->
            List.map2
              (fun (key, e, v) (_, e', v') -> (key, e +. e', v +. v'))
              acc cells)
          base rest

let estimate_groups_with_stddev t ~attrs query =
  List.map
    (fun (key, est, var) -> (key, est, sqrt var))
    (estimate_groups_with_variance t ~attrs query)

let estimate_groups t ~attrs query =
  List.map
    (fun (key, est, _) -> (key, est))
    (estimate_groups_with_variance t ~attrs query)

(* ------------------------------------------------------------------ *)
(* Size                                                                *)
(* ------------------------------------------------------------------ *)

type size_report = {
  num_statistics : int;
  num_marginals : int;
  num_terms : int;
  num_groups : int;
  uncompressed_monomials : float;
}

let size_report t =
  Array.fold_left
    (fun acc p ->
      {
        num_statistics = acc.num_statistics + Poly.num_stats p.poly;
        num_marginals = acc.num_marginals + Poly.num_marginals p.poly;
        num_terms = acc.num_terms + Poly.num_terms p.poly;
        num_groups = acc.num_groups + Poly.num_groups p.poly;
        uncompressed_monomials =
          acc.uncompressed_monomials +. Poly.uncompressed_monomials p.poly;
      })
    {
      num_statistics = 0;
      num_marginals = 0;
      num_terms = 0;
      num_groups = 0;
      uncompressed_monomials = 0.;
    }
    t.parts

let footprint_bytes t =
  Array.fold_left (fun acc p -> acc + Poly.footprint_bytes p.poly) 0 t.parts

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
