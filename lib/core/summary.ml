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
  bytes : int; (* size of the file the parts' tables are mapped from *)
  release : unit -> unit; (* gives that mapping's pages back *)
}

let flat schema part =
  { parts = [| part |]; schema; strategy = "flat"; bytes = 0; release = ignore }

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
  { parts = Array.concat parts; schema; strategy; bytes = 0; release = ignore }

let of_file ~bytes ~release t = { t with bytes; release }

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

let read_only t = Array.for_all (fun p -> Poly.read_only p.poly) t.parts
let verify t = Array.iter (fun p -> Poly.verify p.poly) t.parts
let release_pages t = t.release ()
let footprint_bytes t = t.bytes

(* ------------------------------------------------------------------ *)
(* One part                                                            *)
(* ------------------------------------------------------------------ *)

type answer = { est : float; var : float }

let zero = { est = 0.; var = 0. }

(* Multinomial view (Sec. 3.1's slotted worlds of fixed cardinality n):
   each of the n slots holds tuple u with probability p_u = monomial_u / P
   independently, so a counting query's answer is Binomial(n, p) with
   p = P[zeroed]/P: one restricted mass r = P[zeroed] yields both the
   expectation n·r/P (Sec. 4.2's final formula, multiplied before it
   divides) and the variance n·p·(1−p).  COUNT and every GROUP BY cell
   answer through here; [Disjunction.count] applies the same formula per
   intersection. *)
let binomial n ~p_total r =
  if p_total <= 0. then zero
  else
    let p = Edb_util.Floatx.clamp ~lo:0. ~hi:1. (r /. p_total) in
    { est = n *. r /. p_total; var = n *. p *. (1. -. p) }

let part_count p query =
  let p_total = Poly.p p.poly in
  if Predicate.is_unsatisfiable query || p_total <= 0. then zero
  else binomial (float_of_int p.n) ~p_total (Poly.eval_restricted p.poly query)

(* SUM over a weighted linear query: the w pass gives E = n·Σw·m/P, and
   with the w² pass Var[Σ_t w_t X_t] = n·(E[w²] − E[w]²) per draw.  Each
   pass is the COUNT kernel over weighted prefix sums
   ([Poly.eval_weighted]).  AVG reads only the estimate, so
   [~var:false] skips the w² pass.  An unsatisfiable query answers 0
   before any pass, as in [part_count]. *)
let part_sum ~var p ~attr w query =
  let p_total = Poly.p p.poly in
  if Predicate.is_unsatisfiable query || p_total <= 0. then zero
  else
    let n = float_of_int p.n in
    let pass w = Poly.eval_weighted p.poly query ~weights:[ (attr, w) ] in
    let r_w = pass w in
    let est = n *. r_w /. p_total in
    if not var then { est; var = 0. }
    else
      let mean_w = r_w /. p_total in
      let mean_w2 = pass (fun v -> w v ** 2.) /. p_total in
      { est; var = Float.max 0. (n *. (mean_w2 -. (mean_w ** 2.))) }

(* Binomial variance of a disjunction count, as for conjunctions, from
   the same inclusion–exclusion walk as its estimate. *)
let part_count_disjuncts p disjuncts =
  let est, pr = Disjunction.count p.poly disjuncts in
  { est; var = float_of_int p.n *. pr *. (1. -. pr) }

(* GROUP BY estimation (the paper's Sec. 3.1 reading of GROUP BY +
   ORDER BY ... LIMIT).  The grouping attribute with the widest
   (restricted) candidate set is answered by the batched kernel
   {!Poly.eval_restricted_by_value} — one term pass for all of its
   values — and the cross product of the remaining attributes is
   enumerated around it, so a d-attribute GROUP BY costs
   Π_{i≠pivot}|D_i| kernel passes instead of Π_i|D_i| full scans.
   Each cell's restricted P is a binomial mass like a COUNT's, so the
   per-group variance is free.  Cells are emitted in the nested
   enumeration order of [attrs] (lexicographic in the group key). *)
let part_groups schema p ~attrs query =
  let n = float_of_int p.n in
  let p_total = Poly.p p.poly in
  let cell = binomial n ~p_total in
  match attrs with
  | [] ->
      let r =
        if Predicate.is_unsatisfiable query then 0.
        else Poly.eval_restricted p.poly query
      in
      [ ([], cell r) ]
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
      |> List.map (fun (key, r) -> (key, cell r))

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

let add a b = { est = a.est +. b.est; var = a.var +. b.var }

(* Left-to-right sum over parts; starting from 0. keeps k = 1 bitwise
   equal to the part's answer (0. +. x = x for every x but -0., which
   no estimator here produces). *)
let sum_parts t f =
  let acc = ref zero in
  Array.iteri
    (fun i p -> acc := add !acc (eval_part i (fun () -> f p)))
    t.parts;
  !acc

let count t query = sum_parts t (fun p -> part_count p query)
let estimate t query = (count t query).est

(* The paper rounds estimates below 0.5 to 0 when distinguishing rare from
   nonexistent values (Sec. 4.3 discussion of Fig. 2b). *)
let estimate_rounded t query =
  let e = estimate t query in
  if e < 0.5 then 0. else e

(* Aggregate queries beyond COUNT: SUM and AVG over a binned attribute,
   answered as weighted linear queries (each row contributes its bin's
   midpoint).  The paper's theory covers all linear queries; its prototype
   stopped at counting (Sec. 7 "limited query support") — this closes that
   gap for the product-form subclass. *)
let midpoints t ~attr =
  let domain = Schema.domain t.schema attr in
  let table =
    Array.init (Schema.domain_size t.schema attr) (fun v ->
        Domain.bin_midpoint domain v)
  in
  fun v -> table.(v)

let sum t ~attr query =
  let w = midpoints t ~attr in
  sum_parts t (fun p -> part_sum ~var:true p ~attr w query)

let estimate_avg t ~attr query =
  let count = estimate t query in
  if count <= 0. then None
  else
    let w = midpoints t ~attr in
    let total = sum_parts t (fun p -> part_sum ~var:false p ~attr w query) in
    Some (total.est /. count)

(* Disjunctions: inclusion–exclusion is itself a linear combination of
   conjunctive counts, so it runs per part and sums like any other
   linear query. *)
let count_disjuncts t disjuncts =
  sum_parts t (fun p -> part_count_disjuncts p disjuncts)

(* GROUP BY: every part enumerates the same group keys in the same
   ascending order (the enumeration is driven by the schema's domains and
   the query's restrictions, not by data), so the per-part cells merge
   positionally.  Parts are evaluated in part order on the calling
   domain and merged left to right, so at k = 1 part 0's cells are
   returned untouched. *)
let groups t ~attrs query =
  let cells i =
    eval_part i (fun () -> part_groups t.schema t.parts.(i) ~attrs query)
  in
  let acc = ref (cells 0) in
  for i = 1 to Array.length t.parts - 1 do
    acc := List.map2 (fun (key, a) (_, b) -> (key, add a b)) !acc (cells i)
  done;
  !acc

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
