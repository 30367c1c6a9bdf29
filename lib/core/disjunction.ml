(* Disjunctive queries by inclusion–exclusion.

   The paper's model answers any linear query; conjunctive predicates are
   the primitive the zeroing trick (Sec. 4.2) evaluates directly.  A
   disjunction q = pi_1 OR ... OR pi_d of conjunctive predicates is still a
   linear (counting) query, and since the conjunction of two conjunctive
   predicates is again conjunctive (per-attribute range intersection),
   inclusion–exclusion reduces the disjunction to 2^d - 1 primitive calls:

       E[q] = sum over non-empty S of (-1)^(|S|+1) E[AND of S].

   d is capped (default 10) — beyond that the caller should rewrite the
   query; unsatisfiable intersections (and all their supersets) are pruned
   early, so the typical cost is far below 2^d. *)

open Edb_storage

let max_disjuncts = 10

let check_disjuncts preds =
  let d = List.length preds in
  if d = 0 then invalid_arg "Disjunction: empty disjunction";
  if d > max_disjuncts then
    invalid_arg
      (Printf.sprintf "Disjunction: %d disjuncts exceed the cap of %d" d
         max_disjuncts)

(* Fold inclusion–exclusion over all non-empty satisfiable intersections.
   DFS over disjuncts, carrying the intersection so far: unsatisfiable
   prefixes prune their whole subtree (any superset is unsatisfiable
   too). *)
let fold_intersections preds ~f ~init =
  let preds = Array.of_list preds in
  let d = Array.length preds in
  let acc = ref init in
  let rec go i current size =
    if i = d then begin
      if size > 0 then acc := f !acc ~intersection:current ~size
    end
    else begin
      (* Skip disjunct i. *)
      go (i + 1) current size;
      (* Include disjunct i. *)
      let next = Predicate.conj current preds.(i) in
      if not (Predicate.is_unsatisfiable next) then go (i + 1) next (size + 1)
    end
  in
  (match preds with
  | [||] -> ()
  | _ -> go 0 (Predicate.tautology (Predicate.arity preds.(0))) 0);
  !acc

let sign size = if size mod 2 = 1 then 1. else -1.

(* One walk, two accumulators: the expected count sums each
   intersection's n·r/P (Sec. 4.2's formula, in [Summary.binomial]'s
   operation order), and the probability sums the same restricted masses
   r before one division by P. *)
let count poly preds =
  check_disjuncts preds;
  let p_total = Poly.p poly in
  if p_total <= 0. then (0., 0.)
  else
    let n = float_of_int (Poly.cardinality poly) in
    let est, mass =
      fold_intersections preds ~init:(0., 0.)
        ~f:(fun (est, mass) ~intersection ~size ->
          let r = Poly.eval_restricted poly intersection in
          ( est +. (sign size *. (n *. r /. p_total)),
            mass +. (sign size *. r) ))
    in
    (est, Edb_util.Floatx.clamp ~lo:0. ~hi:1. (mass /. p_total))
