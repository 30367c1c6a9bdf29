(* Translation of parsed queries into engine form.

   Attribute names resolve against the schema; raw values map to domain
   indices through the attribute's binning.  A value outside the active
   domain yields an empty restriction — the query is answerable (count 0),
   matching the semantics of querying for data that cannot exist. *)

open Edb_util
open Edb_storage

type error = { message : string }

let pp_error ppf e = Fmt.string ppf e.message

type aggregate = Count | Sum of int | Avg of int

type compiled = {
  disjuncts : Predicate.t list;
      (* non-empty; a single tautology when there is no WHERE clause *)
  aggregate : aggregate;
  group_attrs : int list;
  order : Ast.order option;
  limit : int option;
}

(* The single conjunctive predicate of a non-OR query, which is what the
   summary's primitive evaluation and the GROUP BY path consume. *)
let conjunctive c = match c.disjuncts with [ p ] -> Some p | _ -> None

(* The one ORDER BY / LIMIT rule for grouped answers: by estimate under
   the NaN-safe total order of [Float.compare] — descending unless ASC —
   with ties broken by ascending group key, so the order is total and
   deterministic; then LIMIT. *)
let order_groups c cells =
  let dir = match c.order with Some Ast.Asc -> 1 | Some Ast.Desc | None -> -1 in
  let sorted =
    List.sort
      (fun (ka, a, _) (kb, b, _) ->
        let o = dir * Float.compare a b in
        if o <> 0 then o else Stdlib.compare ka kb)
      cells
  in
  match c.limit with
  | Some k -> List.filteri (fun i _ -> i < k) sorted
  | None -> sorted

let err fmt = Fmt.kstr (fun message -> Error { message }) fmt

(* Levenshtein distance, case-insensitive: typo suggestions should treat
   "State" and "state" as one edit apart from "sttae", not four. *)
let edit_distance a b =
  let a = String.lowercase_ascii a and b = String.lowercase_ascii b in
  let la = String.length a and lb = String.length b in
  let prev = Array.init (lb + 1) Fun.id in
  let curr = Array.make (lb + 1) 0 in
  for i = 1 to la do
    curr.(0) <- i;
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      curr.(j) <-
        min (min (prev.(j) + 1) (curr.(j - 1) + 1)) (prev.(j - 1) + cost)
    done;
    Array.blit curr 0 prev 0 (lb + 1)
  done;
  prev.(lb)

let suggestion schema name =
  let best =
    List.fold_left
      (fun acc cand ->
        let d = edit_distance name cand in
        match acc with
        | Some (_, bd) when bd <= d -> acc
        | _ -> Some (cand, d))
      None (Schema.names schema)
  in
  match best with
  | Some (cand, d) when d <= max 2 (String.length name / 3) -> Some cand
  | _ -> None

let resolve_attr schema name =
  match Schema.find schema name with
  | Some i -> Ok i
  | None -> (
      match suggestion schema name with
      | Some cand -> err "unknown attribute %s (did you mean %s?)" name cand
      | None -> err "unknown attribute %s" name)

(* Map one raw value to its domain index; None when outside the domain. *)
let value_index schema attr (v : Ast.value) =
  let domain = Schema.domain schema attr in
  match (Domain.spec domain, v) with
  | Domain.Categorical _, Ast.Vstr s -> Ok (Domain.index_of_label domain s)
  | Domain.Categorical _, _ ->
      err "attribute %s is categorical; use a quoted string"
        (Schema.attr_name schema attr)
  | Domain.Int_bins _, Ast.Vint i -> Ok (Domain.index_of_int domain i)
  | Domain.Int_bins _, Ast.Vfloat f ->
      Ok (Domain.index_of_int domain (int_of_float f))
  | Domain.Int_bins _, Ast.Vstr _ ->
      err "attribute %s is numeric; remove the quotes"
        (Schema.attr_name schema attr)
  | Domain.Float_bins _, Ast.Vfloat f -> Ok (Domain.index_of_float domain f)
  | Domain.Float_bins _, Ast.Vint i ->
      Ok (Domain.index_of_float domain (float_of_int i))
  | Domain.Float_bins _, Ast.Vstr _ ->
      err "attribute %s is numeric; remove the quotes"
        (Schema.attr_name schema attr)

let ( let* ) r f = Result.bind r f

let condition_ranges schema cond =
  match cond with
  | Ast.Eq (name, v) ->
      let* attr = resolve_attr schema name in
      let* idx = value_index schema attr v in
      let range =
        match idx with Some i -> Ranges.singleton i | None -> Ranges.empty
      in
      Ok (attr, range)
  | Ast.Neq (name, v) ->
      let* attr = resolve_attr schema name in
      let* idx = value_index schema attr v in
      let size = Schema.domain_size schema attr in
      let range =
        match idx with
        | Some i -> Ranges.complement ~size (Ranges.singleton i)
        | None -> Ranges.interval 0 (size - 1) (* excluding nothing *)
      in
      Ok (attr, range)
  | Ast.Between (name, lo, hi) ->
      let* attr = resolve_attr schema name in
      let* lo_idx = value_index schema attr lo in
      let* hi_idx = value_index schema attr hi in
      let size = Schema.domain_size schema attr in
      (* Clamp open ends: a range reaching outside the active domain still
         covers the bins inside it. *)
      let lo_bin = Option.value lo_idx ~default:0 in
      let hi_bin = Option.value hi_idx ~default:(size - 1) in
      if lo_bin > hi_bin then Ok (attr, Ranges.empty)
      else Ok (attr, Ranges.interval lo_bin hi_bin)
  | Ast.In_set (name, vs) ->
      let* attr = resolve_attr schema name in
      let* indices =
        List.fold_left
          (fun acc v ->
            let* acc = acc in
            let* idx = value_index schema attr v in
            Ok (match idx with Some i -> i :: acc | None -> acc))
          (Ok []) vs
      in
      Ok (attr, Ranges.of_list indices)

let compile_conjunction schema conds =
  let* pairs =
    List.fold_left
      (fun acc cond ->
        let* acc = acc in
        let* pair = condition_ranges schema cond in
        Ok (pair :: acc))
      (Ok []) conds
  in
  Ok (Predicate.of_alist ~arity:(Schema.arity schema) pairs)

let compile schema (q : Ast.t) =
  let* disjuncts =
    match q.where with
    | [] -> Ok [ Predicate.tautology (Schema.arity schema) ]
    | conjs ->
        List.fold_left
          (fun acc conj ->
            let* acc = acc in
            let* p = compile_conjunction schema conj in
            Ok (p :: acc))
          (Ok []) conjs
        |> Result.map List.rev
  in
  let* group_attrs =
    List.fold_left
      (fun acc name ->
        let* acc = acc in
        let* attr = resolve_attr schema name in
        Ok (attr :: acc))
      (Ok []) q.group_by
  in
  let numeric_attr name =
    let* attr = resolve_attr schema name in
    match Domain.spec (Schema.domain schema attr) with
    | Domain.Categorical _ ->
        err "cannot aggregate over categorical attribute %s" name
    | Domain.Int_bins _ | Domain.Float_bins _ -> Ok attr
  in
  let* aggregate =
    match q.agg with
    | Ast.Count -> Ok Count
    | Ast.Sum name ->
        let* attr = numeric_attr name in
        Ok (Sum attr)
    | Ast.Avg name ->
        let* attr = numeric_attr name in
        Ok (Avg attr)
  in
  let* () =
    if List.length disjuncts > 1 then begin
      if group_attrs <> [] then err "GROUP BY does not support OR"
      else if aggregate <> Count then err "SUM/AVG do not support OR"
      else if List.length disjuncts > 10 then
        err "too many OR branches (max 10)"
      else Ok ()
    end
    else Ok ()
  in
  Ok
    {
      disjuncts;
      aggregate;
      group_attrs = List.rev group_attrs;
      order = q.order;
      limit = q.limit;
    }

let compile_string schema input =
  match Parser.parse input with
  | Error e -> err "%a" Parser.pp_error e
  | Ok ast -> compile schema ast
