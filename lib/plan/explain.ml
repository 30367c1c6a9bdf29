(* EXPLAIN rendering: one decision, two audiences.

   [lines] emits compact single-line records for the wire protocol (the
   server's EXPLAIN verb appends them to its payload); [table] renders the
   candidate table for humans (the CLI's `entropydb explain`).  Both show
   every candidate's predicted cost and error, which one was chosen and
   why, and — when ground truth is known — the observed error. *)

open Edb_util

let sd (a : Estimator.answer) = sqrt (Float.max 0. a.Estimator.var)

let status (c : Plan.candidate) =
  if not c.Plan.supported then "unsupported"
  else match c.Plan.evaluation with None -> "skipped" | Some _ -> "evaluated"

let err ~truth (a : Estimator.answer) =
  Option.map (fun t -> Float.abs (a.Estimator.est -. t)) truth

(* The caller's ground truth, else the answer of the decision's
   evaluated exact, non-grouped candidate: an exact scan has zero
   variance, so observed errors cost nothing extra. *)
let truth_of ?truth (d : Plan.decision) =
  match truth with
  | Some _ -> truth
  | None ->
      List.find_map
        (fun (c : Plan.candidate) ->
          match (Estimator.kind c.Plan.estimator, c.Plan.evaluation) with
          | Estimator.Exact, Some ev when ev.Plan.groups = None ->
              Some ev.Plan.answer.Estimator.est
          | _ -> None)
        d.Plan.candidates

let lines ?truth (d : Plan.decision) =
  let truth = truth_of ?truth d in
  let b = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "plan target %s z %.6g" (Plan.target_to_string d.Plan.target) d.Plan.z;
  List.iter
    (fun (c : Plan.candidate) ->
      let est = c.Plan.estimator in
      match c.Plan.evaluation with
      | None ->
          line "plan candidate %s kind %s cost_us %.6g status %s"
            (Estimator.name est)
            (Estimator.kind_name (Estimator.kind est))
            (Estimator.cost_us est) (status c)
      | Some ev ->
          let base =
            Printf.sprintf
              "plan candidate %s kind %s cost_us %.6g status evaluated \
               estimate %.17g sd %.17g half_width %.6g threshold %.6g meets %b"
              (Estimator.name est)
              (Estimator.kind_name (Estimator.kind est))
              (Estimator.cost_us est) ev.Plan.answer.Estimator.est
              (sd ev.Plan.answer) ev.Plan.half_width ev.Plan.threshold
              ev.Plan.meets
          in
          let base =
            match err ~truth ev.Plan.answer with
            | Some e -> Printf.sprintf "%s err %.6g" base e
            | None -> base
          in
          line "%s" base)
    d.Plan.candidates;
  line "plan route %s kind %s reason %s"
    (Estimator.name d.Plan.chosen.Plan.estimator)
    (Estimator.kind_name (Estimator.kind d.Plan.chosen.Plan.estimator))
    d.Plan.reason;
  String.split_on_char '\n' (Buffer.contents b)
  |> List.filter (fun l -> l <> "")

let table ?truth (d : Plan.decision) =
  let truth = truth_of ?truth d in
  let title =
    Printf.sprintf "plan: target %s (z %.3g) — route %s (%s)"
      (Plan.target_to_string d.Plan.target)
      d.Plan.z
      (Estimator.name d.Plan.chosen.Plan.estimator)
      d.Plan.reason
  in
  let headers =
    [ ""; "candidate"; "kind"; "cost µs"; "estimate"; "±hw"; "target ±";
      "meets"; "|err|" ]
  in
  let t = Table.create ~title ~headers () in
  List.iter
    (fun (c : Plan.candidate) ->
      let est = c.Plan.estimator in
      let mark = if c == d.Plan.chosen then "*" else "" in
      let cells =
        match c.Plan.evaluation with
        | None ->
            [ mark; Estimator.name est;
              Estimator.kind_name (Estimator.kind est);
              Table.cell_float ~prec:3 (Estimator.cost_us est);
              "-"; "-"; "-"; status c; "-" ]
        | Some ev ->
            [ mark; Estimator.name est;
              Estimator.kind_name (Estimator.kind est);
              Table.cell_float ~prec:3 (Estimator.cost_us est);
              Table.cell_float ~prec:3 ev.Plan.answer.Estimator.est;
              Table.cell_float ~prec:3 ev.Plan.half_width;
              Table.cell_float ~prec:3 ev.Plan.threshold;
              string_of_bool ev.Plan.meets;
              (match err ~truth ev.Plan.answer with
              | Some e -> Table.cell_float ~prec:3 e
              | None -> "-") ]
      in
      Table.add_row t cells)
    d.Plan.candidates;
  t
