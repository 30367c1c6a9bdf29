(* Parent-versus-change comparison over paired runs.

   Runs of each side are ordered by start time and paired in that order;
   at least ten pairs are required, and consecutive pairs must alternate
   which side ran first.  For each (end-to-end metric, workload):

   - a claimed pair is met only if the change wins at least 9 in 10
     pairs (ties count for neither) and the medians differ, in the
     better direction, by more than the parent's interquartile range;
   - every other pair is [regressed] when the change's median is worse
     than the parent's by more than the metric's bound, [unresolved]
     when the parent's own spread exceeds the bound and not every change
     run beats every parent run, and [unchanged] otherwise.

   Any rise in the share of failed requests rejects the change.
   Per-layer metrics are printed for reading the trace, without a
   verdict. *)

type verdict = { ok : bool; lines : string list }

let values runs name =
  List.filter_map (fun r -> List.assoc_opt name r.Run.metrics) runs

let failed_frac runs =
  let a = List.fold_left (fun s r -> s + r.Run.attempted) 0 runs in
  let f = List.fold_left (fun s r -> s + r.Run.failed) 0 runs in
  if a = 0 then 0. else float_of_int f /. float_of_int a

let better (m : Metric.t) a b =
  match m.Metric.better with Metric.Lower -> a < b | Metric.Higher -> a > b

let compare ~bounds ~claim parent change =
  let out = ref [] and ok = ref true in
  let say fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  let reject fmt =
    Printf.ksprintf
      (fun s ->
        ok := false;
        say "%s" s)
      fmt
  in
  let by_start = List.sort (fun a b -> Float.compare a.Run.started b.Run.started) in
  let workloads =
    List.filter
      (fun (w : Workload.t) ->
        List.exists (fun r -> r.Run.workload = w.Workload.name) parent
        && List.exists (fun r -> r.Run.workload = w.Workload.name) change)
      Workload.all
  in
  if workloads = [] then reject "no workload has runs on both sides";
  let claimed = ref false in
  List.iter
    (fun (w : Workload.t) ->
      let name = w.Workload.name in
      let side runs = by_start (List.filter (fun r -> r.Run.workload = name) runs) in
      let p = side parent and c = side change in
      let pairs = min (List.length p) (List.length c) in
      let p = List.filteri (fun i _ -> i < pairs) p
      and c = List.filteri (fun i _ -> i < pairs) c in
      let firsts = List.map2 (fun a b -> a.Run.started < b.Run.started) p c in
      let rec alternate = function
        | a :: (b :: _ as rest) -> a <> b && alternate rest
        | _ -> true
      in
      if pairs < 10 then reject "%s: %d pairs; at least 10 are required" name pairs
      else if not (alternate firsts) then
        reject "%s: consecutive pairs do not alternate which side ran first" name;
      let fp = failed_frac p and fc = failed_frac c in
      if fc > fp then
        reject "%s failed_frac %.6g -> %.6g: rejected (failures rose)" name fp fc
      else say "%s failed_frac %.6g -> %.6g" name fp fc;
      List.iter
        (fun (m : Metric.t) ->
          let pv = values p m.Metric.name and cv = values c m.Metric.name in
          if pv <> [] && cv <> [] then begin
            let mp = Stats.median pv and mc = Stats.median cv in
            let q1, _, q3 = Stats.quartiles pv in
            let change_pct = 100. *. (mc -. mp) /. Float.abs mp in
            let bound = List.assoc_opt m.Metric.name bounds in
            let is_e2e = List.memq m Metric.end_to_end in
            if Some (m.Metric.name, name) = claim then begin
              claimed := true;
              let wins =
                List.fold_left2
                  (fun acc a b ->
                    match
                      ( List.assoc_opt m.Metric.name a.Run.metrics,
                        List.assoc_opt m.Metric.name b.Run.metrics )
                    with
                    | Some x, Some y when better m y x -> acc + 1
                    | _ -> acc)
                  0 p c
              in
              let n = pairs in
              let met =
                n >= 10 && wins * 10 >= 9 * n && better m mc mp
                && Float.abs (mc -. mp) > q3 -. q1
              in
              (if met then say else reject)
                "%s %s %.6g -> %.6g %s (%+.2f%%): claim %s — change won %d/%d pairs, \
                 |diff| %.6g vs parent IQR %.6g"
                name m.Metric.name mp mc m.Metric.unit_ change_pct
                (if met then "met" else "not met")
                wins n
                (Float.abs (mc -. mp))
                (q3 -. q1)
            end
            else if is_e2e then begin
              let bound = Option.value bound ~default:0. in
              let worse = Metric.worse_by m ~base:mp mc in
              let all_better =
                List.for_all (fun b -> List.for_all (fun a -> better m b a) pv) cv
              in
              let status =
                if worse > bound then "regressed"
                else if Stats.spread pv > bound && not all_better then "unresolved"
                else "unchanged"
              in
              (if status = "regressed" then reject else say)
                "%s %s %.6g -> %.6g %s (%+.2f%%, bound %.0f%%, parent spread %.1f%%): %s"
                name m.Metric.name mp mc m.Metric.unit_ change_pct (100. *. bound)
                (100. *. Stats.spread pv) status
            end
            else
              say "%s %s %.6g -> %.6g %s (%+.2f%%)" name m.Metric.name mp mc
                m.Metric.unit_ change_pct
          end)
        Metric.all)
    workloads;
  (match claim with
  | Some (metric, workload) when not !claimed ->
      reject "claim %s@%s: no such metric with runs on both sides" metric workload
  | _ -> ());
  { ok = !ok; lines = List.rev !out }
