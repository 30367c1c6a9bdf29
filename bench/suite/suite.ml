(* EntropyDB serving benchmark.

     suite.exe run [--workload W]... [--seed N] [--warmup S] [--duration S]
                   [--trace 0|1] [--repeat N] [--out FILE] [--server PATH]
     suite.exe compare --parent FILE... --change FILE... [--claim METRIC@WORKLOAD]

   [run] prints one "<workload> <metric> <value> <unit>" line per metric
   and, last, one JSON object: correct/attempted/failed and the
   end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).  It
   exits non-zero if any answer was wrong.  See README.md. *)

open Cmdliner

let default_server = "_build/default/bin/entropydb_cli.exe"
let benchmark_file = "BENCHMARK.json"

let print_run (r : Run.t) ~trace =
  List.iter
    (fun (m : Metric.t) ->
      match List.assoc_opt m.Metric.name r.Run.metrics with
      | Some v ->
          Printf.printf "%s %s %.12g %s%s\n" r.Run.workload m.Metric.name v
            m.Metric.unit_
            (if m.Metric.name = "p50_us" || m.Metric.name = "p99_us" then
               Printf.sprintf " n=%d" r.Run.samples
             else "")
      | None -> ())
    (if trace then Metric.all else Metric.end_to_end);
  Printf.printf "%s failed %d of %d attempted\n%!" r.Run.workload r.Run.failed
    r.Run.attempted;
  List.iter (fun n -> Printf.eprintf "%s: %s\n%!" r.Run.workload n) r.Run.notes

(* The last line of output: per metric, the median over the runs of its
   workload; names carry "@<workload>" when several workloads ran. *)
let result_line runs ~trace =
  let module Json = Edb_util.Json in
  let names = List.sort_uniq compare (List.map (fun r -> r.Run.workload) runs) in
  let metrics =
    List.concat_map
      (fun w ->
        let mine = List.filter (fun r -> r.Run.workload = w) runs in
        List.map
          (fun (m : Metric.t) ->
            let v =
              Stats.median
                (List.map
                   (fun r ->
                     match List.assoc_opt m.Metric.name r.Run.metrics with
                     | Some v -> v
                     | None -> failwith ("metric not measured: " ^ m.Metric.name))
                   mine)
            in
            let key =
              if List.length names > 1 then m.Metric.name ^ "@" ^ w else m.Metric.name
            in
            (key, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str m.Metric.unit_) ]))
          (if trace then Metric.per_layer else Metric.end_to_end))
      names
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (List.for_all Run.correct runs));
         ("attempted", Json.Int (List.fold_left (fun s r -> s + r.Run.attempted) 0 runs));
         ("failed", Json.Int (List.fold_left (fun s r -> s + r.Run.failed) 0 runs));
         ("metrics", Json.Obj metrics);
       ])

(* With --repeat: each metric's median and spread over the repetitions,
   flagging end-to-end metrics whose spread exceeds their bound. *)
let print_spread runs =
  let bounds =
    if Sys.file_exists benchmark_file then
      match Metric.bounds benchmark_file with Ok b -> b | Error _ -> []
    else []
  in
  List.iter
    (fun (w : Workload.t) ->
      let mine = List.filter (fun r -> r.Run.workload = w.Workload.name) runs in
      if mine <> [] then
        List.iter
          (fun (m : Metric.t) ->
            let vs = List.filter_map (fun r -> List.assoc_opt m.Metric.name r.Run.metrics) mine in
            if vs <> [] then begin
              let spread = Stats.spread vs in
              let flag =
                match List.assoc_opt m.Metric.name bounds with
                | Some b when spread > b ->
                    Printf.sprintf " EXCEEDS bound %.0f%%" (100. *. b)
                | Some b -> Printf.sprintf " (bound %.0f%%)" (100. *. b)
                | None -> ""
              in
              Printf.printf "spread %s %s median %.6g %s iqr/median %.2f%% over %d%s\n"
                w.Workload.name m.Metric.name (Stats.median vs) m.Metric.unit_
                (100. *. spread) (List.length vs) flag
            end)
          Metric.all)
    Workload.all

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("suite: " ^ m); exit 2) fmt

let run workloads seed warmup duration trace repeat out server =
  let workloads =
    match workloads with
    | [] -> Workload.all
    | names ->
        List.map
          (fun n ->
            match Workload.find n with
            | Some w -> w
            | None -> fail "unknown workload %s (have %s)" n
                        (String.concat ", " (List.map (fun w -> w.Workload.name) Workload.all)))
          names
  in
  if trace <> 0 && trace <> 1 then fail "--trace is 0 or 1";
  if repeat < 1 || duration <= 0. || warmup < 0. then fail "bad --repeat/--duration/--warmup";
  if not (Sys.file_exists server) then
    fail "no server binary at %s (build it, or pass --server)" server;
  if Sys.file_exists benchmark_file then (
    match Metric.check_benchmark benchmark_file with
    | Ok () -> ()
    | Error m -> fail "%s" m);
  let trace = trace = 1 in
  let runs =
    List.concat
      (List.init repeat (fun _ ->
           List.map
             (fun w ->
               let trace_file =
                 match out with
                 | Some o when trace ->
                     Some
                       (Filename.concat (Filename.dirname o)
                          (Printf.sprintf "BENCH_trace_%s.json" w.Workload.name))
                 | _ -> None
               in
               let r =
                 Run.run ~server ~w ~seed ~warmup ~seconds:duration ~trace ~trace_file
               in
               print_run r ~trace;
               r)
             workloads))
  in
  if repeat > 1 then print_spread runs;
  Option.iter (fun o -> Run.write_file o runs) out;
  print_endline (result_line runs ~trace);
  if List.for_all Run.correct runs then 0 else 1

let compare parents changes claim =
  let claim =
    Option.map
      (fun c ->
        match String.index_opt c '@' with
        | Some i -> (String.sub c 0 i, String.sub c (i + 1) (String.length c - i - 1))
        | None -> fail "--claim is METRIC@WORKLOAD")
      claim
  in
  let bounds =
    match Metric.bounds benchmark_file with
    | Ok b -> b
    | Error m -> fail "%s" m
    | exception Sys_error m -> fail "%s" m
  in
  let load files = List.concat_map Run.read_file files in
  let v = Compare.compare ~bounds ~claim (load parents) (load changes) in
  List.iter print_endline v.Compare.lines;
  print_endline (if v.Compare.ok then "verdict: accepted" else "verdict: rejected");
  if v.Compare.ok then 0 else 1

let run_cmd =
  let workloads =
    Arg.(value & opt_all string [] & info [ "workload" ] ~docv:"NAME"
           ~doc:"Workload to run (repeatable); all four by default.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Workload seed.") in
  let warmup =
    Arg.(value & opt float 2. & info [ "warmup" ] ~docv:"S"
           ~doc:"Unmeasured seconds of load before the window.")
  in
  let duration =
    Arg.(value & opt float 20. & info [ "duration"; "seconds" ] ~docv:"S"
           ~doc:"Measured seconds per workload.")
  in
  let trace =
    Arg.(value & opt int 1 & info [ "trace" ] ~docv:"0|1"
           ~doc:"1 adds the traced in-process replay and the per-layer metrics.")
  in
  let repeat =
    Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"N"
           ~doc:"Run every workload N times and report each metric's spread.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
           ~doc:"Write every run as JSON (and, with --trace 1, \
                 BENCH_trace_<workload>.json beside it).")
  in
  let server =
    Arg.(value & opt string default_server & info [ "server" ] ~docv:"PATH"
           ~doc:"The entropydb binary to serve from.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run the workloads and print every metric.")
    Term.(const run $ workloads $ seed $ warmup $ duration $ trace $ repeat $ out $ server)

let compare_cmd =
  let files name =
    Arg.(non_empty & opt_all file [] & info [ name ] ~docv:"FILE"
           ~doc:"Result file written by $(b,run --out) (repeatable).")
  in
  let claim =
    Arg.(value & opt (some string) None & info [ "claim" ] ~docv:"METRIC@WORKLOAD"
           ~doc:"The one pair the change claims to improve.")
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Judge a change against its parent from paired runs.")
    Term.(const compare $ files "parent" $ files "change" $ claim)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit Daemon.stop_all;
  List.iter
    (fun s ->
      Sys.set_signal s
        (Sys.Signal_handle
           (fun _ ->
             Daemon.stop_all ();
             exit 3)))
    [ Sys.sigint; Sys.sigterm ];
  Edb_obs.Obs.set_enabled false;
  exit (Cmd.eval' (Cmd.group (Cmd.info "suite") [ run_cmd; compare_cmd ]))
