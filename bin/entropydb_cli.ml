(* entropydb — command-line interface.

   Subcommands:
     generate    materialize a synthetic dataset as CSV
     build       compute a MaxEnt summary from a dataset and save it
                 (--shards k builds a partitioned summary in parallel;
                  `summarize` is the same command under the paper's name)
     query       answer SQL against a saved summary (optionally vs exact)
     info        inspect a saved summary
     ingest      append a batch CSV to a saved summary (incremental
                 statistics + warm-started solve, no full rebuild)
     upgrade     rewrite a summary file of a replaced format in the
                 current one (offline)
     serve       run the resident summary server (lib/server)
     client      talk to a running server
     check       run the correctness oracle battery over random cases
     experiment  regenerate one of the paper's figures

   The CLI works on the two built-in dataset families (flights, particles)
   so that every artifact of the paper can be produced end to end without
   writing OCaml. *)

open Cmdliner
open Edb_storage

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Info))

(* ------------------------------------------------------------------ *)
(* Dataset plumbing                                                    *)
(* ------------------------------------------------------------------ *)

type dataset = Flights_coarse | Flights_fine | Particles

let dataset_conv =
  let parse = function
    | "flights-coarse" -> Ok Flights_coarse
    | "flights-fine" -> Ok Flights_fine
    | "particles" -> Ok Particles
    | s -> Error (`Msg (Printf.sprintf "unknown dataset %s" s))
  in
  let print ppf d =
    Fmt.string ppf
      (match d with
      | Flights_coarse -> "flights-coarse"
      | Flights_fine -> "flights-fine"
      | Particles -> "particles")
  in
  Arg.conv (parse, print)

let generate_relation dataset ~rows ~seed =
  match dataset with
  | Flights_coarse -> (Edb_datagen.Flights.generate ~rows ~seed ()).coarse
  | Flights_fine -> (Edb_datagen.Flights.generate ~rows ~seed ()).fine
  | Particles ->
      Edb_datagen.Particles.generate
        ~rows_per_snapshot:(max 1 (rows / 3))
        ~snapshots:3 ~seed ()

let schema_of_dataset = function
  | Flights_coarse -> Relation.schema (generate_relation Flights_coarse ~rows:1 ~seed:1)
  | Flights_fine -> Relation.schema (generate_relation Flights_fine ~rows:1 ~seed:1)
  | Particles -> Edb_datagen.Particles.schema ()

let load_relation dataset path =
  match Csv_io.load_indices (schema_of_dataset dataset) path with
  | Ok rel -> rel
  | Error e ->
      Fmt.epr "error loading %s: %a@." path Csv_io.pp_error e;
      exit 1

(* ------------------------------------------------------------------ *)
(* Common options                                                      *)
(* ------------------------------------------------------------------ *)

let verbose_t =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Verbose logging.")

let dataset_t =
  Arg.(
    required
    & opt (some dataset_conv) None
    & info [ "dataset" ] ~docv:"NAME"
        ~doc:"Dataset family: flights-coarse, flights-fine, or particles.")

let seed_t =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let trace_out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Enable span tracing for this run and write a Chrome trace_event \
           JSON file on completion (open in chrome://tracing or \
           ui.perfetto.dev).")

(* Tracing can also be forced on by EDB_TRACE=1; --trace-out additionally
   picks where the ring buffer's contents land when the command ends. *)
let with_trace trace_out f =
  match trace_out with
  | None -> f ()
  | Some path ->
      Edb_obs.Obs.set_enabled true;
      Fun.protect
        ~finally:(fun () ->
          Edb_obs.Trace.write_file path;
          Printf.printf "trace written to %s (%d events%s)\n" path
            (List.length (Edb_obs.Trace.events ()))
            (let d = Edb_obs.Trace.dropped () in
             if d > 0 then Printf.sprintf ", %d dropped to wraparound" d
             else ""))
        f

(* ------------------------------------------------------------------ *)
(* generate                                                            *)
(* ------------------------------------------------------------------ *)

let generate_cmd =
  let run verbose dataset rows seed output labels =
    setup_logs verbose;
    let rel = generate_relation dataset ~rows ~seed in
    if labels then Csv_io.save_labels rel output
    else Csv_io.save_indices rel output;
    Printf.printf "wrote %d rows to %s\n" (Relation.cardinality rel) output;
    0
  in
  let rows_t =
    Arg.(value & opt int 100_000 & info [ "rows" ] ~docv:"N" ~doc:"Row count.")
  in
  let output_t =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output CSV path.")
  in
  let labels_t =
    Arg.(
      value & flag
      & info [ "labels" ]
          ~doc:"Write human-readable labels instead of value indices \
                (not re-importable).")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Materialize a synthetic dataset as CSV.")
    Term.(
      const run $ verbose_t $ dataset_t $ rows_t $ seed_t $ output_t $ labels_t)

(* ------------------------------------------------------------------ *)
(* build                                                               *)
(* ------------------------------------------------------------------ *)

let heuristic_conv =
  let parse = function
    | "large" -> Ok Edb_select.Heuristic.Large
    | "zero" -> Ok Edb_select.Heuristic.Zero
    | "composite" -> Ok Edb_select.Heuristic.Composite
    | s -> Error (`Msg (Printf.sprintf "unknown heuristic %s" s))
  in
  let print ppf k = Fmt.string ppf (Edb_select.Heuristic.kind_name k) in
  Arg.conv (parse, print)

let build_cmd_named cmd_name ~doc =
  let run verbose dataset input rows seed output pairs buckets heuristic
      sweeps shards shard_by trace_out =
    setup_logs verbose;
    if shards < 1 then begin
      Fmt.epr "%s: --shards must be at least 1@." cmd_name;
      exit 2
    end;
    with_trace trace_out @@ fun () ->
    let rel =
      match input with
      | Some path -> load_relation dataset path
      | None -> generate_relation dataset ~rows ~seed
    in
    let chosen =
      Edb_select.Pairs.select ~strategy:Edb_select.Pairs.By_cover ~budget:pairs
        rel
    in
    let schema = Relation.schema rel in
    let joints =
      List.concat_map
        (fun (a, b) ->
          Printf.printf "2D statistics on (%s, %s): %d buckets (%s)\n%!"
            (Schema.attr_name schema a) (Schema.attr_name schema b) buckets
            (Edb_select.Heuristic.kind_name heuristic);
          Edb_select.Heuristic.select heuristic rel ~attr1:a ~attr2:b
            ~budget:buckets)
        chosen
    in
    let solver_config =
      { Entropydb_core.Solver.default_config with max_sweeps = sweeps }
    in
    if shards = 1 then begin
      (* Verbose builds print the solver's convergence table live, one
         row per sweep, off the telemetry callback. *)
      let header_printed = ref false in
      let on_sweep (st : Entropydb_core.Solver.sweep_stat) =
        if not !header_printed then begin
          Printf.printf "%5s  %20s  %12s  %12s  %9s\n" "sweep" "dual"
            "max_rel_err" "max_step" "elapsed_s";
          header_printed := true
        end;
        Printf.printf "%5d  %20.13g  %12.3e  %12.3e  %9.3f\n%!" st.sweep
          st.dual st.sweep_max_rel_error st.max_step st.elapsed_s
      in
      let on_sweep = if verbose then Some on_sweep else None in
      let summary =
        Entropydb_core.Summary.build ~solver_config ?on_sweep rel ~joints
      in
      let report = Entropydb_core.Summary.solver_report summary in
      Printf.printf "solved in %d sweeps, %.1fs (max rel err %.2e)\n"
        report.sweeps report.seconds report.max_rel_error;
      Entropydb_core.Serialize.save summary output;
      Printf.printf "summary written to %s\n" output
    end
    else begin
      let strategy =
        match shard_by with
        | "rows" -> Edb_shard.Partition.Rows
        | name -> (
            match Schema.find schema name with
            | Some attr -> Edb_shard.Partition.By_attr attr
            | None ->
                Fmt.epr "%s: --shard-by %s: no such attribute (use \"rows\" \
                         or an attribute name)@."
                  cmd_name name;
                exit 2)
      in
      let solver_config =
        { solver_config with log_every = 0 } (* domains share stdout *)
      in
      let summary, build_s =
        Edb_util.Timing.time (fun () ->
            Edb_shard.Builder.build ~solver_config rel ~shards ~strategy
              ~joints)
      in
      Array.iteri
        (fun i part ->
          let r = Entropydb_core.Summary.solver_report part in
          Printf.printf "shard %d: %d sweeps, %.1fs (max rel err %.2e)\n" i
            r.sweeps r.seconds r.max_rel_error)
        (Entropydb_core.Summary.parts summary);
      Printf.printf "built %d shards in %.1fs (%d domains)\n" shards build_s
        (Edb_util.Parallel.default_domains ());
      Entropydb_core.Serialize.save summary output;
      Printf.printf "sharded summary (%s) written to %s\n"
        (Entropydb_core.Summary.strategy summary)
        output
    end;
    0
  in
  let input_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "i"; "input" ] ~docv:"FILE"
          ~doc:"Input index CSV (from $(b,generate)); generates fresh data \
                when omitted.")
  in
  let rows_t =
    Arg.(
      value & opt int 100_000
      & info [ "rows" ] ~docv:"N" ~doc:"Rows when generating fresh data.")
  in
  let output_t =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Summary output path.")
  in
  let pairs_t =
    Arg.(
      value & opt int 2
      & info [ "pairs" ] ~docv:"BA" ~doc:"Number of 2D attribute pairs (Ba).")
  in
  let buckets_t =
    Arg.(
      value & opt int 200
      & info [ "buckets" ] ~docv:"BS" ~doc:"Buckets per pair (Bs).")
  in
  let heuristic_t =
    Arg.(
      value
      & opt heuristic_conv Edb_select.Heuristic.Composite
      & info [ "heuristic" ] ~docv:"KIND"
          ~doc:"Statistic heuristic: composite, large, or zero.")
  in
  let sweeps_t =
    Arg.(
      value & opt int 30
      & info [ "sweeps" ] ~docv:"N" ~doc:"Maximum solver sweeps.")
  in
  let shards_t =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"K"
          ~doc:
            "Partition the relation into $(docv) shards and build one \
             summary per shard, in parallel over OCaml domains \
             ($(b,EDB_DOMAINS)).  Every part goes in the one output file.")
  in
  let shard_by_t =
    Arg.(
      value & opt string "rows"
      & info [ "shard-by" ] ~docv:"ATTR|rows"
          ~doc:
            "Partitioning key: $(b,rows) (contiguous row ranges) or an \
             attribute name (hash of that attribute's value).")
  in
  Cmd.v (Cmd.info cmd_name ~doc)
    Term.(
      const run $ verbose_t $ dataset_t $ input_t $ rows_t $ seed_t $ output_t
      $ pairs_t $ buckets_t $ heuristic_t $ sweeps_t $ shards_t $ shard_by_t
      $ trace_out_t)

let build_cmd =
  build_cmd_named "build" ~doc:"Compute and save a MaxEnt summary."

let summarize_cmd =
  (* The paper's verb for the same operation; kept as a first-class alias
     so scripts can say `entropydb summarize --shards 4`. *)
  build_cmd_named "summarize"
    ~doc:"Compute and save a MaxEnt summary (alias of $(b,build))."

(* ------------------------------------------------------------------ *)
(* query                                                               *)
(* ------------------------------------------------------------------ *)

let query_cmd =
  let run verbose summary_path sql exact_csv dataset trace_out =
    setup_logs verbose;
    with_trace trace_out @@ fun () ->
    (* Everything under here may raise (a missing or corrupt summary
       file, an unreadable --exact-csv): turn any of it into a one-line
       diagnostic and a non-zero exit instead of an uncaught exception. *)
    try
    let summary = Entropydb_core.Serialize.load summary_path in
    let schema = Entropydb_core.Summary.schema summary in
    match Edb_query.Translate.compile_string schema sql with
    | Error e ->
        Fmt.epr "query error: %a@." Edb_query.Translate.pp_error e;
        1
    | Ok
        {
          aggregate = Edb_query.Translate.Count;
          disjuncts;
          group_attrs = [];
          _;
        } ->
        let a = Entropydb_core.Summary.count_disjuncts summary disjuncts in
        Printf.printf "estimate: %.2f +/- %.2f\n" a.est (sqrt a.var);
        (match (exact_csv, dataset) with
        | Some path, Some ds ->
            let rel = load_relation ds path in
            Printf.printf "exact:    %d\n" (Exec.count_dnf rel disjuncts)
        | _ -> ());
        0
    | Ok c -> (
    (* [Translate.compile] admits OR only in a plain COUNT, so every
       other shape is conjunctive. *)
    let predicate = Option.get (Edb_query.Translate.conjunctive c) in
    match c with
    | { aggregate = Edb_query.Translate.Sum attr; _ } ->
        let a = Entropydb_core.Summary.sum summary ~attr predicate in
        Printf.printf "estimate: %.2f +/- %.2f\n" a.est (sqrt a.var);
        (match (exact_csv, dataset) with
        | Some path, Some ds ->
            let rel = load_relation ds path in
            Printf.printf "exact:    %.2f\n" (Exec.sum rel ~attr predicate)
        | _ -> ());
        0
    | { aggregate = Edb_query.Translate.Avg attr; _ } ->
        (match Entropydb_core.Summary.estimate_avg summary ~attr predicate with
        | Some est -> Printf.printf "estimate: %.4f\n" est
        | None -> Printf.printf "estimate: undefined (expected count 0)\n");
        (match (exact_csv, dataset) with
        | Some path, Some ds -> (
            let rel = load_relation ds path in
            match Exec.avg rel ~attr predicate with
            | Some v -> Printf.printf "exact:    %.4f\n" v
            | None -> Printf.printf "exact:    undefined (no rows)\n")
        | _ -> ());
        0
    | { group_attrs; _ } ->
        (* One batched evaluation yields estimates and stddevs for every
           group cell — no per-cell re-evaluation. *)
        let groups =
          Edb_query.Translate.order_groups c
            (List.map
               (fun (key, (a : Entropydb_core.Summary.answer)) ->
                 (key, a.est, sqrt a.var))
               (Entropydb_core.Summary.groups summary ~attrs:group_attrs
                  predicate))
        in
        List.iter
          (fun (values, est, sd) ->
            let labels =
              List.map2
                (fun attr v -> Domain.label (Schema.domain schema attr) v)
                group_attrs values
            in
            Printf.printf "%s: %.2f +/- %.2f\n" (String.concat ", " labels) est
              sd)
          groups;
        0)
    with
    | Entropydb_core.Serialize.Format_error m ->
        Fmt.epr "query error: %s: %s@." summary_path m;
        1
    | Sys_error m | Failure m | Invalid_argument m ->
        Fmt.epr "query error: %s@." m;
        1
  in
  let summary_t =
    Arg.(
      required
      & opt (some string) None
      & info [ "s"; "summary" ] ~docv:"FILE" ~doc:"Saved summary path.")
  in
  let sql_t =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SQL" ~doc:"The query to answer.")
  in
  let exact_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "exact-csv" ] ~docv:"FILE"
          ~doc:"Also compute the exact answer from this index CSV.")
  in
  let dataset_opt_t =
    Arg.(
      value
      & opt (some dataset_conv) None
      & info [ "dataset" ] ~docv:"NAME"
          ~doc:"Dataset family of $(b,--exact-csv).")
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Answer SQL against a saved summary.")
    Term.(
      const run $ verbose_t $ summary_t $ sql_t $ exact_t $ dataset_opt_t
      $ trace_out_t)

(* ------------------------------------------------------------------ *)
(* explain                                                             *)
(* ------------------------------------------------------------------ *)

let explain_cmd =
  let run verbose summary_path sql ci exact_csv dataset sample_rate =
    setup_logs verbose;
    let module P = Edb_plan.Plan in
    let module E = Edb_plan.Estimator in
    try
      let summary = Entropydb_core.Serialize.load summary_path in
      let schema = Entropydb_core.Summary.schema summary in
      let target = P.target_of_string ci in
      match Edb_query.Translate.compile_string schema sql with
      | Error e ->
          Fmt.epr "explain error: %a@." Edb_query.Translate.pp_error e;
          1
      | Ok c -> (
          let shape =
            match Edb_server.Handler.shape_of_compiled c with
            | Some shape -> shape
            | None when Option.is_none (Edb_query.Translate.conjunctive c) ->
                failwith "the planner supports conjunctive predicates only"
            | None ->
                failwith "the planner supports COUNT, SUM, and COUNT GROUP BY"
          in
          (* The summary route is always available; --exact-csv adds an
             exact scan plus a deterministic uniform sample of the base
             table, giving the planner real alternatives to rank. *)
          let estimators =
            match (exact_csv, dataset) with
            | Some path, Some ds ->
                let rel = load_relation ds path in
                let rng =
                  Edb_util.Prng.create ~seed:(Hashtbl.hash (path, sample_rate)) ()
                in
                [
                  E.of_summary summary;
                  E.of_sample (Edb_sampling.Uniform.create rng ~rate:sample_rate rel);
                  E.of_relation rel;
                ]
            | None, _ -> [ E.of_summary summary ]
            | Some _, None ->
                failwith "--exact-csv requires --dataset to supply the schema"
          in
          let d = P.choose_all ~target estimators shape in
          Edb_util.Table.print (Edb_plan.Explain.table d);
          let a = P.chosen_answer d in
          Printf.printf "route: %s (%s, %s)\n"
            (E.name d.P.chosen.P.estimator)
            (E.kind_name (E.kind d.P.chosen.P.estimator))
            d.P.reason;
          Printf.printf "answer: %.2f +/- %.2f\n" a.E.est
            (sqrt (Float.max 0. a.E.var));
          match P.chosen_groups d with
          | None -> 0
          | Some cells ->
              List.iter
                (fun (values, (ans : E.answer)) ->
                  let labels =
                    List.map2
                      (fun attr v ->
                        Domain.label (Schema.domain schema attr) v)
                      c.Edb_query.Translate.group_attrs values
                  in
                  Printf.printf "%s: %.2f +/- %.2f\n"
                    (String.concat ", " labels) ans.E.est
                    (sqrt (Float.max 0. ans.E.var)))
                cells;
              0)
    with
    | Entropydb_core.Serialize.Format_error m ->
        Fmt.epr "explain error: %s: %s@." summary_path m;
        1
    | Sys_error m | Failure m | Invalid_argument m ->
        Fmt.epr "explain error: %s@." m;
        1
  in
  let summary_t =
    Arg.(
      required
      & opt (some string) None
      & info [ "s"; "summary" ] ~docv:"FILE" ~doc:"Saved summary path.")
  in
  let sql_t =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SQL" ~doc:"The query to plan.")
  in
  let ci_t =
    Arg.(
      value & opt string "95:2"
      & info [ "ci" ] ~docv:"CONF:REL[:ABS]"
          ~doc:
            "Target interval: confidence (percent), relative half-width \
             (percent), optional absolute floor in rows.  Default 95:2.")
  in
  let exact_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "exact-csv" ] ~docv:"FILE"
          ~doc:
            "Register sample and exact-scan routes over this index CSV \
             (requires $(b,--dataset)).")
  in
  let dataset_opt_t =
    Arg.(
      value
      & opt (some dataset_conv) None
      & info [ "dataset" ] ~docv:"NAME"
          ~doc:"Dataset family of $(b,--exact-csv).")
  in
  let rate_t =
    Arg.(
      value & opt float 0.01
      & info [ "sample-rate" ] ~docv:"R"
          ~doc:"Uniform sampling rate for the sample route (default 1%).")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Show the planner's candidate table for a query and the route it \
          picks for a target confidence interval.")
    Term.(
      const run $ verbose_t $ summary_t $ sql_t $ ci_t $ exact_t
      $ dataset_opt_t $ rate_t)

(* ------------------------------------------------------------------ *)
(* info                                                                *)
(* ------------------------------------------------------------------ *)

let info_cmd =
  let run verbose summary_path =
    setup_logs verbose;
    try
      let summary = Entropydb_core.Serialize.load summary_path in
      let schema = Entropydb_core.Summary.schema summary in
      let parts = Entropydb_core.Summary.parts summary in
      let k = Array.length parts in
      let manifest = Entropydb_core.Serialize.manifest summary_path in
      Printf.printf "format: version %d, %d bytes\n"
        Entropydb_core.Serialize.version
        (Entropydb_core.Summary.footprint_bytes summary);
      (* Each part's section table: the layout the checksums cover. *)
      Array.iteri
        (fun i (p : Entropydb_core.Serialize.part_meta) ->
          Printf.printf "sections%s: %d\n"
            (if k = 1 then "" else Printf.sprintf " (shard %d)" i)
            (List.length p.pm_sections);
          List.iter
            (fun (s : Entropydb_core.Serialize.section) ->
              Printf.printf
                "  %-14s %-7s offset %8d  elems %8d  crc32 %08x\n" s.sec_name
                (if s.sec_float then "float64" else "int")
                s.sec_off s.sec_len s.sec_crc)
            p.pm_sections)
        manifest.m_parts;
      Printf.printf "shards: %d (%s)\n" k
        (Entropydb_core.Summary.strategy summary);
      Printf.printf "cardinality: %d%s\n"
        (Entropydb_core.Summary.cardinality summary)
        (if k = 1 then ""
         else
           Printf.sprintf " (per shard: %s)"
             (String.concat ", "
                (Array.to_list
                   (Array.map
                      (fun p ->
                        string_of_int (Entropydb_core.Summary.cardinality p))
                      parts))));
      Fmt.pr "schema:@.%a@." Schema.pp schema;
      Fmt.pr "%a@." Entropydb_core.Summary.pp_size_report
        (Entropydb_core.Summary.size_report summary);
      Array.iteri
        (fun i part ->
          let report = Entropydb_core.Summary.solver_report part in
          Printf.printf
            "solver%s: %d sweeps, converged=%b, max rel err %.2e\n"
            (if k = 1 then "" else Printf.sprintf " (shard %d)" i)
            report.sweeps report.converged report.max_rel_error)
        parts;
      if k = 1 then
        Fmt.pr "lineage:@.%a@." Entropydb_core.Journal.pp
          (Entropydb_core.Summary.journal summary);
      0
    with
    | Entropydb_core.Serialize.Format_error m ->
        Fmt.epr "info error: %s: %s@." summary_path m;
        1
    | Sys_error m ->
        Fmt.epr "info error: %s@." m;
        1
  in
  let summary_t =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Saved summary path.")
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Inspect a saved summary.")
    Term.(const run $ verbose_t $ summary_t)

(* ------------------------------------------------------------------ *)
(* ingest                                                              *)
(* ------------------------------------------------------------------ *)

let ingest_cmd =
  let run verbose summary_path batch_csv output sweeps =
    setup_logs verbose;
    try
      let summary = Entropydb_core.Serialize.load summary_path in
      let schema = Entropydb_core.Summary.schema summary in
      let k = Entropydb_core.Summary.num_parts summary in
      if k <> 1 then
        failwith
          (Printf.sprintf "ingest supports unsharded summaries; %s has %d shards"
             summary_path k);
      match Csv_io.load_indices schema batch_csv with
      | Error e ->
          Fmt.epr "ingest error: %s: %a@." batch_csv Csv_io.pp_error e;
          1
      | Ok batch ->
          (* Same live convergence table as `build -v`, so the warm
             start's few sweeps are directly visible. *)
          let header_printed = ref false in
          let on_sweep (st : Entropydb_core.Solver.sweep_stat) =
            if not !header_printed then begin
              Printf.printf "%5s  %20s  %12s  %12s  %9s\n" "sweep" "dual"
                "max_rel_err" "max_step" "elapsed_s";
              header_printed := true
            end;
            Printf.printf "%5d  %20.13g  %12.3e  %12.3e  %9.3f\n%!" st.sweep
              st.dual st.sweep_max_rel_error st.max_step st.elapsed_s
          in
          let on_sweep = if verbose then Some on_sweep else None in
          let solver_config =
            { Entropydb_core.Solver.default_config with max_sweeps = sweeps }
          in
          let summary', stats =
            Edb_ingest.Ingest.append_with_stats ~solver_config
              ~source:(Filename.basename batch_csv) ?on_sweep summary batch
          in
          let out = Option.value output ~default:summary_path in
          Edb_ingest.Ingest.save_atomic summary' out;
          Printf.printf
            "ingested %d rows in %.2fs (%d warm sweep%s, converged=%b)\n"
            stats.Edb_ingest.Ingest.batch_rows stats.Edb_ingest.Ingest.seconds
            stats.Edb_ingest.Ingest.sweeps
            (if stats.Edb_ingest.Ingest.sweeps = 1 then "" else "s")
            stats.Edb_ingest.Ingest.converged;
          Printf.printf "cardinality: %d\n" stats.Edb_ingest.Ingest.cardinality;
          Fmt.pr "lineage:@.%a@." Entropydb_core.Journal.pp
            (Entropydb_core.Summary.journal summary');
          Printf.printf "summary written to %s\n" out;
          0
    with
    | Entropydb_core.Serialize.Format_error m ->
        Fmt.epr "ingest error: %s: %s@." summary_path m;
        1
    | Sys_error m | Failure m | Invalid_argument m ->
        Fmt.epr "ingest error: %s@." m;
        1
  in
  let summary_t =
    Arg.(
      required
      & opt (some string) None
      & info [ "s"; "summary" ] ~docv:"FILE"
          ~doc:"Saved (unsharded) summary to append to.")
  in
  let batch_t =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BATCH.csv"
          ~doc:"Index CSV of new rows, in the summary's schema.")
  in
  let output_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:
            "Where to write the updated summary (default: atomically \
             replace the input file).")
  in
  let sweeps_t =
    Arg.(
      value
      & opt int Entropydb_core.Solver.default_config.max_sweeps
      & info [ "sweeps" ] ~docv:"N" ~doc:"Maximum warm re-solve sweeps.")
  in
  Cmd.v
    (Cmd.info "ingest"
       ~doc:
         "Append a batch of rows to a saved summary without a full rebuild \
          (incremental statistics + warm-started solve).")
    Term.(const run $ verbose_t $ summary_t $ batch_t $ output_t $ sweeps_t)

(* ------------------------------------------------------------------ *)
(* upgrade                                                             *)
(* ------------------------------------------------------------------ *)

let upgrade_cmd =
  let run verbose src dst =
    setup_logs verbose;
    match Edb_ingest.Ingest.upgrade src dst with
    | () ->
        Printf.printf "%s written in format version %d\n" dst
          Entropydb_core.Serialize.version;
        0
    | exception Entropydb_core.Serialize.Format_error m ->
        Fmt.epr "upgrade error: %s: %s@." src m;
        1
    | exception (Sys_error m | Failure m | Invalid_argument m) ->
        Fmt.epr "upgrade error: %s@." m;
        1
  in
  let src_t =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"OLD" ~doc:"Summary file to convert.")
  in
  let dst_t =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"NEW" ~doc:"Output path; may be $(i,OLD).")
  in
  Cmd.v
    (Cmd.info "upgrade"
       ~doc:
         "Rewrite a summary file in the current format, atomically.  Reads \
          v1 and v2 files, sharded manifests (with their part files) and \
          version-3 files, which $(b,serve) and every other verb refuse; \
          the output answers every query bitwise as the input did.  \
          Decoding a v1/v2 payload trusts it, so a corrupt legacy file can \
          crash this command: run it offline, on files you trust.")
    Term.(const run $ verbose_t $ src_t $ dst_t)

(* ------------------------------------------------------------------ *)
(* evaluate                                                            *)
(* ------------------------------------------------------------------ *)

let evaluate_cmd =
  let run verbose dataset rows seed pairs buckets rate hitters =
    setup_logs verbose;
    let rel = generate_relation dataset ~rows ~seed in
    let schema = Relation.schema rel in
    (* Methods: EntropyDB (COMPOSITE on cover-selected pairs) vs a uniform
       sample of the same configured rate. *)
    let chosen =
      Edb_select.Pairs.select ~strategy:Edb_select.Pairs.By_cover
        ~budget:pairs rel
    in
    let joints =
      List.concat_map
        (fun (a, b) ->
          Edb_select.Heuristic.select Edb_select.Heuristic.Composite rel
            ~attr1:a ~attr2:b ~budget:buckets)
        chosen
    in
    let summary, build_s =
      Edb_util.Timing.time (fun () ->
          Entropydb_core.Summary.build rel ~joints)
    in
    Printf.printf "summary built in %.1fs (%d joint statistics)\n%!" build_s
      (List.length joints);
    (* The sampler gets its own stream; workload streams are derived per
       attribute set inside [Runner.run_standard], so no state is shared
       between the baseline and the workloads (or between workloads). *)
    let sample_rng = Edb_util.Prng.create ~seed:(seed + 2) () in
    let methods =
      [
        Edb_workload.Methods.of_sample
          (Edb_sampling.Uniform.create sample_rng ~rate rel);
        Edb_workload.Methods.of_summary summary;
      ]
    in
    (* Workloads over each chosen pair's attributes. *)
    let table =
      Edb_util.Table.create ~title:"Accuracy evaluation"
        ~headers:
          [ "attributes"; "method"; "heavy err"; "light err"; "F measure" ]
        ~aligns:
          [ Edb_util.Table.Left; Edb_util.Table.Left; Edb_util.Table.Right;
            Edb_util.Table.Right; Edb_util.Table.Right ]
        ()
    in
    List.iter
      (fun (a, b) ->
        let attrs = [ a; b ] in
        let label =
          Printf.sprintf "%s,%s" (Schema.attr_name schema a)
            (Schema.attr_name schema b)
        in
        let report =
          Edb_workload.Runner.run_standard ~seed:(seed + 1) rel methods
            ~attrs ~num_hitters:hitters ~num_nulls:hitters
        in
        let heavy = report.Edb_workload.Runner.heavy in
        let light = report.Edb_workload.Runner.light in
        let fs = report.Edb_workload.Runner.f in
        List.iter2
          (fun ((h : Edb_workload.Runner.error_result),
                (l : Edb_workload.Runner.error_result))
               (f : Edb_workload.Runner.f_result) ->
            Edb_util.Table.add_row table
              [
                label;
                h.method_name;
                Edb_util.Table.cell_float h.avg_error;
                Edb_util.Table.cell_float l.avg_error;
                Edb_util.Table.cell_float f.f_measure;
              ])
          (List.combine heavy light)
          fs)
      chosen;
    Edb_util.Table.print table;
    0
  in
  let rows_t =
    Arg.(value & opt int 100_000 & info [ "rows" ] ~docv:"N" ~doc:"Row count.")
  in
  let pairs_t =
    Arg.(value & opt int 2 & info [ "pairs" ] ~docv:"BA" ~doc:"2D pairs.")
  in
  let buckets_t =
    Arg.(
      value & opt int 200 & info [ "buckets" ] ~docv:"BS" ~doc:"Buckets/pair.")
  in
  let rate_t =
    Arg.(
      value & opt float 0.01
      & info [ "sample-rate" ] ~docv:"R" ~doc:"Baseline sampling rate.")
  in
  let hitters_t =
    Arg.(
      value & opt int 50
      & info [ "hitters" ] ~docv:"K" ~doc:"Heavy/light hitters per workload.")
  in
  Cmd.v
    (Cmd.info "evaluate"
       ~doc:"Compare summary accuracy against uniform sampling on a \
             generated dataset.")
    Term.(
      const run $ verbose_t $ dataset_t $ rows_t $ seed_t $ pairs_t
      $ buckets_t $ rate_t $ hitters_t)

(* ------------------------------------------------------------------ *)
(* serve / client                                                      *)
(* ------------------------------------------------------------------ *)

let socket_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let tcp_host_t =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "tcp-host" ] ~docv:"HOST" ~doc:"TCP host (with --tcp-port).")

let tcp_port_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "tcp-port" ] ~docv:"PORT" ~doc:"TCP port to listen/connect on.")

let serve_cmd =
  let run verbose socket tcp_host tcp_port max_conns domains max_inflight
      deadline idle catalog_capacity catalog_bytes cache_capacity preload =
    setup_logs verbose;
    let tcp = Option.map (fun p -> (tcp_host, p)) tcp_port in
    if socket = None && tcp = None then begin
      Fmt.epr "serve: need --socket and/or --tcp-port@.";
      2
    end
    else begin
      let config =
        {
          Edb_server.Server.unix_socket = socket;
          tcp;
          max_conns;
          domains;
          max_inflight;
          max_line_bytes = Edb_server.Server.default_config.max_line_bytes;
          request_deadline = deadline;
          idle_timeout = idle;
          catalog_capacity;
          catalog_bytes;
          cache_capacity;
        }
      in
      let server = Edb_server.Server.create config in
      let catalog = Edb_server.Server.catalog server in
      let bad_preload =
        List.filter_map
          (fun spec ->
            match String.index_opt spec '=' with
            | None -> Some (spec ^ ": expected NAME=PATH")
            | Some i -> (
                let name = String.sub spec 0 i in
                let path =
                  String.sub spec (i + 1) (String.length spec - i - 1)
                in
                match Edb_server.Catalog.load catalog ~name ~path with
                | Ok _ ->
                    Printf.printf "loaded %s from %s\n%!" name path;
                    None
                | Error m -> Some (name ^ ": " ^ m)))
          preload
      in
      match bad_preload with
      | _ :: _ ->
          List.iter (fun m -> Fmt.epr "serve: %s@." m) bad_preload;
          1
      | [] ->
          (* Blocks until SIGINT/SIGTERM, then drains and returns. *)
          Edb_server.Server.run server;
          0
    end
  in
  let max_conns_t =
    Arg.(
      value & opt int Edb_server.Server.default_config.max_conns
      & info [ "max-conns" ] ~docv:"N"
          ~doc:"Live connections admitted before new ones get ERR busy.")
  in
  let domains_t =
    Arg.(
      value & opt int Edb_server.Server.default_config.domains
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Executor domains (event loops); 0 = auto (EDB_DOMAINS, else \
             core count).")
  in
  let max_inflight_t =
    Arg.(
      value & opt int Edb_server.Server.default_config.max_inflight
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:"Per-connection pipeline window before backpressure.")
  in
  let deadline_t =
    Arg.(
      value & opt float Edb_server.Server.default_config.request_deadline
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:"Per-request deadline; 0 disables.")
  in
  let idle_t =
    Arg.(
      value & opt float Edb_server.Server.default_config.idle_timeout
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:"Close connections quiet for this long.")
  in
  let catalog_t =
    Arg.(
      value & opt int Edb_server.Server.default_config.catalog_capacity
      & info [ "catalog-capacity" ] ~docv:"N"
          ~doc:"Resident summaries (LRU beyond this).")
  in
  let catalog_bytes_t =
    Arg.(
      value
      & opt (some int) Edb_server.Server.default_config.catalog_bytes
      & info [ "catalog-bytes" ] ~docv:"BYTES"
          ~doc:
            "Byte budget over resident summaries' file sizes (weighted LRU \
             beyond it; evicted names transparently reopen on use, in \
             O(header + manifest)).  Unlimited by default.")
  in
  let cache_t =
    Arg.(
      value & opt int Edb_server.Server.default_config.cache_capacity
      & info [ "cache-capacity" ] ~docv:"N"
          ~doc:"Per-summary query-cache entries.")
  in
  let preload_t =
    Arg.(
      value & opt_all string []
      & info [ "load" ] ~docv:"NAME=PATH"
          ~doc:"Preload a summary into the catalog (repeatable).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the resident summary server until SIGINT/SIGTERM (graceful \
          drain).")
    Term.(
      const run $ verbose_t $ socket_t $ tcp_host_t $ tcp_port_t $ max_conns_t
      $ domains_t $ max_inflight_t $ deadline_t
      $ idle_t $ catalog_t $ catalog_bytes_t $ cache_t $ preload_t)

let client_cmd =
  let run verbose socket tcp_host tcp_port timeout words =
    setup_logs verbose;
    let address =
      match (socket, tcp_port) with
      | Some path, _ -> Some (Edb_server.Client.Unix_socket path)
      | None, Some port -> Some (Edb_server.Client.Tcp (tcp_host, port))
      | None, None -> None
    in
    match address with
    | None ->
        Fmt.epr "client: need --socket or --tcp-port@.";
        2
    | Some address -> (
        match Edb_server.Client.connect ~timeout address with
        | Error m ->
            Fmt.epr "client: %s@." m;
            1
        | Ok conn ->
            let send line =
              match Edb_server.Protocol.parse_request line with
              | Error m ->
                  Fmt.epr "bad request: %s@." m;
                  (1, true)
              | Ok request -> (
                  match Edb_server.Client.request conn request with
                  | Error m ->
                      Fmt.epr "client: %s@." m;
                      (1, false)
                  | Ok (Edb_server.Protocol.Err { code; message }) ->
                      Fmt.epr "ERR %s %s@." code message;
                      (1, code <> Edb_server.Protocol.err_busy)
                  | Ok (Edb_server.Protocol.Ok payload) ->
                      List.iter print_endline payload;
                      (0, request <> Edb_server.Protocol.Quit))
            in
            let rc =
              match words with
              | _ :: _ -> fst (send (String.concat " " words))
              | [] ->
                  (* REPL: one request per stdin line until EOF or QUIT. *)
                  let rc = ref 0 in
                  (try
                     let continue = ref true in
                     while !continue do
                       let line = input_line stdin in
                       if String.trim line <> "" then begin
                         let code, keep = send line in
                         rc := max !rc code;
                         continue := keep
                       end
                     done
                   with End_of_file -> ());
                  !rc
            in
            Edb_server.Client.close conn;
            rc)
  in
  let timeout_t =
    Arg.(
      value & opt float 30.
      & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Receive timeout.")
  in
  let words_t =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"REQUEST"
          ~doc:
            "Protocol request, e.g. $(b,QUERY flights SELECT COUNT( * ) \
             ...); reads requests from stdin when omitted.")
  in
  Cmd.v
    (Cmd.info "client" ~doc:"Send requests to a running summary server.")
    Term.(
      const run $ verbose_t $ socket_t $ tcp_host_t $ tcp_port_t $ timeout_t
      $ words_t)

(* ------------------------------------------------------------------ *)
(* stats                                                               *)
(* ------------------------------------------------------------------ *)

let stats_cmd =
  (* Sugar for `client STATS`: one request, print the key/value lines
     (server counters, latency quantiles, and the obs_* registry). *)
  let run verbose socket tcp_host tcp_port timeout =
    setup_logs verbose;
    let address =
      match (socket, tcp_port) with
      | Some path, _ -> Some (Edb_server.Client.Unix_socket path)
      | None, Some port -> Some (Edb_server.Client.Tcp (tcp_host, port))
      | None, None -> None
    in
    match address with
    | None ->
        Fmt.epr "stats: need --socket or --tcp-port@.";
        2
    | Some address -> (
        match Edb_server.Client.connect ~timeout address with
        | Error m ->
            Fmt.epr "stats: %s@." m;
            1
        | Ok conn ->
            let rc =
              match Edb_server.Client.request conn Edb_server.Protocol.Stats with
              | Error m ->
                  Fmt.epr "stats: %s@." m;
                  1
              | Ok (Edb_server.Protocol.Err { code; message }) ->
                  Fmt.epr "ERR %s %s@." code message;
                  1
              | Ok (Edb_server.Protocol.Ok payload) ->
                  List.iter print_endline payload;
                  0
            in
            Edb_server.Client.close conn;
            rc)
  in
  let timeout_t =
    Arg.(
      value & opt float 30.
      & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Receive timeout.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Print a running server's metrics (counters, latency quantiles, \
          obs registry).")
    Term.(
      const run $ verbose_t $ socket_t $ tcp_host_t $ tcp_port_t $ timeout_t)

(* ------------------------------------------------------------------ *)
(* check                                                               *)
(* ------------------------------------------------------------------ *)

let check_cmd =
  let run verbose budget base_seed replay mutate =
    setup_logs verbose;
    (* The sweep spins a server per case; its connection chatter is noise
       here unless the user asked for it. *)
    if not verbose then Logs.set_level (Some Logs.Warning);
    (match mutate with
    | None -> ()
    | Some "clamp" ->
        (* Plant a known estimator bug: a positive cancellation floor.
           The sweep must then report findings (exit 1). *)
        Entropydb_core.Poly.set_cancellation_floor 0.05
    | Some other ->
        Fmt.epr "unknown mutation %s (available: clamp)@." other;
        exit 2);
    let config = { Edb_check.Oracle.default with server = true } in
    let outcome =
      match replay with
      | Some seed -> Edb_check.Sweep.replay ~config seed
      | None -> (
          match Edb_check.Sweep.budget_of_string budget with
          | Error m ->
              Fmt.epr "%s@." m;
              exit 2
          | Ok b -> Edb_check.Sweep.run ~config ~base_seed b)
    in
    Edb_check.Sweep.print_outcome outcome;
    if outcome.Edb_check.Sweep.findings = [] then 0 else 1
  in
  let budget_t =
    Arg.(
      value & opt string "default"
      & info [ "budget" ] ~docv:"LEVEL"
          ~doc:"Sweep size: smoke (12 cases), default (48), or deep (200).")
  in
  let base_seed_t =
    Arg.(
      value & opt int 1000
      & info [ "seed" ] ~docv:"N" ~doc:"Base seed of the sweep.")
  in
  let replay_t =
    Arg.(
      value & opt (some int) None
      & info [ "replay" ] ~docv:"SEED"
          ~doc:"Re-run the full oracle battery on one seed (the repro \
                line of a previous failure) instead of a sweep.")
  in
  let mutate_t =
    Arg.(
      value & opt (some string) None
      & info [ "mutate" ] ~docv:"NAME"
          ~doc:"Plant a known bug before checking (self-test of the \
                harness).  Available: $(b,clamp), a positive cancellation \
                floor in the polynomial evaluator.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Cross-check every answer path with the correctness oracle \
             battery (differential, metamorphic, and exact tiers).")
    Term.(
      const run $ verbose_t $ budget_t $ base_seed_t $ replay_t $ mutate_t)

(* ------------------------------------------------------------------ *)
(* experiment                                                          *)
(* ------------------------------------------------------------------ *)

let experiment_cmd =
  let run verbose name scale =
    setup_logs verbose;
    let config =
      match scale with
      | "full" -> Edb_experiments.Config.full ()
      | _ -> Edb_experiments.Config.small ()
    in
    let tables =
      match name with
      | "fig2b" -> Edb_experiments.Figures.fig2b config
      | "fig3" -> Edb_experiments.Figures.fig3 config
      | "fig4" -> Edb_experiments.Figures.fig4 config
      | "fig7" -> Edb_experiments.Figures.fig7 config
      | "compression" -> Edb_experiments.Figures.compression config
      | "ablation" -> Edb_experiments.Figures.ablation config
      | "hierarchy" -> Edb_experiments.Figures.hierarchy config
      | "fig5" | "fig6" | "fig8" | "costs" ->
          let lab = Edb_experiments.Lab.flights_lab config in
          (match name with
          | "fig5" -> Edb_experiments.Figures.fig5 lab
          | "fig6" -> Edb_experiments.Figures.fig6 lab
          | "fig8" -> Edb_experiments.Figures.fig8 lab
          | _ -> Edb_experiments.Figures.build_costs lab)
      | other ->
          Fmt.epr "unknown experiment %s@." other;
          exit 1
    in
    List.iter (fun t -> Edb_util.Table.print t) tables;
    0
  in
  let name_t =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"NAME"
          ~doc:"fig2b, fig3, fig4, fig5, fig6, fig7, fig8, compression, \
                ablation, hierarchy, or costs.")
  in
  let scale_t =
    Arg.(
      value & opt string "small"
      & info [ "scale" ] ~docv:"SCALE" ~doc:"small or full.")
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate one of the paper's figures.")
    Term.(const run $ verbose_t $ name_t $ scale_t)

let () =
  let info =
    Cmd.info "entropydb" ~version:"1.0.0"
      ~doc:"Probabilistic database summarization for interactive data \
            exploration (EntropyDB, VLDB 2017)."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            generate_cmd; build_cmd; summarize_cmd; query_cmd; explain_cmd;
            info_cmd; ingest_cmd; upgrade_cmd;
            serve_cmd; client_cmd; stats_cmd; evaluate_cmd; check_cmd;
            experiment_cmd;
          ]))
