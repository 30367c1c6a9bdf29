(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, plus a bechamel latency microbenchmark backing the paper's
   query-runtime claims (Sec. 5: ~500 ms average, < 1 s max, on their
   hardware; orders of magnitude faster here because the polynomial stays
   in cache).

   Usage:
     dune exec bench/main.exe               # everything
     dune exec bench/main.exe -- fig5 fig6  # selected experiments
     SCALE=full dune exec bench/main.exe    # paper-sized budgets

   Experiments: fig2b fig3 fig4 fig5 fig6 fig7 fig8 compression ablation
   hierarchy costs latency loadgen shardscale groupby.

   Every experiment also writes a machine-readable BENCH_<name>.json next
   to the printed tables (wall time, the tables themselves, and any
   experiment-specific numbers), so the perf trajectory is comparable
   across commits.

   `loadgen` starts an in-process edb_server on a temp Unix-domain socket
   and drives it with concurrent client threads (EDB_CLIENTS, default 16;
   EDB_REQS requests each, default 300), verifying every answer against
   the in-process Summary.estimate and reporting throughput, tail
   latency, and the admission-control behaviour under saturation. *)

open Edb_util
open Edb_experiments

let print_tables tables =
  List.iter
    (fun t ->
      print_newline ();
      Table.print t)
    tables

(* The flights lab (nine methods on two relations) is shared by fig5, fig6,
   fig8, and costs; build it at most once. *)
let lab_cache = ref None

(* Experiments may push extra machine-readable numbers here; the driver
   merges them into the experiment's BENCH_<name>.json and clears the
   list between experiments. *)
let extra_json : (string * Json.t) list ref = ref []

let get_lab config =
  match !lab_cache with
  | Some lab -> lab
  | None ->
      Printf.printf
        "\n[setup] building the shared flights lab (4 summaries x 2 \
         relations + 5 samples)...\n%!";
      let lab, dt = Timing.time (fun () -> Lab.flights_lab config) in
      Printf.printf "[setup] flights lab ready in %.1fs\n%!" dt;
      lab_cache := Some lab;
      lab

(* ------------------------------------------------------------------ *)
(* Latency microbenchmark (bechamel)                                   *)
(* ------------------------------------------------------------------ *)

let latency config =
  let open Bechamel in
  let open Bechamel.Toolkit in
  let lab = get_lab config in
  let rel = lab.Lab.data.coarse in
  let schema = Edb_storage.Relation.schema rel in
  let arity = Edb_storage.Schema.arity schema in
  let module F = Edb_datagen.Flights in
  let summary =
    match (Lab.find_method lab.Lab.coarse_methods "Ent1&2&3").Lab.fm_summary with
    | Some s -> s
    | None -> assert false
  in
  let uni = Lab.find_method lab.Lab.coarse_methods "Uni" in
  let strat = Lab.find_method lab.Lab.coarse_methods "Strat3" in
  let point =
    Edb_storage.Predicate.point ~arity [ (F.origin, 3); (F.distance, 20) ]
  in
  let range =
    Edb_storage.Predicate.of_alist ~arity
      [
        (F.fl_time, Ranges.interval 5 25);
        (F.distance, Ranges.interval 10 40);
        (F.origin, Ranges.interval 0 20);
      ]
  in
  let tests =
    [
      Test.make ~name:"entropydb/point"
        (Staged.stage (fun () ->
             Entropydb_core.Summary.estimate summary point));
      Test.make ~name:"entropydb/range"
        (Staged.stage (fun () ->
             Entropydb_core.Summary.estimate summary range));
      Test.make ~name:"uniform-sample/point"
        (Staged.stage (fun () ->
             Edb_workload.Methods.estimate uni.Lab.fm_method point));
      Test.make ~name:"stratified-sample/point"
        (Staged.stage (fun () ->
             Edb_workload.Methods.estimate strat.Lab.fm_method point));
      Test.make ~name:"exact-scan/point"
        (Staged.stage (fun () -> Edb_storage.Exec.count rel point));
      Test.make ~name:"exact-scan/range"
        (Staged.stage (fun () -> Edb_storage.Exec.count rel range));
      (let index = Edb_storage.Bitmap.create rel in
       Test.make ~name:"exact-bitmap/point"
         (Staged.stage (fun () -> Edb_storage.Bitmap.count index point)));
      (let cache = Entropydb_core.Cache.create summary in
       ignore (Entropydb_core.Cache.estimate cache point);
       Test.make ~name:"entropydb/point-cached"
         (Staged.stage (fun () -> Entropydb_core.Cache.estimate cache point)));
    ]
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = [ Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw =
    Benchmark.all cfg instances (Test.make_grouped ~name:"latency" tests)
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let table =
    Table.create
      ~title:
        "Query latency (bechamel, monotonic clock; paper Sec. 5: EntropyDB \
         ~500ms avg vs Postgres-resident samples)"
      ~headers:[ "operation"; "time/query"; "r^2" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right ]
      ()
  in
  let rows = Hashtbl.fold (fun name o acc -> (name, o) :: acc) results [] in
  List.iter
    (fun (name, o) ->
      let ns =
        match Analyze.OLS.estimates o with Some (t :: _) -> t | _ -> nan
      in
      let pretty =
        if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
        else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
        else Printf.sprintf "%.0f ns" ns
      in
      let r2 =
        match Analyze.OLS.r_square o with
        | Some r when Float.is_finite r -> Printf.sprintf "%.4f" r
        | _ -> "-"
      in
      Table.add_row table [ name; pretty; r2 ])
    (List.sort compare rows);
  [ table ]

(* ------------------------------------------------------------------ *)
(* Server load generator                                               *)
(* ------------------------------------------------------------------ *)

(* Serving throughput and tail latency, the numbers the paper's
   "interactive" claim is actually about once the summary lives in a
   daemon instead of being rebuilt per invocation.

   Three phases against the domain-per-core server:
   - lockstep: one request per round trip (the v1 protocol), every
     answer verified against the in-process evaluation — this is also
     the below-saturation tail-latency measurement;
   - pipelined: windows of tagged v2 requests per connection, batched
     and coalesced server-side, every answer verified BITWISE;
   - saturation: more connections than admission allows; the excess
     must reject fast with ERR busy.

   Gates (failing loud, for CI): zero wrong answers/transport failures
   in both verified phases; pipelined throughput at least
   EDB_LOADGEN_MIN_SPEEDUP (default 1.5) x same-run lockstep.  Absolute
   req/s depends on the host, so it gates nothing by default; set
   EDB_LOADGEN_MIN_RPS to make it a hard gate on known hardware. *)
let loadgen config =
  let module Server = Edb_server.Server in
  let module Client = Edb_server.Client in
  let module Protocol = Edb_server.Protocol in
  (* Saturation-phase clients race server-side closes; EPIPE must surface
     as write errors, not kill the benchmark. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let int_env name default =
    match Sys.getenv_opt name with
    | Some v -> ( match int_of_string_opt v with Some i -> i | None -> default)
    | None -> default
  in
  let float_env name default =
    match Sys.getenv_opt name with
    | Some v -> (
        match float_of_string_opt v with Some x -> x | None -> default)
    | None -> default
  in
  let num_clients = int_env "EDB_CLIENTS" 16 in
  let reqs_per_client = int_env "EDB_REQS" 300 in
  let max_conns = int_env "EDB_MAX_CONNS" (max 16 num_clients + num_clients) in
  let window = max 1 (int_env "EDB_WINDOW" 32) in
  (* A small but real summary: flights-coarse with one 2D pair. *)
  let rel =
    (Edb_datagen.Flights.generate ~rows:20_000 ~seed:config.Config.seed ())
      .coarse
  in
  let pairs =
    Edb_select.Pairs.select ~strategy:Edb_select.Pairs.By_cover ~budget:1 rel
  in
  let joints =
    List.concat_map
      (fun (a, b) ->
        Edb_select.Heuristic.select Edb_select.Heuristic.Composite rel
          ~attr1:a ~attr2:b ~budget:80)
      pairs
  in
  let summary = Entropydb_core.Summary.build rel ~joints in
  let dir = Filename.temp_file "edb-loadgen" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let summary_path = Filename.concat dir "flights.summary" in
  Entropydb_core.Serialize.save summary summary_path;
  (* Query pool: range counts over the flights schema, as SQL, with the
     expected answer computed in-process. *)
  let module F = Edb_datagen.Flights in
  let schema = Edb_storage.Relation.schema rel in
  let arity = Edb_storage.Schema.arity schema in
  let rng = Prng.create ~seed:(config.Config.seed + 77) () in
  let pool =
    List.init 64 (fun _ ->
        let span attr =
          let size = Edb_storage.Schema.domain_size schema attr in
          let lo = Prng.int rng size in
          let hi = min (size - 1) (lo + 1 + Prng.int rng (size / 2)) in
          (lo, hi)
        in
        let t_lo, t_hi = span F.fl_time in
        let d_lo, d_hi = span F.distance in
        let sql =
          Printf.sprintf
            "SELECT COUNT(*) FROM f WHERE fl_time IN [%d,%d] AND distance \
             IN [%d,%d]"
            t_lo t_hi d_lo d_hi
        in
        let predicate =
          Edb_storage.Predicate.of_alist ~arity
            [
              (F.fl_time, Ranges.interval t_lo t_hi);
              (F.distance, Ranges.interval d_lo d_hi);
            ]
        in
        (sql, Entropydb_core.Summary.estimate summary predicate))
  in
  let pool = Array.of_list pool in
  let socket = Filename.concat dir "edb.sock" in
  let server =
    Server.create
      {
        Server.default_config with
        unix_socket = Some socket;
        max_conns;
      }
  in
  (match
     Edb_server.Catalog.load (Server.catalog server) ~name:"flights"
       ~path:summary_path
   with
  | Ok _ -> ()
  | Error m -> failwith m);
  Server.start server;
  let cores = Domain.recommended_domain_count () in
  let ndomains = Server.num_domains server in
  Printf.printf
    "loadgen: %d clients x %d requests, %d executor domains (%d cores), \
     window %d, on unix:%s\n%!"
    num_clients reqs_per_client ndomains cores window socket;
  (* --- Phase A: lockstep (v1), verified; below-saturation latency. --- *)
  let wrong = Atomic.make 0 and failures = Atomic.make 0 in
  let latencies =
    Array.init num_clients (fun _ -> Array.make reqs_per_client nan)
  in
  let client_thread c =
    match Client.connect (Client.Unix_socket socket) with
    | Error m ->
        Printf.eprintf "client %d: %s\n%!" c m;
        Atomic.incr failures
    | Ok conn ->
        for k = 0 to reqs_per_client - 1 do
          let sql, expected = pool.((c + (k * num_clients)) mod Array.length pool) in
          let t0 = Timing.now_s () in
          (match Client.query conn ~name:"flights" ~sql with
          | Error m ->
              Printf.eprintf "client %d: %s\n%!" c m;
              Atomic.incr failures
          | Ok payload -> (
              match Client.estimate_of_payload payload with
              | Some v
                when Float.abs (v -. expected)
                     <= 1e-9 *. (1. +. Float.abs expected) ->
                  ()
              | _ -> Atomic.incr wrong));
          latencies.(c).(k) <- Timing.now_s () -. t0
        done;
        ignore (Client.quit conn)
  in
  let t0 = Timing.now_s () in
  let threads =
    List.init num_clients (fun c -> Thread.create client_thread c)
  in
  List.iter Thread.join threads;
  let wall = Timing.now_s () -. t0 in
  let all =
    Array.concat (Array.to_list latencies)
    |> Array.to_seq
    |> Seq.filter (fun x -> not (Float.is_nan x))
    |> Array.of_seq
  in
  Array.sort compare all;
  let pct p =
    if Array.length all = 0 then nan
    else
      all.(min (Array.length all - 1)
             (int_of_float (p *. float_of_int (Array.length all))))
  in
  let total = num_clients * reqs_per_client in
  let lockstep_rps = float_of_int total /. wall in
  (* --- Phase B: pipelined (v2) windows, verified bitwise. --- *)
  let counter name =
    Edb_obs.Registry.Counter.value (Edb_obs.Registry.counter name)
  in
  let hits0 = counter "server_coalesce_hits"
  and batches0 = counter "server_batches"
  and batched0 = counter "server_batch_requests" in
  let pipe_rounds = max 1 (reqs_per_client / window) in
  let pipe_wrong = Atomic.make 0 and pipe_failures = Atomic.make 0 in
  let pipe_thread c =
    match Client.connect (Client.Unix_socket socket) with
    | Error m ->
        Printf.eprintf "pipelined client %d: %s\n%!" c m;
        Atomic.incr pipe_failures
    | Ok conn ->
        for r = 0 to pipe_rounds - 1 do
          let idx i =
            (c + (((r * window) + i) * num_clients)) mod Array.length pool
          in
          let reqs =
            List.init window (fun i ->
                Protocol.Query { name = "flights"; sql = fst pool.(idx i) })
          in
          match Client.pipelined conn reqs with
          | Error m ->
              Printf.eprintf "pipelined client %d: %s\n%!" c m;
              Atomic.incr pipe_failures
          | Ok responses ->
              List.iteri
                (fun i resp ->
                  let _, expected = pool.(idx i) in
                  match resp with
                  | Protocol.Err _ -> Atomic.incr pipe_wrong
                  | Protocol.Ok payload -> (
                      match Client.estimate_of_payload payload with
                      | Some v
                        when Int64.equal (Int64.bits_of_float v)
                               (Int64.bits_of_float expected) ->
                          ()
                      | _ -> Atomic.incr pipe_wrong))
                responses
        done;
        ignore (Client.quit conn)
  in
  let t1 = Timing.now_s () in
  let pipe_threads =
    List.init num_clients (fun c -> Thread.create pipe_thread c)
  in
  List.iter Thread.join pipe_threads;
  let pipe_wall = Timing.now_s () -. t1 in
  let pipe_total = num_clients * pipe_rounds * window in
  let pipelined_rps = float_of_int pipe_total /. pipe_wall in
  let coalesce_hits = counter "server_coalesce_hits" - hits0 in
  let batches = counter "server_batches" - batches0 in
  let batched_reqs = counter "server_batch_requests" - batched0 in
  let avg_batch =
    if batches = 0 then 0.
    else float_of_int batched_reqs /. float_of_int batches
  in
  let coalesce_rate =
    if batched_reqs = 0 then 0.
    else float_of_int coalesce_hits /. float_of_int batched_reqs
  in
  let speedup = pipelined_rps /. lockstep_rps in
  (* Saturation phase: more clients than max_conns admits; the excess
     must be rejected fast with ERR busy, never queued indefinitely. *)
  let sat_server =
    Server.create
      {
        Server.default_config with
        unix_socket = Some (Filename.concat dir "edb-sat.sock");
        max_conns = 3;
      }
  in
  (match
     Edb_server.Catalog.load (Server.catalog sat_server) ~name:"flights"
       ~path:summary_path
   with
  | Ok _ -> ()
  | Error m -> failwith m);
  Server.start sat_server;
  let busy = Atomic.make 0 and served = Atomic.make 0 in
  let sat_thread _ =
    for _ = 1 to 20 do
      match Client.connect (Client.Unix_socket (Filename.concat dir "edb-sat.sock")) with
      | Error _ -> Atomic.incr busy (* connect refused under pressure *)
      | Ok conn ->
          (match Client.query conn ~name:"flights" ~sql:(fst pool.(0)) with
          | Ok _ -> Atomic.incr served
          | Error _ -> Atomic.incr busy);
          Client.close conn
    done
  in
  let sat_threads = List.init 12 (fun c -> Thread.create sat_thread c) in
  List.iter Thread.join sat_threads;
  Server.stop sat_server;
  Server.wait sat_server;
  (* Server-side view, then shut down. *)
  let stats_lines =
    match Client.connect (Client.Unix_socket socket) with
    | Error _ -> []
    | Ok conn ->
        let lines =
          match Client.stats conn with Ok l -> l | Error _ -> []
        in
        ignore (Client.quit conn);
        lines
  in
  Server.stop server;
  Server.wait server;
  (try Sys.remove summary_path with Sys_error _ -> ());
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  let table =
    Table.create ~title:"Server load generation (edb_server over unix socket)"
      ~headers:[ "metric"; "value" ]
      ~aligns:[ Table.Left; Table.Right ] ()
  in
  let add k v = Table.add_row table [ k; v ] in
  add "cores" (string_of_int cores);
  add "executor domains" (string_of_int ndomains);
  add "clients" (string_of_int num_clients);
  add "lockstep requests" (string_of_int total);
  add "lockstep wrong answers" (string_of_int (Atomic.get wrong));
  add "lockstep transport failures" (string_of_int (Atomic.get failures));
  add "lockstep wall time" (Printf.sprintf "%.2f s" wall);
  add "lockstep throughput" (Printf.sprintf "%.0f req/s" lockstep_rps);
  add "p50 latency (lockstep)" (Printf.sprintf "%.1f us" (pct 0.50 *. 1e6));
  add "p95 latency (lockstep)" (Printf.sprintf "%.1f us" (pct 0.95 *. 1e6));
  add "p99 latency (lockstep)" (Printf.sprintf "%.1f us" (pct 0.99 *. 1e6));
  add "pipeline window" (string_of_int window);
  add "pipelined requests" (string_of_int pipe_total);
  add "pipelined wrong answers" (string_of_int (Atomic.get pipe_wrong));
  add "pipelined transport failures" (string_of_int (Atomic.get pipe_failures));
  add "pipelined wall time" (Printf.sprintf "%.2f s" pipe_wall);
  add "pipelined throughput" (Printf.sprintf "%.0f req/s" pipelined_rps);
  add "speedup vs lockstep" (Printf.sprintf "%.2fx" speedup);
  add "batches" (string_of_int batches);
  add "mean batch size" (Printf.sprintf "%.1f" avg_batch);
  add "coalesce hits" (string_of_int coalesce_hits);
  add "coalesce hit rate" (Printf.sprintf "%.3f" coalesce_rate);
  add "saturation served" (string_of_int (Atomic.get served));
  add "saturation busy rejects" (string_of_int (Atomic.get busy));
  let stats_table =
    Table.create ~title:"Server-side STATS after the run"
      ~headers:[ "stat"; "value" ]
      ~aligns:[ Table.Left; Table.Right ] ()
  in
  List.iter
    (fun line ->
      match String.index_opt line ' ' with
      | Some i ->
          Table.add_row stats_table
            [
              String.sub line 0 i;
              String.sub line (i + 1) (String.length line - i - 1);
            ]
      | None -> Table.add_row stats_table [ line; "" ])
    stats_lines;
  (* --- Gates: fail loud so CI catches regressions. --- *)
  let bad = ref [] in
  let gate name ok detail = if not ok then bad := (name ^ ": " ^ detail) :: !bad in
  gate "lockstep exactness"
    (Atomic.get wrong = 0 && Atomic.get failures = 0)
    (Printf.sprintf "%d wrong, %d failures" (Atomic.get wrong)
       (Atomic.get failures));
  gate "pipelined exactness"
    (Atomic.get pipe_wrong = 0 && Atomic.get pipe_failures = 0)
    (Printf.sprintf "%d wrong, %d failures" (Atomic.get pipe_wrong)
       (Atomic.get pipe_failures));
  let min_speedup = float_env "EDB_LOADGEN_MIN_SPEEDUP" 1.5 in
  gate "pipelining speedup"
    (speedup >= min_speedup)
    (Printf.sprintf "%.2fx < %.2fx same-run lockstep" speedup min_speedup);
  (match float_env "EDB_LOADGEN_MIN_RPS" 0. with
  | min_rps when min_rps > 0. ->
      gate "throughput vs EDB_LOADGEN_MIN_RPS"
        (pipelined_rps >= min_rps)
        (Printf.sprintf "%.0f req/s < %.0f req/s" pipelined_rps min_rps)
  | _ -> ());
  extra_json :=
    [
      ("cores", Json.Int cores);
      ("domains", Json.Int ndomains);
      ("clients", Json.Int num_clients);
      ("window", Json.Int window);
      ("lockstep_rps", Json.Float lockstep_rps);
      ("lockstep_p50_us", Json.Float (pct 0.50 *. 1e6));
      ("lockstep_p99_us", Json.Float (pct 0.99 *. 1e6));
      ("pipelined_rps", Json.Float pipelined_rps);
      ("speedup_vs_lockstep", Json.Float speedup);
      ("mean_batch", Json.Float avg_batch);
      ("coalesce_hit_rate", Json.Float coalesce_rate);
      ("wrong_answers", Json.Int (Atomic.get wrong + Atomic.get pipe_wrong));
      ( "transport_failures",
        Json.Int (Atomic.get failures + Atomic.get pipe_failures) );
      ("saturation_served", Json.Int (Atomic.get served));
      ("saturation_busy", Json.Int (Atomic.get busy));
    ];
  (match !bad with
  | [] -> ()
  | bad -> failwith ("loadgen gate failed — " ^ String.concat "; " bad));
  [ table; stats_table ]

(* ------------------------------------------------------------------ *)
(* Sharded build scaling                                               *)
(* ------------------------------------------------------------------ *)

(* Build-time speedup and query fidelity of edb_shard vs. the flat
   summary, over shard counts.  Each shard's polynomial has the same
   statistics as the flat one, so sequential sharded build costs ~k flat
   builds; the interesting number is the parallel speedup (domains > 1
   vs. the identical build at domains = 1) and that query answers stay
   put: k = 1 must match flat bitwise, larger k within the model's own
   noise. *)
let shardscale config =
  let domains = Parallel.default_domains () in
  let cores = Domain.recommended_domain_count () in
  let rel =
    (Edb_datagen.Flights.generate ~rows:config.Config.flights_rows
       ~seed:config.Config.seed ())
      .coarse
  in
  let n = Edb_storage.Relation.cardinality rel in
  let pairs =
    Edb_select.Pairs.select ~strategy:Edb_select.Pairs.By_cover ~budget:2 rel
  in
  let buckets = List.hd config.Config.fig2b_budgets in
  let joints =
    List.concat_map
      (fun (a, b) ->
        Edb_select.Heuristic.select Edb_select.Heuristic.Composite rel
          ~attr1:a ~attr2:b ~budget:buckets)
      pairs
  in
  let solver_config = config.Config.solver in
  Printf.printf
    "shardscale: %d rows, %d joint statistics, %d domains (EDB_DOMAINS \
     clamped to %d cores)\n%!"
    n (List.length joints) domains cores;
  let flat, flat_s =
    Timing.time (fun () ->
        Entropydb_core.Summary.build ~solver_config rel ~joints)
  in
  Printf.printf "flat build: %.2fs\n%!" flat_s;
  (* Query pool: random conjunctive ranges over the selected pairs'
     attributes, exact answers by scan. *)
  let schema = Edb_storage.Relation.schema rel in
  let arity = Edb_storage.Schema.arity schema in
  let rng = Prng.create ~seed:(config.Config.seed + 41) () in
  let queries =
    List.init 32 (fun _ ->
        let attrs =
          let a, b = List.nth pairs (Prng.int rng (List.length pairs)) in
          [ a; b ]
        in
        Edb_storage.Predicate.of_alist ~arity
          (List.map
             (fun attr ->
               let size = Edb_storage.Schema.domain_size schema attr in
               let lo = Prng.int rng size in
               let hi = min (size - 1) (lo + 1 + Prng.int rng (size / 2)) in
               (attr, Ranges.interval lo hi))
             attrs))
  in
  let exact =
    List.map (fun q -> float_of_int (Edb_storage.Exec.count rel q)) queries
  in
  let flat_answers =
    List.map (fun q -> Entropydb_core.Summary.estimate flat q) queries
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Sharded build scaling (flights-coarse, %d rows, %d domains; \
            flat build %.2fs)"
           n domains flat_s)
      ~headers:
        [
          "shards"; "seq build"; "par build"; "speedup"; "query";
          "rel err vs exact"; "max dev vs flat";
        ]
      ~aligns:
        [
          Table.Right; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Right;
        ]
      ()
  in
  let points =
    List.map
      (fun shards ->
        let seq, seq_s =
          Timing.time (fun () ->
              Edb_shard.Builder.build ~solver_config ~domains:1 rel ~shards
                ~strategy:Edb_shard.Partition.Rows ~joints)
        in
        let par, par_s =
          Timing.time (fun () ->
              Edb_shard.Builder.build ~solver_config ~domains rel ~shards
                ~strategy:Edb_shard.Partition.Rows ~joints)
        in
        (* The build is deterministic across domain counts; estimates of
           the two builds must agree bitwise.  Check it here, every run. *)
        List.iter
          (fun q ->
            let a = Entropydb_core.Summary.estimate seq q
            and b = Entropydb_core.Summary.estimate par q in
            if a <> b then
              failwith
                (Printf.sprintf
                   "shardscale: nondeterministic build at k=%d (%.17g vs \
                    %.17g)"
                   shards a b))
          queries;
        let answers, query_s =
          Timing.time (fun () ->
              List.map (fun q -> Entropydb_core.Summary.estimate par q) queries)
        in
        let per_query_us =
          query_s /. float_of_int (List.length queries) *. 1e6
        in
        (* Median, not mean: random range queries include near-empty ones
           whose relative error explodes and would swamp the average. *)
        let rel_err =
          Floatx.median
            (Array.of_list
               (List.map2
                  (fun est ex -> Float.abs (est -. ex) /. max 1. ex)
                  answers exact))
        in
        let max_dev =
          List.fold_left2
            (fun acc est fl ->
              Float.max acc (Float.abs (est -. fl) /. max 1. fl))
            0. answers flat_answers
        in
        let speedup = seq_s /. par_s in
        Table.add_row table
          [
            string_of_int shards;
            Printf.sprintf "%.2f s" seq_s;
            Printf.sprintf "%.2f s" par_s;
            Printf.sprintf "%.2fx" speedup;
            Printf.sprintf "%.1f us" per_query_us;
            Printf.sprintf "%.4f" rel_err;
            (if max_dev = 0. then "0 (bitwise)"
             else Printf.sprintf "%.4f" max_dev);
          ];
        Json.Obj
          [
            ("shards", Json.Int shards);
            ("build_seq_s", Json.Float seq_s);
            ("build_par_s", Json.Float par_s);
            ("speedup", Json.Float speedup);
            ("query_us", Json.Float per_query_us);
            ("rel_err_vs_exact", Json.Float rel_err);
            ("max_dev_vs_flat", Json.Float max_dev);
          ])
      [ 1; 2; 4; 8 ]
  in
  extra_json :=
    [
      ("rows", Json.Int n);
      ("domains", Json.Int domains);
      ("cores", Json.Int cores);
      ("joint_statistics", Json.Int (List.length joints));
      ("flat_build_s", Json.Float flat_s);
      ("shard_points", Json.List points);
    ];
  [ table ]

(* ------------------------------------------------------------------ *)
(* Batched GROUP BY kernel                                             *)
(* ------------------------------------------------------------------ *)

(* Speedup of the single-pass batched GROUP BY kernel
   (Poly.eval_restricted_by_value, surfaced as Summary.groups)
   over the naive one-full-evaluation-per-cell path it replaced, on the
   flights FINE relation grouped by origin (147 cities — the >= 100-value
   attribute the interactive dashboards of Sec. 1 sweep).  Also asserts,
   every run: batched agrees with naive to <= 1e-9 relative per cell,
   and the k = 1 sharded answer (estimates AND stddevs) is bitwise equal
   to flat.  Timings are recorded, never asserted — CI boxes are noisy,
   correctness is not. *)
let groupby config =
  let int_env name default =
    match Sys.getenv_opt name with
    | Some v -> ( match int_of_string_opt v with Some i -> i | None -> default)
    | None -> default
  in
  let rows = int_env "EDB_GROUPBY_ROWS" (min config.Config.flights_rows 30_000) in
  let naive_iters = max 1 (int_env "EDB_GROUPBY_ITERS" 3) in
  let batched_iters = naive_iters * 20 in
  let module F = Edb_datagen.Flights in
  let rel = (F.generate ~rows ~seed:config.Config.seed ()).fine in
  let schema = Edb_storage.Relation.schema rel in
  let arity = Edb_storage.Schema.arity schema in
  let budget = List.hd config.Config.fig2b_budgets in
  (* A joint over (origin, distance) puts the grouping attribute inside a
     statistic group, exercising the kernel's scatter path, not just the
     free-attribute fast path. *)
  let joints =
    Edb_select.Heuristic.select Edb_select.Heuristic.Composite rel
      ~attr1:F.origin ~attr2:F.distance ~budget
  in
  let flat =
    Entropydb_core.Summary.build ~solver_config:config.Config.solver rel
      ~joints
  in
  let n_cities = Edb_storage.Schema.domain_size schema F.origin in
  let query =
    Edb_storage.Predicate.of_alist ~arity
      [ (F.distance, Ranges.interval 5 45) ]
  in
  Printf.printf
    "groupby: %d rows, %d joint statistics, GROUP BY origin (%d values)\n%!"
    rows (List.length joints) n_cities;
  (* Naive path: what Summary's GROUP BY did before the batched
     kernel — one full restricted evaluation per group cell. *)
  let naive () =
    List.init n_cities (fun v ->
        ( [ v ],
          Entropydb_core.Summary.estimate flat
            (Edb_storage.Predicate.restrict query F.origin
               (Ranges.singleton v)) ))
  in
  let batched () =
    List.map
      (fun (key, (a : Entropydb_core.Summary.answer)) -> (key, a.est))
      (Entropydb_core.Summary.groups flat ~attrs:[ F.origin ] query)
  in
  let naive_cells = naive () in
  let batched_cells = batched () in
  let rel_err a b =
    let d = Float.abs (a -. b) in
    if d = 0. then 0. else d /. Float.max 1e-300 (Float.max (Float.abs a) (Float.abs b))
  in
  let max_rel =
    List.fold_left2
      (fun acc (ka, a) (kb, b) ->
        if ka <> kb then failwith "groupby: cell order mismatch";
        Float.max acc (rel_err a b))
      0. naive_cells batched_cells
  in
  if max_rel > 1e-9 then
    failwith
      (Printf.sprintf "groupby: batched vs naive disagreement %.3g" max_rel);
  (* A one-part build through the partitioning path must be bitwise the
     flat build: the COUNT answer and every GROUP BY cell's answer. *)
  let k1 =
    Edb_shard.Builder.build ~solver_config:config.Config.solver rel ~shards:1
      ~strategy:Edb_shard.Partition.Rows ~joints
  in
  let module S = Entropydb_core.Summary in
  if
    S.count flat query <> S.count k1 query
    || S.groups flat ~attrs:[ F.origin ] query
       <> S.groups k1 ~attrs:[ F.origin ] query
  then failwith "groupby: k=1 sharded differs from flat (not bitwise)";
  (* Timings. *)
  let time_iters iters f =
    let _, s =
      Timing.time (fun () ->
          for _ = 1 to iters do
            ignore (Sys.opaque_identity (f ()))
          done)
    in
    s /. float_of_int iters
  in
  let naive_s = time_iters naive_iters naive in
  let batched_s = time_iters batched_iters batched in
  let speedup = naive_s /. batched_s in
  let terms = Entropydb_core.Poly.num_terms (Entropydb_core.Summary.poly flat) in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Batched GROUP BY kernel (flights-fine, %d rows, %d terms, GROUP \
            BY origin = %d cells)"
           rows terms n_cities)
      ~headers:[ "metric"; "value" ]
      ~aligns:[ Table.Left; Table.Right ] ()
  in
  let add k v = Table.add_row table [ k; v ] in
  add "naive per-cell GROUP BY" (Printf.sprintf "%.3f ms" (naive_s *. 1e3));
  add "batched GROUP BY" (Printf.sprintf "%.3f ms" (batched_s *. 1e3));
  add "speedup" (Printf.sprintf "%.1fx" speedup);
  add "max rel err batched vs naive" (Printf.sprintf "%.3g" max_rel);
  add "k=1 sharded vs flat" "0 (bitwise, incl. variance)";
  extra_json :=
    [
      ("rows", Json.Int rows);
      ("group_values", Json.Int n_cities);
      ("terms", Json.Int terms);
      ("joint_statistics", Json.Int (List.length joints));
      ("naive_s", Json.Float naive_s);
      ("batched_s", Json.Float batched_s);
      ("speedup", Json.Float speedup);
      ("max_rel_err_batched_vs_naive", Json.Float max_rel);
      ("k1_sharded_bitwise", Json.Bool true);
    ];
  [ table ]

(* ------------------------------------------------------------------ *)
(* kernel: polynomial-kernel microbenchmark with fail-loud gates       *)
(* ------------------------------------------------------------------ *)

(* Measures the raw polynomial kernels underneath every answer path:
   ns/term for [Poly.eval_restricted], the batched GROUP BY kernel
   [Poly.eval_restricted_by_value] and the weighted pass
   [Poly.eval_weighted] (SUM's w pass; informational, no gate), seconds
   per solver sweep, and minor-heap allocation words per call (steady
   state, via [Gc.minor_words]).

   The numbers land in BENCH_kernel.json.  When the committed
   BENCH_kernel_baseline.json exists the experiment is a gate, not just a
   record:
   - allocation: [eval_restricted] must stay below EDB_KERNEL_ALLOC_CAP
     words/call (default 16 — room for the boxed float return and the
     timing loop, nothing per term/interval/attribute);
   - across a layout change (baseline "layout" differs from
     [Poly.layout]): the batched kernel must be >= EDB_KERNEL_MIN_SPEEDUP
     (default 5) faster per term than the recorded baseline;
   - same layout: eval, batched, and sweep times must not regress more
     than 20% vs the baseline.
   Without a baseline it bootstraps: records and prints, no gates. *)
let kernel config =
  let int_env name default =
    match Sys.getenv_opt name with
    | Some v -> ( match int_of_string_opt v with Some i -> i | None -> default)
    | None -> default
  in
  let float_env name default =
    match Sys.getenv_opt name with
    | Some v -> (
        match float_of_string_opt v with Some f -> f | None -> default)
    | None -> default
  in
  let rows = int_env "EDB_KERNEL_ROWS" (min config.Config.flights_rows 10_000) in
  let module F = Edb_datagen.Flights in
  let module Core = Entropydb_core in
  let rel = (F.generate ~rows ~seed:config.Config.seed ()).fine in
  let schema = Edb_storage.Relation.schema rel in
  let arity = Edb_storage.Schema.arity schema in
  let budget = List.hd config.Config.fig2b_budgets in
  (* Same shape as the groupby experiment: a joint over (origin, distance)
     puts the grouping attribute inside a statistic group, so the batched
     kernel exercises its scatter path and eval_restricted walks real
     projection intersections. *)
  let joints =
    Edb_select.Heuristic.select Edb_select.Heuristic.Composite rel
      ~attr1:F.origin ~attr2:F.distance ~budget
  in
  let flat =
    Core.Summary.build ~solver_config:config.Config.solver rel ~joints
  in
  let poly = Core.Summary.poly flat in
  let phi = Core.Poly.phi poly in
  let terms = Core.Poly.num_terms poly in
  let query =
    Edb_storage.Predicate.of_alist ~arity
      [ (F.distance, Ranges.interval 5 45) ]
  in
  let eval () = Core.Poly.eval_restricted poly query in
  (* The production GROUP BY path ([Summary.groups]) reuses one
     result buffer across cells, so the kernel is measured through the
     buffer-filling entry point; the AoS baseline had only the allocating
     call, which was likewise its production path. *)
  let byvalue_buf =
    Array.make (Edb_storage.Schema.domain_size schema F.origin) 0.
  in
  let byvalue () =
    Core.Poly.eval_restricted_by_value_into poly query ~attr:F.origin
      ~out:byvalue_buf;
    byvalue_buf
  in
  let groups () = Core.Summary.groups flat ~attrs:[ F.origin ] query in
  let n_cells = Edb_storage.Schema.domain_size schema F.origin in
  (* SUM(distance)'s w pass, with bin-midpoint weights as [Summary.sum]
     uses: once under [query], which restricts distance, and once with
     no WHERE clause, where the pass restricts distance to its whole
     domain itself. *)
  let midpoints =
    let d = Edb_storage.Schema.domain schema F.distance in
    Array.init
      (Edb_storage.Schema.domain_size schema F.distance)
      (Edb_storage.Domain.bin_midpoint d)
  in
  let weights = [ (F.distance, fun v -> midpoints.(v)) ] in
  let no_where = Edb_storage.Predicate.tautology arity in
  let weighted () = Core.Poly.eval_weighted poly query ~weights in
  let weighted_free () = Core.Poly.eval_weighted poly no_where ~weights in
  Printf.printf "kernel: %d rows, %d terms, layout %s\n%!" rows terms
    Core.Poly.layout;
  (* Timings: per-call seconds averaged over a fixed iteration count,
     minimum over a few repetitions — the min is robust against
     scheduler and GC interference on shared CI machines, which a
     single averaged run is not (observed swings of +-20%). *)
  let time_per_call iters f =
    ignore (Sys.opaque_identity (f ()));
    let best = ref infinity in
    for _ = 1 to 5 do
      let _, s =
        Timing.time (fun () ->
            for _ = 1 to iters do
              ignore (Sys.opaque_identity (f ()))
            done)
      in
      best := Float.min !best (s /. float_of_int iters)
    done;
    !best
  in
  let eval_iters = max 1 (int_env "EDB_KERNEL_ITERS" 3_000) in
  let eval_s = time_per_call eval_iters eval in
  let byvalue_s = time_per_call eval_iters byvalue in
  let groups_s = time_per_call (max 1 (eval_iters / 4)) groups in
  let weighted_s = time_per_call eval_iters weighted in
  let weighted_free_s = time_per_call eval_iters weighted_free in
  let ns_per_term s = s *. 1e9 /. float_of_int (max 1 terms) in
  let eval_ns = ns_per_term eval_s in
  let byvalue_ns = ns_per_term byvalue_s in
  let weighted_ns = ns_per_term weighted_s in
  let weighted_free_ns = ns_per_term weighted_free_s in
  (* Solver sweep time: a cold re-solve of the same Φ, capped sweeps. *)
  let sweep_config =
    {
      config.Config.solver with
      Core.Solver.max_sweeps = 5;
      Core.Solver.log_every = 0;
    }
  in
  let cold = Core.Poly.create phi in
  let sweep_report = Core.Solver.solve ~config:sweep_config cold in
  let sweep_s =
    sweep_report.Core.Solver.seconds
    /. float_of_int (max 1 sweep_report.Core.Solver.sweeps)
  in
  (* Steady-state minor-heap allocation per call. *)
  let words_per_call f =
    for _ = 1 to 32 do
      ignore (Sys.opaque_identity (f ()))
    done;
    let iters = 256 in
    let w0 = Gc.minor_words () in
    for _ = 1 to iters do
      ignore (Sys.opaque_identity (f ()))
    done;
    (Gc.minor_words () -. w0) /. float_of_int iters
  in
  let eval_words = words_per_call eval in
  let byvalue_words = words_per_call byvalue in
  let groups_words = words_per_call groups in
  let weighted_words = words_per_call weighted in
  let weighted_free_words = words_per_call weighted_free in
  (* Gates against the committed baseline. *)
  let baseline_path = "BENCH_kernel_baseline.json" in
  let baseline =
    if Sys.file_exists baseline_path then begin
      let text =
        In_channel.with_open_text baseline_path In_channel.input_all
      in
      match Json.of_string text with
      | Ok (Json.Obj kv) -> Some kv
      | Ok _ | Error _ ->
          failwith (Printf.sprintf "kernel: unreadable %s" baseline_path)
    end
    else None
  in
  let speedup_vs_baseline = ref None in
  (match baseline with
  | None ->
      Printf.printf
        "kernel: no %s — bootstrap record, gates skipped\n%!" baseline_path
  | Some kv ->
      let num name =
        match List.assoc_opt name kv with
        | Some (Json.Float x) -> x
        | Some (Json.Int i) -> float_of_int i
        | _ ->
            failwith
              (Printf.sprintf "kernel: %s lacks numeric %S" baseline_path name)
      in
      let base_layout =
        match List.assoc_opt "layout" kv with
        | Some (Json.Str s) -> s
        | _ -> "unknown"
      in
      let alloc_cap = float_env "EDB_KERNEL_ALLOC_CAP" 16. in
      if eval_words > alloc_cap then
        failwith
          (Printf.sprintf
             "kernel: eval_restricted allocates %.1f minor words/call \
              (cap %.1f) — the query path must not allocate"
             eval_words alloc_cap);
      if base_layout <> Core.Poly.layout then begin
        let min_speedup = float_env "EDB_KERNEL_MIN_SPEEDUP" 5. in
        let speedup = num "byvalue_ns_per_term" /. byvalue_ns in
        speedup_vs_baseline := Some speedup;
        if speedup < min_speedup then
          failwith
            (Printf.sprintf
               "kernel: batched kernel %.2fx vs %s baseline (%s), need >= \
                %.1fx"
               speedup base_layout baseline_path min_speedup)
      end
      else begin
        let regress name current =
          let base = num name in
          if current > base *. 1.2 then
            failwith
              (Printf.sprintf
                 "kernel: %s regressed %.3g -> %.3g (> 20%% vs %s)" name base
                 current baseline_path)
        in
        regress "eval_ns_per_term" eval_ns;
        regress "byvalue_ns_per_term" byvalue_ns;
        regress "sweep_s" sweep_s
      end);
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Polynomial kernel (flights-fine, %d rows, %d terms, layout %s)"
           rows terms Core.Poly.layout)
      ~headers:[ "metric"; "value" ]
      ~aligns:[ Table.Left; Table.Right ] ()
  in
  let add k v = Table.add_row table [ k; v ] in
  add "eval_restricted" (Printf.sprintf "%.1f us (%.2f ns/term)" (eval_s *. 1e6) eval_ns);
  add "eval_restricted_by_value"
    (Printf.sprintf "%.1f us (%.2f ns/term, %d cells)" (byvalue_s *. 1e6)
       byvalue_ns n_cells);
  add "Summary.groups" (Printf.sprintf "%.1f us" (groups_s *. 1e6));
  add "eval_weighted, summed attr restricted"
    (Printf.sprintf "%.1f us (%.2f ns/term)" (weighted_s *. 1e6) weighted_ns);
  add "eval_weighted, summed attr free"
    (Printf.sprintf "%.1f us (%.2f ns/term)" (weighted_free_s *. 1e6)
       weighted_free_ns);
  add "solver sweep" (Printf.sprintf "%.3f ms" (sweep_s *. 1e3));
  add "eval minor words/call" (Printf.sprintf "%.1f" eval_words);
  add "by_value minor words/call" (Printf.sprintf "%.1f" byvalue_words);
  add "groups minor words/call" (Printf.sprintf "%.1f" groups_words);
  add "weighted minor words/call (restricted, free)"
    (Printf.sprintf "%.1f, %.1f" weighted_words weighted_free_words);
  (match !speedup_vs_baseline with
  | Some s -> add "batched speedup vs baseline" (Printf.sprintf "%.1fx" s)
  | None -> ());
  extra_json :=
    [
      ("layout", Json.Str Core.Poly.layout);
      ("rows", Json.Int rows);
      ("terms", Json.Int terms);
      ("group_cells", Json.Int n_cells);
      ("domains", Json.Int (Parallel.default_domains ()));
      ("eval_us", Json.Float (eval_s *. 1e6));
      ("eval_ns_per_term", Json.Float eval_ns);
      ("byvalue_us", Json.Float (byvalue_s *. 1e6));
      ("byvalue_ns_per_term", Json.Float byvalue_ns);
      ("groups_us", Json.Float (groups_s *. 1e6));
      ("sweep_s", Json.Float sweep_s);
      ("solver_sweeps_measured", Json.Int sweep_report.Core.Solver.sweeps);
      ("eval_words_per_call", Json.Float eval_words);
      ("byvalue_words_per_call", Json.Float byvalue_words);
      ("groups_words_per_call", Json.Float groups_words);
      ("weighted_us", Json.Float (weighted_s *. 1e6));
      ("weighted_ns_per_term", Json.Float weighted_ns);
      ("weighted_words_per_call", Json.Float weighted_words);
      ("weighted_free_us", Json.Float (weighted_free_s *. 1e6));
      ("weighted_free_ns_per_term", Json.Float weighted_free_ns);
      ("weighted_free_words_per_call", Json.Float weighted_free_words);
      ( "speedup_vs_baseline",
        match !speedup_vs_baseline with
        | Some s -> Json.Float s
        | None -> Json.Null );
    ];
  [ table ]

(* ------------------------------------------------------------------ *)
(* check: the edb_check oracle battery as a budgeted experiment        *)
(* ------------------------------------------------------------------ *)

(* Runs the differential/metamorphic harness (lib/check) and records its
   throughput and worst exact-tier deviation.  Budget via EDB_CHECK_BUDGET
   (smoke | default | deep, default smoke).  Any finding is a correctness
   bug, so the experiment fails loud rather than writing a green JSON. *)
let check config =
  let budget =
    match Sys.getenv_opt "EDB_CHECK_BUDGET" with
    | None -> Edb_check.Sweep.Smoke
    | Some s -> (
        match Edb_check.Sweep.budget_of_string s with
        | Ok b -> b
        | Error e -> failwith ("EDB_CHECK_BUDGET: " ^ e))
  in
  let oracle_config =
    { Edb_check.Oracle.default with Edb_check.Oracle.server = true }
  in
  let outcome, wall_s =
    Timing.time (fun () ->
        Edb_check.Sweep.run ~config:oracle_config
          ~base_seed:config.Config.seed budget)
  in
  let num_findings = List.length outcome.Edb_check.Sweep.findings in
  let table =
    Table.create
      ~title:
        (Printf.sprintf "Correctness harness (budget %s, base seed %d)"
           (Edb_check.Sweep.budget_name budget)
           config.Config.seed)
      ~headers:[ "metric"; "value" ]
      ~aligns:[ Table.Left; Table.Right ] ()
  in
  let add k v = Table.add_row table [ k; v ] in
  add "cases" (string_of_int outcome.Edb_check.Sweep.cases);
  add "assertions" (string_of_int outcome.Edb_check.Sweep.checks_run);
  add "findings" (string_of_int num_findings);
  add "max exact sigma"
    (Printf.sprintf "%.2f" outcome.Edb_check.Sweep.max_exact_sigma);
  add "assertions / s"
    (Printf.sprintf "%.0f"
       (float_of_int outcome.Edb_check.Sweep.checks_run /. wall_s));
  extra_json :=
    [
      ("budget", Json.Str (Edb_check.Sweep.budget_name budget));
      ("outcome", Edb_check.Sweep.outcome_json outcome);
    ];
  if num_findings > 0 then (
    Edb_check.Sweep.print_outcome outcome;
    failwith
      (Printf.sprintf "check: %d correctness findings — see repro lines above"
         num_findings));
  [ table ]

(* ------------------------------------------------------------------ *)
(* obs: observability overhead and telemetry                           *)
(* ------------------------------------------------------------------ *)

(* Three numbers back edb_obs's contract, recorded to BENCH_obs.json so
   the trajectory is watchable across commits:
   (1) disabled-mode [with_span] cost on a real query body — the ratio
       the test suite bounds loosely is measured precisely here;
   (2) solver sweeps-to-tolerance from the [on_sweep] stream;
   (3) enabled-mode event volume over a query workload, exported as a
       sample Chrome trace (BENCH_obs_trace.json — loadable in
       chrome://tracing or ui.perfetto.dev). *)
let obs config =
  let module Obs = Edb_obs.Obs in
  let module Trace = Edb_obs.Trace in
  let rows = min config.Config.flights_rows 60_000 in
  let rel =
    (Edb_datagen.Flights.generate ~rows ~seed:config.Config.seed ()).coarse
  in
  let pairs =
    Edb_select.Pairs.select ~strategy:Edb_select.Pairs.By_cover ~budget:2 rel
  in
  let buckets = List.hd config.Config.fig2b_budgets in
  let joints =
    List.concat_map
      (fun (a, b) ->
        Edb_select.Heuristic.select Edb_select.Heuristic.Composite rel
          ~attr1:a ~attr2:b ~budget:buckets)
      pairs
  in
  (* (2) Build with the sweep-telemetry stream attached. *)
  let sweeps = ref [] in
  let summary, build_s =
    Timing.time (fun () ->
        Entropydb_core.Summary.build ~solver_config:config.Config.solver rel
          ~joints
          ~on_sweep:(fun st -> sweeps := st :: !sweeps))
  in
  let sweeps = List.rev !sweeps in
  let report = Entropydb_core.Summary.solver_report summary in
  (* Query pool: random conjunctive ranges over the selected pairs. *)
  let schema = Edb_storage.Relation.schema rel in
  let arity = Edb_storage.Schema.arity schema in
  let rng = Prng.create ~seed:(config.Config.seed + 57) () in
  let queries =
    List.init 64 (fun _ ->
        let a, b = List.nth pairs (Prng.int rng (List.length pairs)) in
        Edb_storage.Predicate.of_alist ~arity
          (List.map
             (fun attr ->
               let size = Edb_storage.Schema.domain_size schema attr in
               let lo = Prng.int rng size in
               let hi = min (size - 1) (lo + 1 + Prng.int rng (size / 2)) in
               (attr, Ranges.interval lo hi))
             [ a; b ]))
  in
  let run_workload () =
    List.iter (fun q -> ignore (Entropydb_core.Summary.estimate summary q))
      queries
  in
  (* (1) Disabled-span overhead on the real query body: the same
     workload bare vs with every estimate wrapped in a (disabled)
     span.  Best-of-5 of many repetitions each to shed scheduler
     noise. *)
  let was_enabled = Trace.enabled () in
  Trace.set_enabled false;
  let reps = 20 in
  let timed f =
    let t0 = Timing.now_s () in
    for _ = 1 to reps do
      f ()
    done;
    Timing.now_s () -. t0
  in
  let spanned_workload () =
    List.iter
      (fun q ->
        Obs.with_span "bench.query" (fun () ->
            ignore (Entropydb_core.Summary.estimate summary q)))
      queries
  in
  run_workload ();
  spanned_workload ();
  let best f = List.fold_left min infinity (List.init 5 (fun _ -> timed f)) in
  let bare_s = best (fun () -> run_workload ()) in
  let span_s = best (fun () -> spanned_workload ()) in
  let overhead = (span_s -. bare_s) /. bare_s in
  (* (3) Enabled tracing over the workload; export the sample trace. *)
  Trace.set_enabled true;
  Trace.clear ();
  run_workload ();
  let events = Trace.events () in
  let count name =
    List.length
      (List.filter (fun (e : Trace.event) -> e.Trace.name = name) events)
  in
  let poly_spans = count "poly.eval_restricted" in
  let trace_path = "BENCH_obs_trace.json" in
  Trace.write_file trace_path;
  let traced = Trace.total () and trace_dropped = Trace.dropped () in
  Trace.clear ();
  Trace.set_enabled was_enabled;
  let nq = List.length queries in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Observability (flights-coarse, %d rows, %d queries x %d reps)"
           rows nq reps)
      ~headers:[ "metric"; "value" ]
      ~aligns:[ Table.Left; Table.Right ] ()
  in
  let add k v = Table.add_row table [ k; v ] in
  add "build" (Printf.sprintf "%.2f s" build_s);
  add "solver sweeps" (string_of_int report.sweeps);
  add "solver converged" (string_of_bool report.converged);
  add "final dual"
    (match List.rev sweeps with
    | last :: _ -> Printf.sprintf "%.6g" last.Entropydb_core.Solver.dual
    | [] -> "-");
  add "bare workload" (Printf.sprintf "%.2f ms" (bare_s *. 1e3));
  add "disabled-span workload" (Printf.sprintf "%.2f ms" (span_s *. 1e3));
  add "disabled-span overhead" (Printf.sprintf "%+.2f %%" (overhead *. 100.));
  add "traced events" (string_of_int traced);
  add "trace dropped" (string_of_int trace_dropped);
  add "poly.eval spans" (string_of_int poly_spans);
  extra_json :=
    [
      ("rows", Json.Int rows);
      ("queries", Json.Int nq);
      ("reps", Json.Int reps);
      ("solver_sweeps", Json.Int report.sweeps);
      ("solver_converged", Json.Bool report.converged);
      ("solver_max_rel_error", Json.Float report.max_rel_error);
      ( "sweep_stats",
        Json.List
          (List.map
             (fun (st : Entropydb_core.Solver.sweep_stat) ->
               Json.Obj
                 [
                   ("sweep", Json.Int st.sweep);
                   ("dual", Json.Float st.dual);
                   ("max_rel_error", Json.Float st.sweep_max_rel_error);
                   ("max_step", Json.Float st.max_step);
                   ("elapsed_s", Json.Float st.elapsed_s);
                 ])
             sweeps) );
      ("bare_s", Json.Float bare_s);
      ("disabled_span_s", Json.Float span_s);
      ("disabled_span_overhead", Json.Float overhead);
      ("traced_events", Json.Int traced);
      ("trace_dropped", Json.Int trace_dropped);
      ("poly_eval_spans", Json.Int poly_spans);
      ("trace_artifact", Json.Str trace_path);
    ];
  [ table ]

(* ------------------------------------------------------------------ *)
(* Planner routing                                                     *)
(* ------------------------------------------------------------------ *)

(* Route distribution and error-model honesty of edb_plan over a target
   sweep.  Product-mode data with marginal-only statistics puts the
   generating distribution inside the MaxEnt family, so the summary's
   predicted variance is sound and realized errors must sit inside the
   predicted CIs — a violation is a bug, and the experiment fails loud.
   The sweep spans loose to tight targets so at least two distinct
   routes must appear. *)
let planner config =
  let module P = Edb_plan.Plan in
  let module E = Edb_plan.Estimator in
  let int_env name default =
    match Sys.getenv_opt name with
    | Some v -> ( match int_of_string_opt v with Some i -> i | None -> default)
    | None -> default
  in
  let rows = int_env "EDB_PLANNER_ROWS" 40_000 in
  let sizes = [ 8; 10; 6; 5 ] in
  let rel =
    Edb_datagen.Synthetic.generate ~sizes ~rows ~mode:Edb_datagen.Synthetic.Product
      ~seed:(config.Config.seed + 5)
  in
  let schema = Edb_storage.Relation.schema rel in
  (* Joint statistics keep the product distribution inside the family
     (they are consistent with independence) while making the summary
     cost more terms than the sample costs rows — so the cheap-to-
     expensive order is sample < summary < exact and loose targets can
     exercise every route. *)
  let joints =
    List.concat_map
      (fun (a, b) ->
        Edb_select.Heuristic.select Edb_select.Heuristic.Composite rel
          ~attr1:a ~attr2:b ~budget:60)
      [ (0, 1); (2, 3) ]
  in
  let summary =
    Entropydb_core.Summary.build ~solver_config:Edb_check.Case.quiet rel
      ~joints
  in
  let rng = Prng.create ~seed:(config.Config.seed + 6) () in
  let sample = Edb_sampling.Uniform.create rng ~rate:0.01 rel in
  let estimators =
    [ E.of_summary summary; E.of_sample sample; E.of_relation rel ]
  in
  let qrng = Prng.create ~seed:(config.Config.seed + 7) () in
  let queries =
    List.init 48 (fun _ -> Edb_check.Gen.random_predicate qrng schema)
  in
  let targets = [ "90:25"; "95:5"; "95:1"; "99:0.1:0.1" ] in
  Printf.printf
    "planner: %d rows, %d queries x %d targets, sample %s\n%!" rows
    (List.length queries) (List.length targets)
    (Edb_sampling.Sample.description sample);
  (* One record per (query, target): the routing decision, the chosen
     route's realized error against the exact scan, and its latency. *)
  let records =
    List.concat_map
      (fun target_s ->
        let target = P.target_of_string target_s in
        List.map
          (fun q ->
            let d = P.choose ~target estimators (P.Count q) in
            let a = P.chosen_answer d in
            let exact = float_of_int (Edb_storage.Exec.count rel q) in
            let sd = sqrt (Float.max 0. a.E.var) in
            let seconds =
              match d.P.chosen.P.evaluation with
              | Some ev -> ev.P.seconds
              | None -> 0.
            in
            let hw =
              match d.P.chosen.P.evaluation with
              | Some ev -> ev.P.half_width
              | None -> 0.
            in
            ( target_s,
              E.kind_name (E.kind d.P.chosen.P.estimator),
              a.E.est,
              sd,
              hw,
              Float.abs (a.E.est -. exact),
              seconds ))
          queries)
      targets
  in
  (* Error-model honesty, oracle-style: realized |error| within z = 6
     sigmas of the route's own predicted stddev (+1 row of slack against
     degenerate zero-variance corners, +3 rows absolute). *)
  List.iter
    (fun (target_s, route, est, sd, _, err, _) ->
      if err > (6. *. (sd +. 1.)) +. 3. then
        failwith
          (Printf.sprintf
             "planner CI violation: route %s target %s estimate %.6g is \
              %.6g off at stddev %.6g"
             route target_s est err sd))
    records;
  let routes =
    List.sort_uniq compare (List.map (fun (_, r, _, _, _, _, _) -> r) records)
  in
  if List.length routes < 2 then
    failwith
      (Printf.sprintf "planner: only route [%s] ever chosen — sweep is vacuous"
         (String.concat " " routes));
  let pct p xs =
    match List.sort Float.compare xs with
    | [] -> 0.
    | sorted ->
        let arr = Array.of_list sorted in
        let idx =
          min (Array.length arr - 1)
            (int_of_float (p *. float_of_int (Array.length arr - 1)))
        in
        arr.(idx)
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Planner routing (product data, %d rows, %d queries x %d targets)"
           rows (List.length queries) (List.length targets))
      ~headers:
        [ "route"; "chosen"; "p50 us"; "p99 us"; "mean |err|"; "mean ±hw" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right;
                Table.Right; Table.Right ]
      ()
  in
  List.iter
    (fun route ->
      let mine =
        List.filter (fun (_, r, _, _, _, _, _) -> r = route) records
      in
      let n = List.length mine in
      let lats = List.map (fun (_, _, _, _, _, _, s) -> s *. 1e6) mine in
      let mean f =
        List.fold_left (fun acc x -> acc +. f x) 0. mine /. float_of_int n
      in
      Table.add_row table
        [
          route;
          string_of_int n;
          Table.cell_float ~prec:1 (pct 0.50 lats);
          Table.cell_float ~prec:1 (pct 0.99 lats);
          Table.cell_float ~prec:3 (mean (fun (_, _, _, _, _, e, _) -> e));
          Table.cell_float ~prec:3 (mean (fun (_, _, _, _, h, _, _) -> h));
        ])
    routes;
  extra_json :=
    [
      ( "route_counts",
        Json.Obj
          (List.map
             (fun route ->
               ( route,
                 Json.Int
                   (List.length
                      (List.filter
                         (fun (_, r, _, _, _, _, _) -> r = route)
                         records)) ))
             routes) );
      ( "scatter",
        Json.List
          (List.map
             (fun (target_s, route, est, sd, hw, err, seconds) ->
               Json.Obj
                 [
                   ("target", Json.Str target_s);
                   ("route", Json.Str route);
                   ("estimate", Json.Float est);
                   ("stddev", Json.Float sd);
                   ("predicted_half_width", Json.Float hw);
                   ("realized_abs_error", Json.Float err);
                   ("latency_s", Json.Float seconds);
                 ])
             records) );
    ];
  [ table ]

(* ------------------------------------------------------------------ *)
(* ingest: incremental maintenance vs full rebuild                     *)
(* ------------------------------------------------------------------ *)

(* Streams batches into a base summary two ways — Ingest.append
   (delta-Φ + warm-started re-solve) and a cold rebuild of the growing
   union — and records wall time and solver sweeps for each.  The
   subsystem's whole claim is quantitative, so the experiment fails
   loud if incremental maintenance does not beat the rebuild on wall
   time or the warm start does not save solver sweeps. *)
let ingest config =
  let module St = Edb_storage in
  let open Entropydb_core in
  let sizes = [ 12; 10; 8; 6 ] in
  let arity = List.length sizes in
  let schema =
    St.Schema.create
      (List.mapi
         (fun i n ->
           St.Schema.attr
             (Printf.sprintf "a%d" i)
             (St.Domain.int_bins ~lo:0 ~hi:(n - 1) ~width:1))
         sizes)
  in
  let base_rows =
    match config.Config.scale with
    | Config.Small -> 60_000
    | Config.Full -> 400_000
  in
  let batch_rows = base_rows / 100 in
  let num_batches = 4 in
  let rng = Prng.create ~seed:config.Config.seed () in
  (* Correlated columns (a1 tracks a0, a2 is skewed) make the 2D joints
     informative, so a cold solve genuinely works for its α — the regime
     where warm-starting has something to save. *)
  let random_rel rows =
    let b = St.Relation.builder ~capacity:rows schema in
    for _ = 1 to rows do
      let a0 = Prng.int rng 12 in
      let a1 = ((a0 * 10 / 12) + Prng.int rng 3) mod 10 in
      let a2 = min (Prng.int rng 8) (Prng.int rng 8) in
      let a3 = Prng.int rng 6 in
      St.Relation.add_row b [| a0; a1; a2; a3 |]
    done;
    St.Relation.build b
  in
  let concat a b =
    let bld =
      St.Relation.builder
        ~capacity:(St.Relation.cardinality a + St.Relation.cardinality b)
        schema
    in
    St.Relation.iteri (fun _ r -> St.Relation.add_row bld (Array.copy r)) a;
    St.Relation.iteri (fun _ r -> St.Relation.add_row bld (Array.copy r)) b;
    St.Relation.build bld
  in
  let joints =
    [
      St.Predicate.of_alist ~arity
        [ (0, Ranges.interval 0 5); (1, Ranges.interval 0 4) ];
      St.Predicate.of_alist ~arity
        [ (0, Ranges.interval 6 11); (1, Ranges.interval 5 9) ];
    ]
  in
  let quiet = { Solver.default_config with Solver.log_every = 0 } in
  let base = random_rel base_rows in
  let batches = List.init num_batches (fun _ -> random_rel batch_rows) in
  Printf.printf "[ingest] base %d rows, %d batches x %d rows\n%!" base_rows
    num_batches batch_rows;
  let s0, build_s =
    Timing.time (fun () -> Summary.build ~solver_config:quiet base ~joints)
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Incremental ingest vs full rebuild (base %d rows, cold build \
            %.2fs)"
           base_rows build_s)
      ~headers:
        [
          "batch"; "rows"; "append ms"; "warm sweeps"; "rebuild ms";
          "cold sweeps"; "speedup";
        ]
      ~aligns:
        [
          Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Right;
        ]
      ()
  in
  let inc_wall = ref 0. and reb_wall = ref 0. in
  let warm_sweeps = ref 0 and cold_sweeps = ref 0 in
  let rec stream i summary union rebuilt = function
    | [] -> (summary, rebuilt)
    | batch :: rest ->
        let (summary', stats), dt_inc =
          Timing.time (fun () ->
              Edb_ingest.Ingest.append_with_stats ~solver_config:quiet
                ~source:(Printf.sprintf "batch-%d" i)
                summary batch)
        in
        let union' = concat union batch in
        let rebuilt', dt_reb =
          Timing.time (fun () ->
              Summary.build ~solver_config:quiet union' ~joints)
        in
        let cold = Summary.solver_report rebuilt' in
        if not (stats.Edb_ingest.Ingest.converged && cold.Solver.converged)
        then failwith "ingest: a solve failed to converge";
        inc_wall := !inc_wall +. dt_inc;
        reb_wall := !reb_wall +. dt_reb;
        warm_sweeps := !warm_sweeps + stats.Edb_ingest.Ingest.sweeps;
        cold_sweeps := !cold_sweeps + cold.Solver.sweeps;
        Table.add_row table
          [
            string_of_int i;
            string_of_int (St.Relation.cardinality batch);
            Printf.sprintf "%.1f" (dt_inc *. 1e3);
            string_of_int stats.Edb_ingest.Ingest.sweeps;
            Printf.sprintf "%.1f" (dt_reb *. 1e3);
            string_of_int cold.Solver.sweeps;
            Printf.sprintf "%.1fx" (dt_reb /. dt_inc);
          ];
        stream (i + 1) summary' union' rebuilt' rest
  in
  let final_inc, final_reb = stream 1 s0 base s0 batches in
  (* The two maintenance paths must agree on answers, not just cost. *)
  let probes =
    List.init 32 (fun k ->
        St.Predicate.of_alist ~arity
          [
            (0, Ranges.interval 0 (k mod 12));
            (1, Ranges.interval (k mod 5) 9);
            (2, Ranges.interval 0 (k mod 8));
          ])
  in
  let max_rel =
    List.fold_left
      (fun acc q ->
        let a = Summary.estimate final_inc q
        and b = Summary.estimate final_reb q in
        Float.max acc (Float.abs (a -. b) /. Float.max 1. (Float.abs b)))
      0. probes
  in
  Table.add_row table
    [
      "total"; string_of_int (num_batches * batch_rows);
      Printf.sprintf "%.1f" (!inc_wall *. 1e3);
      string_of_int !warm_sweeps;
      Printf.sprintf "%.1f" (!reb_wall *. 1e3);
      string_of_int !cold_sweeps;
      Printf.sprintf "%.1fx" (!reb_wall /. !inc_wall);
    ];
  extra_json :=
    [
      ("base_rows", Json.Int base_rows);
      ("batch_rows", Json.Int batch_rows);
      ("num_batches", Json.Int num_batches);
      ("base_build_s", Json.Float build_s);
      ("incremental_wall_s", Json.Float !inc_wall);
      ("rebuild_wall_s", Json.Float !reb_wall);
      ("wall_speedup", Json.Float (!reb_wall /. !inc_wall));
      ("warm_sweeps", Json.Int !warm_sweeps);
      ("cold_sweeps", Json.Int !cold_sweeps);
      ("max_rel_diff_vs_rebuild", Json.Float max_rel);
      ( "journal_batches",
        Json.Int (Journal.batches (Summary.journal final_inc)) );
    ];
  if max_rel > 0.05 then
    failwith
      (Printf.sprintf "ingest: estimates drifted from rebuild (max rel %.3g)"
         max_rel);
  if !inc_wall >= !reb_wall then
    failwith
      (Printf.sprintf
         "ingest: incremental maintenance (%.3fs) did not beat the rebuild \
          (%.3fs)"
         !inc_wall !reb_wall);
  if !warm_sweeps >= !cold_sweeps then
    failwith
      (Printf.sprintf
         "ingest: warm starts used %d sweeps vs %d cold — warm-starting \
          saved nothing"
         !warm_sweeps !cold_sweeps);
  [ table ]

(* ------------------------------------------------------------------ *)
(* Thousand-summary catalog residency                                  *)
(* ------------------------------------------------------------------ *)

(* The summary file's contract is that [Serialize.load] costs
   O(header + manifest), independent of the body.  Prove it with a
   thousand small files plus one deliberately fat one: open-latency
   p50/p99 over the small fleet, and a fail-loud guard that the fat
   file (several times the body bytes) does not open proportionally
   slower.  Then run a byte-budgeted catalog over the whole fleet at a
   budget that keeps only a few dozen resident and measure steady-state
   query latency while evictions and transparent reopens churn
   underneath — every answer checked bitwise against the heap summary
   it was built from. *)
let catalog config =
  let module St = Edb_storage in
  let module Catalog = Edb_server.Catalog in
  let open Entropydb_core in
  let n_files =
    try int_of_string (Sys.getenv "EDB_CATALOG_FILES") with Not_found -> 1000
  in
  let accesses =
    try int_of_string (Sys.getenv "EDB_CATALOG_ACCESSES")
    with Not_found -> 4000
  in
  let rng = Prng.create ~seed:config.Config.seed () in
  let make_schema sizes =
    St.Schema.create
      (List.mapi
         (fun i n ->
           St.Schema.attr
             (Printf.sprintf "a%d" i)
             (St.Domain.int_bins ~lo:0 ~hi:(n - 1) ~width:1))
         sizes)
  in
  let make_rel ~seed sizes rows =
    let schema = make_schema sizes in
    let rng = Prng.create ~seed () in
    let b = St.Relation.builder ~capacity:rows schema in
    for _ = 1 to rows do
      St.Relation.add_row b
        (Array.init (List.length sizes) (fun i ->
             Prng.int rng (St.Schema.domain_size schema i)))
    done;
    St.Relation.build b
  in
  let solver_config = { Solver.default_config with Solver.log_every = 0 } in
  let small_seeds = [| 31; 32; 33; 34 |] in
  Printf.printf "catalog: building %d seed summaries + 1 fat summary...\n%!"
    (Array.length small_seeds);
  let small_summaries =
    Array.map
      (fun seed ->
        let rel = make_rel ~seed [ 6; 5; 4 ] 400 in
        let joints =
          [
            St.Predicate.of_alist ~arity:3
              [ (0, Ranges.interval 0 2); (1, Ranges.interval 1 3) ];
            St.Predicate.of_alist ~arity:3
              [ (0, Ranges.interval 3 5); (1, Ranges.interval 0 1) ];
          ]
        in
        Summary.build ~solver_config rel ~joints)
      small_seeds
  in
  let fat_summary =
    let sizes = [ 14; 12; 10; 8 ] in
    let rel = make_rel ~seed:99 sizes 4000 in
    let joints =
      List.concat_map
        (fun (a, b) ->
          Edb_select.Heuristic.select Edb_select.Heuristic.Composite rel
            ~attr1:a ~attr2:b ~budget:24)
        [ (0, 1); (1, 2); (2, 3); (0, 3) ]
    in
    Summary.build ~solver_config rel ~joints
  in
  let dir = Filename.temp_file "edb-bench-catalog" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
  @@ fun () ->
  Printf.printf "catalog: writing %d summary files...\n%!" n_files;
  let paths =
    Array.init n_files (fun i ->
        let path = Filename.concat dir (Printf.sprintf "sum-%04d.summary" i) in
        Serialize.save small_summaries.(i mod Array.length small_summaries) path;
        path)
  in
  let fat_path = Filename.concat dir "fat.summary" in
  Serialize.save fat_summary fat_path;
  let small_bytes = (Unix.stat paths.(0)).Unix.st_size in
  let fat_bytes = (Unix.stat fat_path).Unix.st_size in
  Printf.printf "catalog: small file %d B, fat file %d B (%.1fx)\n%!"
    small_bytes fat_bytes
    (float_of_int fat_bytes /. float_of_int small_bytes);
  (* Raw open latency: every small file once, cold-ish; then the fat
     file repeatedly. *)
  let time_open path =
    let t0 = Timing.now_s () in
    let m = Serialize.load path in
    let dt = Timing.now_s () -. t0 in
    ignore (Sys.opaque_identity (Summary.cardinality m));
    dt *. 1e6
  in
  let small_opens = Array.to_list (Array.map time_open paths) in
  let fat_opens = List.init 200 (fun _ -> time_open fat_path) in
  let pct p xs =
    match List.sort Float.compare xs with
    | [] -> 0.
    | sorted ->
        let arr = Array.of_list sorted in
        arr.(min (Array.length arr - 1)
               (int_of_float (p *. float_of_int (Array.length arr - 1))))
  in
  let open_p50 = pct 0.50 small_opens and open_p99 = pct 0.99 small_opens in
  (* The reopen split: what a transparent reopen pays between a catalog
     miss and its first answer (open, checksum-and-range pass, the first
     COUNT), and what eviction pays, one step at a time over the small
     fleet.  Nanosecond clock: several steps take a microsecond or two. *)
  let split_q = St.Predicate.of_alist ~arity:3 [ (0, Ranges.interval 1 3) ] in
  let split = Array.make_matrix 4 n_files 0. in
  Array.iteri
    (fun i path ->
      let step k f =
        let t0 = Monotonic_clock.now () in
        let r = f () in
        split.(k).(i) <-
          Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e3;
        r
      in
      let m = step 0 (fun () -> Serialize.load path) in
      step 1 (fun () -> Summary.verify m);
      ignore (Sys.opaque_identity (step 2 (fun () -> Summary.count m split_q)));
      step 3 (fun () -> Summary.release_pages m))
    paths;
  let split_p50 = Array.map (fun xs -> pct 0.50 (Array.to_list xs)) split in
  let split_names =
    [|
      ("Serialize.load", "open_file");
      ("Summary.verify", "verify");
      ("first Summary.count", "first_count");
      ("Summary.release_pages", "release_pages");
    |]
  in
  let fat_p50 = pct 0.50 fat_opens in
  (* Byte-budgeted catalog over the fleet: keep ~24 small summaries
     resident out of n_files, query random names, verify bitwise. *)
  let budget = 24 * small_bytes in
  let cat =
    Catalog.create ~capacity:(n_files * 2) ~budget_bytes:budget ()
  in
  Array.iteri
    (fun i path ->
      match
        Catalog.load cat ~name:(Printf.sprintf "sum-%04d" i) ~path
      with
      | Ok _ -> ()
      | Error m -> failwith ("catalog: load failed: " ^ m))
    paths;
  let queries =
    Array.init 32 (fun _ ->
        let lo = Prng.int rng 4 in
        let hi = lo + Prng.int rng (6 - lo) in
        St.Predicate.of_alist ~arity:3 [ (0, Ranges.interval lo hi) ])
  in
  let expected =
    Array.map
      (fun s -> Array.map (fun q -> Summary.estimate s q) queries)
      small_summaries
  in
  let wrong = ref 0 in
  let access_lat = ref [] in
  for _ = 1 to accesses do
    let i = Prng.int rng n_files in
    let qi = Prng.int rng (Array.length queries) in
    let t0 = Timing.now_s () in
    (match
       Catalog.with_entry cat
         (Printf.sprintf "sum-%04d" i)
         (fun e -> Summary.estimate e.Catalog.summary queries.(qi))
     with
    | Ok v ->
        if v <> expected.(i mod Array.length small_summaries).(qi) then
          incr wrong
    | Error m -> failwith ("catalog: query failed: " ^ m));
    access_lat := ((Timing.now_s () -. t0) *. 1e6) :: !access_lat
  done;
  let stats = Catalog.stats cat in
  let q_p50 = pct 0.50 !access_lat and q_p99 = pct 0.99 !access_lat in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Catalog residency (%d summary files, budget %d B = %d summaries)"
           n_files budget (budget / small_bytes))
      ~headers:[ "metric"; "value" ]
      ~aligns:[ Table.Left; Table.Right ] ()
  in
  let add k v = Table.add_row table [ k; v ] in
  add "small file size" (Printf.sprintf "%d B" small_bytes);
  add "fat file size"
    (Printf.sprintf "%d B (%.1fx)" fat_bytes
       (float_of_int fat_bytes /. float_of_int small_bytes));
  add "open p50" (Printf.sprintf "%.1f us" open_p50);
  add "open p99" (Printf.sprintf "%.1f us" open_p99);
  Array.iteri
    (fun k (label, _) ->
      add ("reopen p50: " ^ label) (Printf.sprintf "%.1f us" split_p50.(k)))
    split_names;
  add "fat open p50" (Printf.sprintf "%.1f us" fat_p50);
  add "accesses" (string_of_int accesses);
  add "wrong answers" (string_of_int !wrong);
  add "access p50" (Printf.sprintf "%.1f us" q_p50);
  add "access p99" (Printf.sprintf "%.1f us" q_p99);
  add "resident" (string_of_int stats.Catalog.resident);
  add "resident bytes"
    (Printf.sprintf "%d / %d" stats.Catalog.resident_bytes budget);
  add "evictions" (string_of_int stats.Catalog.evictions);
  add "reopens" (string_of_int stats.Catalog.reopens);
  extra_json :=
    [
      ("n_files", Json.Int n_files);
      ("small_bytes", Json.Int small_bytes);
      ("fat_bytes", Json.Int fat_bytes);
      ("open_p50_us", Json.Float open_p50);
      ("open_p99_us", Json.Float open_p99);
      ("fat_open_p50_us", Json.Float fat_p50);
    ]
    @ Array.to_list
        (Array.mapi
           (fun k (_, key) ->
             ("reopen_" ^ key ^ "_p50_us", Json.Float split_p50.(k)))
           split_names)
    @ [
      ("budget_bytes", Json.Int budget);
      ("accesses", Json.Int accesses);
      ("wrong_answers", Json.Int !wrong);
      ("access_p50_us", Json.Float q_p50);
      ("access_p99_us", Json.Float q_p99);
      ("resident", Json.Int stats.Catalog.resident);
      ("resident_bytes", Json.Int stats.Catalog.resident_bytes);
      ("evictions", Json.Int stats.Catalog.evictions);
      ("reopens", Json.Int stats.Catalog.reopens);
    ];
  if !wrong > 0 then
    failwith
      (Printf.sprintf "catalog: %d answers differed from the heap summary"
         !wrong);
  if stats.Catalog.reopens = 0 then
    failwith
      "catalog: no transparent reopens — the budget never evicted, sweep \
       is vacuous";
  if stats.Catalog.resident_bytes > budget then
    failwith
      (Printf.sprintf "catalog: resident %d B exceeds budget %d B at rest"
         stats.Catalog.resident_bytes budget);
  (* The O(1)-open guard: a body ~10x bigger must not open ~10x slower.
     Generous slack (4x + 1 ms) absorbs scheduler noise while still
     catching any body-proportional read sneaking into open_file. *)
  if fat_bytes > 4 * small_bytes && fat_p50 > (4. *. open_p50) +. 1000. then
    failwith
      (Printf.sprintf
         "catalog: open latency scales with body size (small p50 %.1f us, \
          fat p50 %.1f us for %.1fx the bytes)"
         open_p50 fat_p50
         (float_of_int fat_bytes /. float_of_int small_bytes));
  [ table ]

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let experiments config =
  [
    ("fig2b", fun () -> Figures.fig2b config);
    ("fig3", fun () -> Figures.fig3 config);
    ("fig4", fun () -> Figures.fig4 config);
    ("fig5", fun () -> Figures.fig5 (get_lab config));
    ("fig6", fun () -> Figures.fig6 (get_lab config));
    ("fig7", fun () -> Figures.fig7 config);
    ("fig8", fun () -> Figures.fig8 (get_lab config));
    ("compression", fun () -> Figures.compression config);
    ("ablation", fun () -> Figures.ablation config);
    ("hierarchy", fun () -> Figures.hierarchy config);
    ("costs", fun () -> Figures.build_costs (get_lab config));
    ("latency", fun () -> latency config);
    ("loadgen", fun () -> loadgen config);
    ("shardscale", fun () -> shardscale config);
    ("groupby", fun () -> groupby config);
    ("kernel", fun () -> kernel config);
    ("obs", fun () -> obs config);
    ("planner", fun () -> planner config);
    ("ingest", fun () -> ingest config);
    ("catalog", fun () -> catalog config);
    ("check", fun () -> check config);
  ]

let () =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some Logs.Info);
  let config = Config.of_env () in
  let available = experiments config in
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst available
  in
  Printf.printf "EntropyDB benchmark harness (scale=%s, seed=%d)\n"
    (Config.scale_name config) config.Config.seed;
  let t0 = Timing.now_s () in
  List.iter
    (fun name ->
      match List.assoc_opt name available with
      | None ->
          Printf.eprintf "unknown experiment %s (available: %s)\n" name
            (String.concat " " (List.map fst available));
          exit 1
      | Some run ->
          Printf.printf "\n================ %s ================\n%!" name;
          extra_json := [];
          let tables, dt = Timing.time run in
          print_tables tables;
          let json_path = Printf.sprintf "BENCH_%s.json" name in
          Json.write_file json_path
            (Json.Obj
               ([
                  ("experiment", Json.Str name);
                  ("scale", Json.Str (Config.scale_name config));
                  ("seed", Json.Int config.Config.seed);
                  ("wall_s", Json.Float dt);
                  ("tables", Json.List (List.map Table.to_json tables));
                ]
               @ !extra_json));
          Printf.printf "[%s done in %.1fs; wrote %s]\n%!" name dt json_path)
    requested;
  Printf.printf "\nTotal: %.1fs\n" (Timing.now_s () -. t0)
