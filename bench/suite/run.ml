(* One run of one workload: set up (five times, for a steady set-up
   time), drive the daemon for the measured window with tracing off,
   verify every answer, and with [trace] replay the stream in-process
   for the per-layer numbers. *)

module Json = Edb_util.Json

let now = Drive.now

type t = {
  workload : string;
  seed : int;
  started : float;  (** Unix time, to order runs for pairing *)
  warmup : float;
  duration : float;
  attempted : int;
  failed : int;  (** transport and protocol failures plus wrong answers *)
  mismatches : int;  (** replay responses differing from Handler.handle *)
  metrics : (string * float) list;
  samples : int;  (** latency samples behind p50/p99 *)
  notes : string list;  (** failure messages and measurement warnings *)
}

let correct r = r.failed = 0 && r.mismatches = 0

let setups = 5

(* Work directories live under the current directory (the checkout when
   run from its root), never elsewhere. *)
let work_root = ".suite-run"

(* The daemon's side of set-up: spawn it and LOAD every summary. *)
let serve ~server ~dir (files : Workload.files) =
  let socket = Filename.concat dir "s" in
  let args =
    match files.Workload.budget with
    | Some b -> [ "--catalog-bytes"; string_of_int b ]
    | None -> []
  in
  let daemon =
    Daemon.spawn ~server ~socket ~log:(Filename.concat dir "server.log") args
  in
  match Conn.connect socket with
  | Error m -> failwith ("connect: " ^ m)
  | Ok c ->
      Fun.protect
        ~finally:(fun () -> Conn.close c)
        (fun () ->
          List.iter
            (fun (name, path) ->
              let r =
                Conn.call c
                  (Edb_server.Protocol.print_request
                     (Edb_server.Protocol.Load { name; path }))
              in
              if not r.Conn.ok then
                failwith (Printf.sprintf "LOAD %s: %s" name r.Conn.payload))
            files.Workload.loads);
      daemon

let set_up w ~server ~seed ~dir =
  Files.remove dir;
  Files.mkdir_p dir;
  let t0 = now () in
  let files = Workload.write_files w ~seed ~dir in
  let daemon = serve ~server ~dir files in
  (now () -. t0, files, daemon)

let ratio a b = if b = 0. then 0. else a /. b

(* Throughput and latency are taken per slice of the window, and the run
   reports its best slice: the highest throughput and the lowest
   percentiles.  Co-tenants of a shared virtual machine slow its CPUs by
   up to 2x for seconds at a time, and only ever slow them, so the best
   slice is the cleanest reading of the code itself (the rule timeit
   uses).  Slices last at least a second and hold at least 10,000
   requests, so each slice's p99 rests on 100 samples beyond it. *)
let best_slice ~seconds (r : Drive.result) =
  let count =
    max 1 (min (int_of_float seconds) (Stats.Samples.length r.Drive.latency / 10_000))
  in
  let slices =
    Stats.slices ~count ~seconds ~at:r.Drive.sent r.Drive.latency
    |> Array.to_list |> List.map Stats.Samples.sorted
  in
  let width = seconds /. float_of_int count in
  let best pick f = List.fold_left (fun a s -> pick a (f s)) (f (List.hd slices)) slices in
  [
    ("rps", best Float.max (fun s -> float_of_int (Array.length s) /. width));
    ("p50_us", best Float.min (fun s -> Stats.percentile s 0.5) *. 1e6);
    ("p99_us", best Float.min (fun s -> Stats.percentile s 0.99) *. 1e6);
  ]

(* Exact counters over the measured window, from STATS deltas. *)
let stats_metrics (r : Drive.result) =
  let d key =
    let get l = Option.value (List.assoc_opt key l) ~default:0. in
    get r.Drive.after -. get r.Drive.before
  in
  let requests = d "requests" in
  [
    ("server.batch_mean", ratio (d "obs_server_batch_requests") (d "obs_server_batches"));
    ( "server.coalesce_ratio",
      ratio (d "obs_server_coalesce_hits") (d "obs_server_batch_requests") );
    ("cache.hit_ratio", ratio (d "obs_cache.hits") (d "obs_cache.lookups"));
    ("kernel.evals_per_req", ratio (d "obs_poly.evals" +. d "obs_mapped.evals") requests);
    ("catalog.reopens_per_req", ratio (d "catalog_reopens") requests);
    ("catalog.evictions_per_req", ratio (d "catalog_evictions") requests);
  ]

(* The traced replay and the in-process measurements, after the daemon
   has stopped.  [pristine] is the fleet's [live] file before any
   REFRESH.  Returns the metrics and the replay's mismatch count. *)
let replay_metrics (w : Workload.t) ~seed ~dir ~trace_file ~note
    (files : Workload.files) ~pristine (r : Drive.result) =
  let rdir = Filename.concat dir "replay" in
  Files.mkdir_p rdir;
  (* Private copies of [live]: REFRESH rewrites the file it was loaded
     from. *)
  let loads tag =
    List.map
      (fun (name, path) ->
        match pristine with
        | Some p when name = "live" ->
            let copy = Filename.concat rdir (Printf.sprintf "live.%s.v3" tag) in
            Files.copy p copy;
            (name, copy)
        | _ -> (name, path))
      files.Workload.loads
  in
  let budget = files.Workload.budget in
  let reference = (Check.twin ?budget (loads "reference")).Check.catalog in
  let traced = (Check.twin ?budget (loads "traced")).Check.catalog in
  let n = max 1 (min w.Workload.replay (Stats.Samples.length r.Drive.latency)) in
  let rp =
    Replay.run ~reference ~traced ?trace_file (Workload.replay_lines w ~seed files n)
  in
  if rp.Replay.coverage < 0.9 || rp.Replay.coverage > 1.1 then
    note (Printf.sprintf "trace coverage %.3f outside [0.9, 1.1]" rp.Replay.coverage);
  if rp.Replay.dropped > 0 then
    note (Printf.sprintf "%d trace events dropped" rp.Replay.dropped);
  if rp.Replay.mismatches > 0 then
    note
      (Printf.sprintf "%d replayed responses differ from Handler.handle"
         rp.Replay.mismatches);
  let self s = Option.value (List.assoc_opt s rp.Replay.self_ns) ~default:0. in
  let summary, batch =
    match (files.Workload.live, pristine) with
    | Some (_, batch), Some p -> (p, batch)
    | _ -> (snd (List.hd files.Workload.loads), Workload.flights_batch w ~seed ~dir:rdir)
  in
  let p99 samples = Stats.percentile (Stats.Samples.sorted samples) 0.99 in
  ( [
      (* A closed loop's mean latency, per request in flight, is the
         daemon's whole time per request (Little's law); the handler's
         share of it is the replay's. *)
      ( "server.transport_us",
        (Stats.Samples.sum r.Drive.latency
         /. float_of_int (max 1 (Stats.Samples.length r.Drive.latency))
         *. 1e6 /. float_of_int w.Workload.depth)
        -. rp.Replay.inproc_us );
      ("catalog.open_us", Replay.open_us (loads "open"));
      ("protocol.parse_ns", self "protocol.parse");
      ("catalog.pin_ns", self "catalog.pin");
      ("query.compile_ns", self "query.compile");
      ("cache.estimate_ns", self "cache.estimate");
      ("kernel.stddev_ns", self "kernel.stddev");
      ("handler.format_ns", self "handler.format");
      ("protocol.render_ns", self "protocol.render");
      ("handler.handle_ns", rp.Replay.handle_ns);
      ("handler.minor_words_per_req", rp.Replay.minor_words);
      ("ingest.refresh_ms", Replay.refresh_ms ~dir:rdir ~summary ~batch);
      ("loadgen.lag_p99_us", p99 r.Drive.lag *. 1e6);
      ("trace.coverage", rp.Replay.coverage);
      ("trace.overhead_frac", rp.Replay.overhead_frac);
    ],
    rp.Replay.mismatches )

let run ~server ~(w : Workload.t) ~seed ~warmup ~seconds ~trace ~trace_file =
  let started = Unix.gettimeofday () in
  let dir = Printf.sprintf "%s/%d-%s" work_root (Unix.getpid ()) w.Workload.name in
  Fun.protect
    ~finally:(fun () ->
      Daemon.stop_all ();
      Files.remove dir;
      try Unix.rmdir work_root with Unix.Unix_error _ -> ())
  @@ fun () ->
  let times = ref [] in
  let rec repeat k =
    let dt, files, daemon = set_up w ~server ~seed ~dir in
    times := dt :: !times;
    if k < setups then begin
      Daemon.stop daemon;
      repeat (k + 1)
    end
    else (files, daemon)
  in
  let files, daemon = repeat 1 in
  let socket = daemon.Daemon.socket in
  let pristine =
    Option.map
      (fun (live, _) ->
        let p = Filename.concat dir "live.orig.v3" in
        Files.copy live p;
        p)
      files.Workload.live
  in
  let check =
    Check.create
      (Check.twin (List.filter (fun (n, _) -> n <> "live") files.Workload.loads))
  in
  Check.prepare check (Workload.replay_lines w ~seed files w.Workload.replay);
  let result =
    match Conn.connect socket with
    | Error m -> failwith ("connect: " ^ m)
    | Ok conn ->
        Affinity.pin_self Affinity.Server_cpu;
        Fun.protect
          ~finally:(fun () ->
            Affinity.pin_self Affinity.Anywhere;
            Conn.close conn)
          (fun () ->
            let next = Workload.stream w ~seed files in
            match w.Workload.id with
            | Workload.Fleet_refresh ->
                Drive.fleet ~socket conn ~next ~check
                  ~refresh:(Workload.refresh_line files)
                  ~period:Workload.refresh_period ~warmup ~seconds
            | _ ->
                Drive.drive conn ~depth:w.Workload.depth ~next ~check ~warmup
                  ~seconds ())
  in
  let rss = Daemon.vm_hwm_mib daemon in
  Daemon.stop daemon;
  let wrong =
    Check.finish check
      ~live:
        (Option.map
           (fun p ->
             (* A copy: checking REFRESHes it, and the replay needs [p]. *)
             let copy = Filename.concat dir "live.check.v3" in
             Files.copy p copy;
             (copy, Workload.refresh_line files))
           pristine)
  in
  let notes = ref (List.rev result.Drive.errors) in
  let note m = notes := !notes @ [ m ] in
  if wrong > 0 then
    note (Printf.sprintf "%d answers differ from the in-process evaluation" wrong);
  let layer, mismatches =
    if trace then
      let replayed, mismatches =
        replay_metrics w ~seed ~dir ~trace_file ~note files ~pristine result
      in
      (stats_metrics result @ replayed, mismatches)
    else ([], 0)
  in
  {
    workload = w.Workload.name;
    seed;
    started;
    warmup;
    duration = seconds;
    attempted = result.Drive.attempted;
    failed = result.Drive.failed + wrong;
    mismatches;
    metrics =
      (("setup_s", Stats.median !times) :: best_slice ~seconds result)
      @ [ ("server_rss_mb", rss) ] @ layer;
    samples = Stats.Samples.length result.Drive.latency;
    notes = !notes;
  }

(* ------------------------------------------------------------------ *)
(* Results as JSON                                                     *)
(* ------------------------------------------------------------------ *)

let unit_of name = match Metric.find name with Some m -> m.Metric.unit_ | None -> ""

let to_json r =
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("seed", Json.Int r.seed);
      ("started", Json.Float r.started);
      ("warmup_s", Json.Float r.warmup);
      ("duration_s", Json.Float r.duration);
      ("correct", Json.Bool (correct r));
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("replay_mismatches", Json.Int r.mismatches);
      ("latency_samples", Json.Int r.samples);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, v) ->
               (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str (unit_of name)) ]))
             r.metrics) );
      ("notes", Json.List (List.map (fun s -> Json.Str s) r.notes));
    ]

let of_json = function
  | Json.Obj kv ->
      let f = List.assoc_opt in
      let num k = Option.value (Metric.num (f k kv)) ~default:0. in
      let int k = int_of_float (num k) in
      let metrics =
        match f "metrics" kv with
        | Some (Json.Obj ms) ->
            List.filter_map
              (fun (name, v) ->
                match v with
                | Json.Obj e -> Option.map (fun x -> (name, x)) (Metric.num (f "value" e))
                | _ -> None)
              ms
        | _ -> []
      in
      Some
        {
          workload = Metric.str (f "workload" kv);
          seed = int "seed";
          started = num "started";
          warmup = num "warmup_s";
          duration = num "duration_s";
          attempted = int "attempted";
          failed = int "failed";
          mismatches = int "replay_mismatches";
          metrics;
          samples = int "latency_samples";
          notes = [];
        }
  | _ -> None

let write_file path runs =
  Json.write_file path (Json.Obj [ ("runs", Json.List (List.map to_json runs)) ])

let read_file path =
  match Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Ok (Json.Obj kv) -> (
      match List.assoc_opt "runs" kv with
      | Some (Json.List runs) -> List.filter_map of_json runs
      | _ -> failwith (path ^ ": no runs"))
  | Ok _ -> failwith (path ^ ": not a suite result")
  | Error e -> failwith (path ^ ": " ^ e)
