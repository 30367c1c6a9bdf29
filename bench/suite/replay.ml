(* The traced in-process replay: where a request's time goes, layer by
   layer.

   The workload's request stream is regenerated from its seed, and each
   request runs twice, on two catalogs opened on the same files as the
   daemon's:

   1. untraced, through [Handler.handle] — the reference answer and the
      reference time of each request;
   2. traced, through the same layers called one at a time from here,
      each call wrapped in a span tagged with the request's index.

   Every response of pass 2 must be byte-identical to pass 1's.  A
   stage's self time is its spans' time minus its children's; the
   stages must add up to pass 1's parse + handle + render (coverage).
   Only the calls the workloads exercise are staged: conjunctive COUNT,
   conjunctive COUNT GROUP BY, and REFRESH. *)

module Protocol = Edb_server.Protocol
module Catalog = Edb_server.Catalog
module Handler = Edb_server.Handler
module T = Edb_query.Translate
module S = Edb_storage
module Obs = Edb_obs.Obs
module Trace = Edb_obs.Trace

let now = Drive.now

(* The daemon's rendering of a response into its output buffer. *)
let render response =
  let b = Buffer.create 256 in
  List.iter
    (fun l ->
      Buffer.add_string b l;
      Buffer.add_char b '\n')
    (Protocol.print_tagged_response None response);
  Buffer.contents b

let parse line =
  match Protocol.split_tag line with
  | Error m -> Error m
  | Ok (_, rest) -> Protocol.parse_request rest

let err code fmt = Printf.ksprintf (fun message -> Protocol.Err { code; message }) fmt
let float_str v = Printf.sprintf "%.17g" v

(* Spans of request [i] share one attribute list, built once. *)
let request_tag i =
  let attrs = [ ("req", string_of_int i) ] in
  fun () -> attrs

let span tag name f = Obs.with_span ~cat:"suite" ~attrs:tag name f

(* The handler's GROUP BY rendering after the cache call: order, limit,
   label. *)
let group_lines schema (c : T.compiled) groups =
  let by_count asc (ka, a, _) (kb, b, _) =
    let o = if asc then Float.compare a b else Float.compare b a in
    if o <> 0 then o else Stdlib.compare ka kb
  in
  let groups =
    List.sort (by_count (c.T.order = Some Edb_query.Ast.Asc)) groups
  in
  let groups =
    match c.T.limit with
    | Some k -> List.filteri (fun i _ -> i < k) groups
    | None -> groups
  in
  List.map
    (fun (values, est, sd) ->
      let labels =
        List.map2
          (fun attr v -> S.Domain.label (S.Schema.domain schema attr) v)
          c.T.group_attrs values
      in
      Printf.sprintf "group %s %s %s" (float_str est) (float_str sd)
        (String.concat "," labels))
    groups

(* [Handler.handle], one layer call per span.  Parent of each stage:
   request > protocol.parse | catalog.pin | ingest.refresh |
   protocol.render, and catalog.pin > query.compile | cache.estimate |
   kernel.stddev | handler.format. *)
let staged catalog tag request =
  let span name f = span tag name f in
  let sql_on entry sql =
    let schema = Catalog.schema entry in
    match span "query.compile" (fun () -> T.compile_string schema sql) with
    | Error e -> err Protocol.err_parse "%s" e.T.message
    | Ok c -> (
        try
          match (c, T.conjunctive c) with
          | { T.aggregate = T.Count; group_attrs = []; _ }, Some p ->
              let est =
                span "cache.estimate" (fun () -> Entropydb_core.Cache.estimate entry.Catalog.cache p)
              in
              let sd = span "kernel.stddev" (fun () -> Catalog.stddev entry p) in
              span "handler.format" (fun () ->
                  Protocol.Ok [ "estimate " ^ float_str est; "stddev " ^ float_str sd ])
          | { T.aggregate = T.Count; group_attrs = attrs; _ }, Some p ->
              let groups =
                span "cache.estimate" (fun () ->
                    Entropydb_core.Cache.estimate_groups entry.Catalog.cache ~attrs p)
              in
              span "handler.format" (fun () -> Protocol.Ok (group_lines schema c groups))
          | _ -> Handler.run_sql entry sql
        with
        | Invalid_argument m -> err Protocol.err_unsupported "%s" m
        | e -> err Protocol.err_internal "%s" (Printexc.to_string e))
  in
  match request with
  | Protocol.Query { name; sql } ->
      span "catalog.pin" (fun () ->
          if not (Catalog.known catalog name) then
            err Protocol.err_unknown "no summary named %s" name
          else
            match Catalog.with_entry catalog name (fun e -> sql_on e sql) with
            | Ok r -> r
            | Error m -> err Protocol.err_load "%s" m)
  | Protocol.Refresh { name; path } ->
      span "ingest.refresh" (fun () ->
          if not (Catalog.known catalog name) then
            err Protocol.err_unknown "no summary named %s" name
          else
            match Catalog.refresh catalog ~name ~path with
            | Ok (_, info) ->
                Protocol.Ok
                  [
                    Printf.sprintf
                      "refreshed %s cardinality %d batch_rows %d batches %d \
                       sweeps %d"
                      name info.Catalog.cardinality info.Catalog.batch_rows
                      info.Catalog.batches info.Catalog.sweeps;
                  ]
            | Error m -> err Protocol.err_load "%s" m)
  | _ -> err Protocol.err_unsupported "not staged"

type result = {
  requests : int;
  mismatches : int;
  dropped : int;  (** trace events lost to ring wraparound *)
  self_ns : (string * float) list;  (** mean self time per request *)
  handle_ns : float;  (** pass 1: mean [Handler.handle] time *)
  minor_words : float;  (** pass 1: per [Handler.handle] call *)
  inproc_us : float;  (** pass 1: mean parse + handle + render *)
  coverage : float;
  overhead_frac : float;
}

let stages =
  [
    "protocol.parse"; "catalog.pin"; "query.compile"; "cache.estimate";
    "kernel.stddev"; "handler.format"; "ingest.refresh"; "protocol.render";
  ]

let children = function
  | "request" -> [ "protocol.parse"; "catalog.pin"; "ingest.refresh"; "protocol.render" ]
  | "catalog.pin" -> [ "query.compile"; "cache.estimate"; "kernel.stddev"; "handler.format" ]
  | _ -> []

(* The two passes alternate in chunks of 32 requests, so both see the
   same stretch of a machine whose speed drifts.  Minor collections are
   forced between chunks, outside every timed region, on a minor heap
   large enough that none starts inside a chunk: otherwise promoting
   the retained trace events would be charged to whichever stage
   happened to trigger a collection. *)
let chunk = 32

(* [reference] and [traced] are twin catalogs on private copies of the
   workload's files.  The Chrome trace goes to [trace_file] if given. *)
let run ~reference ~traced ?trace_file lines =
  let gc = Gc.get () in
  Gc.set { gc with Gc.minor_heap_size = 1 lsl 20 };
  Fun.protect ~finally:(fun () -> Gc.set gc) @@ fun () ->
  let lines = Array.of_list lines in
  let n = Array.length lines in
  let metrics = Edb_server.Metrics.create () in
  let parse_s = ref 0. and handle_s = ref 0. and render_s = ref 0. in
  let words = ref 0. in
  (* Pass 1: the reference, untraced; its digests are what pass 2 must
     reproduce. *)
  let reference_pass line =
    let t0 = now () in
    let request = parse line in
    let t1 = now () in
    let w0 = Gc.minor_words () in
    let response =
      match request with
      | Ok r -> fst (Handler.handle ~catalog:reference ~metrics r)
      | Error m -> err Protocol.err_proto "%s" m
    in
    let w1 = Gc.minor_words () in
    let t2 = now () in
    let bytes = render response in
    let t3 = now () in
    parse_s := !parse_s +. (t1 -. t0);
    handle_s := !handle_s +. (t2 -. t1);
    render_s := !render_s +. (t3 -. t2);
    words := !words +. (w1 -. w0);
    Digest.string bytes
  in
  (* Pass 2: staged and traced. *)
  let traced_pass i line =
    let tag = request_tag i in
    let bytes =
      span tag "request" (fun () ->
          let request = span tag "protocol.parse" (fun () -> parse line) in
          let response =
            match request with
            | Ok r -> staged traced tag r
            | Error m -> err Protocol.err_proto "%s" m
          in
          span tag "protocol.render" (fun () -> render response))
    in
    Digest.string bytes
  in
  Trace.set_capacity ((32 * n) + 4096);
  let mismatches = ref 0 in
  let want = Array.make chunk Digest.(string "") in
  for c = 0 to (n - 1) / chunk do
    let lo = c * chunk and hi = min n ((c + 1) * chunk) - 1 in
    Gc.minor ();
    Obs.set_enabled false;
    for i = lo to hi do
      want.(i - lo) <- reference_pass lines.(i)
    done;
    Gc.minor ();
    Obs.set_enabled true;
    for i = lo to hi do
      if not (Digest.equal (traced_pass i lines.(i)) want.(i - lo)) then incr mismatches
    done
  done;
  Obs.set_enabled false;
  let dropped = Trace.dropped () in
  Option.iter Trace.write_file trace_file;
  (* Self time from the spans: a stage's total minus its children's. *)
  let total = Hashtbl.create 16 in
  List.iter
    (fun (e : Trace.event) ->
      if e.Trace.cat = "suite" && e.Trace.ph = Trace.Span then
        Hashtbl.replace total e.Trace.name
          (e.Trace.dur_us +. Option.value (Hashtbl.find_opt total e.Trace.name) ~default:0.))
    (Trace.events ());
  Trace.clear ();
  let sum name = Option.value (Hashtbl.find_opt total name) ~default:0. in
  let self name = sum name -. List.fold_left (fun a c -> a +. sum c) 0. (children name) in
  let per_request_ns us = us *. 1000. /. float_of_int (max 1 n) in
  let reference_s = !parse_s +. !handle_s +. !render_s in
  let staged_us = List.fold_left (fun a c -> a +. sum c) 0. (children "request") in
  {
    requests = n;
    mismatches = !mismatches;
    dropped;
    self_ns = List.map (fun s -> (s, per_request_ns (self s))) stages;
    handle_ns = !handle_s *. 1e9 /. float_of_int (max 1 n);
    minor_words = !words /. float_of_int (max 1 n);
    inproc_us = reference_s *. 1e6 /. float_of_int (max 1 n);
    coverage = (if reference_s = 0. then 0. else staged_us *. 1e-6 /. reference_s);
    overhead_frac =
      (if reference_s = 0. then 0. else (sum "request" *. 1e-6 /. reference_s) -. 1.);
  }

(* Median in-process [Catalog.load] time over the workload's files,
   loading at least 20 times. *)
let open_us loads =
  let files = Array.of_list loads in
  let k = max 20 (Array.length files) in
  let catalog = Catalog.create ~capacity:(k + 1) () in
  let times =
    List.init k (fun i ->
        let name, path = files.(i mod Array.length files) in
        let t0 = now () in
        (match Catalog.load catalog ~name ~path with
        | Ok _ -> ()
        | Error m -> failwith m);
        (now () -. t0) *. 1e6)
  in
  Stats.median times

(* Median in-process [Catalog.refresh] of [batch] into a fresh copy of
   [summary], over three refreshes. *)
let refresh_ms ~dir ~summary ~batch =
  let copy = Filename.concat dir "ingest-target.v3" in
  let times =
    List.init 3 (fun _ ->
        Files.copy summary copy;
        let catalog = Catalog.create () in
        (match Catalog.load catalog ~name:"target" ~path:copy with
        | Ok _ -> ()
        | Error m -> failwith m);
        let t0 = now () in
        (match Catalog.refresh catalog ~name:"target" ~path:batch with
        | Ok _ -> ()
        | Error m -> failwith m);
        (now () -. t0) *. 1e3)
  in
  Stats.median times
