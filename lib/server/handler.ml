(* Request execution: a parsed Protocol.request against the catalog.

   This is the server's brain, kept free of sockets and threads so the
   whole command surface is unit-testable in-process.  SQL handling
   mirrors `entropydb query`: compile against the summary's schema, then
   dispatch on aggregate/grouping.  Every failure mode — parse errors,
   unknown summaries, unsupported query shapes, evaluation exceptions —
   becomes a protocol error reply; nothing may escape as an exception,
   because one request must never take down a worker or its connection.

   Plain conjunctive COUNT queries and conjunctive GROUP BYs (the
   interactive-exploration hot paths) go through the entry's shared
   Cache; everything else evaluates the summary directly. *)

open Edb_storage
open Entropydb_core
module T = Edb_query.Translate

let float_str v = Printf.sprintf "%.17g" v

let err code fmt =
  Printf.ksprintf (fun message -> Protocol.Err { code; message }) fmt

(* REFRESH accounting: successes/failures and end-to-end latency (CSV
   parse + ingest + disk rewrite + swap), in the global registry so STATS
   and `entropydb stats` surface them as obs_ingest_refresh* lines. *)
let m_refreshes = Edb_obs.Registry.counter "ingest_refreshes"
let m_refresh_failures = Edb_obs.Registry.counter "ingest_refresh_failures"
let m_refresh_latency = Edb_obs.Registry.histogram "ingest_refresh"

(* ------------------------------------------------------------------ *)
(* SQL execution                                                       *)
(* ------------------------------------------------------------------ *)

(* The [estimate]/[stddev] reply of every scalar answer: QUERY's COUNT,
   OR and SUM, and PLAN's scalar route. *)
let answer_lines (a : Summary.answer) =
  [
    "estimate " ^ float_str a.est;
    "stddev " ^ float_str (sqrt (Float.max 0. a.var));
  ]

(* [group <est> <sd> <labels>] lines for grouped cells (key, estimate,
   stddev), ordered and limited by the query's ORDER BY / LIMIT — the
   one rendering QUERY and PLAN share. *)
let group_lines schema (c : T.compiled) cells =
  List.map
    (fun (values, est, sd) ->
      let labels =
        List.map2
          (fun attr v -> Domain.label (Schema.domain schema attr) v)
          c.T.group_attrs values
      in
      (* Labels go last: they may contain spaces. *)
      Printf.sprintf "group %s %s %s" (float_str est) (float_str sd)
        (String.concat "," labels))
    (T.order_groups c cells)

let run_sql (entry : Catalog.entry) sql =
  let schema = Catalog.schema entry in
  match T.compile_string schema sql with
  | Error e -> err Protocol.err_parse "%s" e.T.message
  | Ok c -> (
      let summary = entry.Catalog.summary in
      try
        match T.conjunctive c with
        | None ->
            (* [T.compile] admits OR only in a plain COUNT. *)
            Protocol.Ok
              (answer_lines (Summary.count_disjuncts summary c.disjuncts))
        | Some predicate -> (
            match c with
            | { aggregate = T.Sum attr; _ } ->
                Protocol.Ok
                  (answer_lines (Summary.sum summary ~attr predicate))
            | { aggregate = T.Avg attr; _ } -> (
                match Summary.estimate_avg summary ~attr predicate with
                | Some est -> Protocol.Ok [ "estimate " ^ float_str est ]
                | None -> Protocol.Ok [ "estimate undefined" ])
            | { group_attrs = []; _ } ->
                (* The hot path: one cached answer carries both moments. *)
                Protocol.Ok
                  (answer_lines (Cache.count entry.Catalog.cache predicate))
            | { group_attrs; _ } ->
                (* One cached batched evaluation yields every group's
                   estimate AND its stddev (the kernel exposes each
                   cell's restricted P), so there is no per-group
                   re-evaluation here at all. *)
                Protocol.Ok
                  (group_lines schema c
                     (Cache.estimate_groups entry.Catalog.cache
                        ~attrs:group_attrs predicate)))
      with
      | Invalid_argument m -> err Protocol.err_unsupported "%s" m
      | e -> err Protocol.err_internal "%s" (Printexc.to_string e))

(* ------------------------------------------------------------------ *)
(* Planner routing (PLAN verb, EXPLAIN candidate table)                 *)
(* ------------------------------------------------------------------ *)

module P = Edb_plan.Plan
module E = Edb_plan.Estimator

(* The entry's registered routes: always its summary; plus the exact
   relation and a uniform sample once a base table is ATTACHed. *)
let entry_estimators (entry : Catalog.entry) =
  let summary = E.of_summary entry.Catalog.summary in
  match entry.Catalog.aux with
  | None -> [ summary ]
  | Some aux ->
      [ summary; E.of_sample aux.Catalog.sample; E.of_relation aux.Catalog.rel ]

(* Only conjunctive COUNT, SUM, and COUNT GROUP BY have error models on
   every backend; OR-predicates and AVG stay on the default QUERY path. *)
let shape_of_compiled (c : T.compiled) =
  match T.conjunctive c with
  | None -> None
  | Some pred -> (
      match c with
      | { aggregate = T.Count; group_attrs = []; _ } -> Some (P.Count pred)
      | { aggregate = T.Sum attr; group_attrs = []; _ } ->
          Some (P.Sum { attr; pred })
      | { aggregate = T.Count; group_attrs; _ } ->
          Some (P.Groups { attrs = group_attrs; pred })
      | _ -> None)

let route_line (d : P.decision) =
  Printf.sprintf "route %s kind %s reason %s"
    (E.name d.P.chosen.P.estimator)
    (E.kind_name (E.kind d.P.chosen.P.estimator))
    d.P.reason

let plan_group_lines schema c cells =
  group_lines schema c
    (List.map
       (fun (values, (a : E.answer)) ->
         (values, a.E.est, sqrt (Float.max 0. a.E.var)))
       cells)

let plan_sql (entry : Catalog.entry) ~ci sql =
  let schema = Catalog.schema entry in
  match P.target_of_string ci with
  | exception Invalid_argument m -> err Protocol.err_parse "%s" m
  | target -> (
      match T.compile_string schema sql with
      | Error e -> err Protocol.err_parse "%s" e.T.message
      | Ok c -> (
          match shape_of_compiled c with
          | None ->
              err Protocol.err_unsupported
                "PLAN supports conjunctive COUNT, SUM, and COUNT GROUP BY"
          | Some shape -> (
              try
                let d = P.choose ~target (entry_estimators entry) shape in
                match P.chosen_groups d with
                | Some cells ->
                    Protocol.Ok
                      (route_line d :: plan_group_lines schema c cells)
                | None ->
                    Protocol.Ok
                      (route_line d :: answer_lines (P.chosen_answer d))
              with
              | Invalid_argument m -> err Protocol.err_unsupported "%s" m
              | e -> err Protocol.err_internal "%s" (Printexc.to_string e))))

(* The eager decision for EXPLAIN: every candidate evaluated, observed
   errors against the exact candidate when one is registered. *)
let plan_explain_lines (entry : Catalog.entry) (c : T.compiled) =
  match shape_of_compiled c with
  | None -> [ "plan unsupported" ]
  | Some shape -> (
      try
        Edb_plan.Explain.lines
          (P.choose_all ~target:P.default_target (entry_estimators entry) shape)
      with Invalid_argument m -> [ "plan unsupported " ^ m ])

let explain_sql (entry : Catalog.entry) sql =
  let schema = Catalog.schema entry in
  match T.compile_string schema sql with
  | Error e -> err Protocol.err_parse "%s" e.T.message
  | Ok c ->
      let aggregate =
        match c.aggregate with
        | T.Count -> "count"
        | T.Sum a -> "sum " ^ Schema.attr_name schema a
        | T.Avg a -> "avg " ^ Schema.attr_name schema a
      in
      let restricted p =
        Predicate.restricted_attrs p
        |> List.map (fun a ->
               let r = Option.get (Predicate.restriction p a) in
               Printf.sprintf "%s:%s" (Schema.attr_name schema a)
                 (String.concat ","
                    (List.map
                       (fun (lo, hi) -> Printf.sprintf "%d-%d" lo hi)
                       (Edb_util.Ranges.intervals r))))
        |> String.concat " "
      in
      (* Conjunctive COUNTs and conjunctive GROUP BYs both go through the
         entry's cache; disjunctions and SUM/AVG do not. *)
      let cacheable = c.aggregate = T.Count && List.length c.disjuncts = 1 in
      Protocol.Ok
        ([
           "aggregate " ^ aggregate;
           Printf.sprintf "disjuncts %d" (List.length c.disjuncts);
           Printf.sprintf "group_attrs %s"
             (if c.group_attrs = [] then "-"
              else
                String.concat ","
                  (List.map (Schema.attr_name schema) c.group_attrs));
           Printf.sprintf "cacheable %b" cacheable;
         ]
        @ List.map (fun p -> "where " ^ restricted p) c.disjuncts
        @ plan_explain_lines entry c)

(* ------------------------------------------------------------------ *)
(* STATS                                                               *)
(* ------------------------------------------------------------------ *)

let stats_lines catalog metrics =
  let m = Metrics.snapshot metrics in
  let c = Catalog.stats catalog in
  let ch, cm, ce = Catalog.cache_stats catalog in
  let rate =
    if ch + cm = 0 then 0. else float_of_int ch /. float_of_int (ch + cm)
  in
  [
    Printf.sprintf "uptime_s %.1f" m.Metrics.uptime_s;
    Printf.sprintf "connections %d" m.Metrics.connections;
    Printf.sprintf "requests %d" m.Metrics.requests;
    Printf.sprintf "errors %d" m.Metrics.errors;
    Printf.sprintf "timeouts %d" m.Metrics.timeouts;
    Printf.sprintf "rejects %d" m.Metrics.rejects;
    Printf.sprintf "catalog_resident %d" c.Catalog.resident;
    Printf.sprintf "catalog_capacity %d" c.Catalog.capacity;
    Printf.sprintf "catalog_budget_bytes %d"
      (Option.value c.Catalog.budget_bytes ~default:0);
    Printf.sprintf "catalog_resident_bytes %d" c.Catalog.resident_bytes;
    Printf.sprintf "catalog_pinned %d" c.Catalog.pinned;
    Printf.sprintf "catalog_slots %d" c.Catalog.slots;
    Printf.sprintf "catalog_shards %d" c.Catalog.shards;
    Printf.sprintf "catalog_hits %d" c.Catalog.hits;
    Printf.sprintf "catalog_misses %d" c.Catalog.misses;
    Printf.sprintf "catalog_loads %d" c.Catalog.loads;
    Printf.sprintf "catalog_evictions %d" c.Catalog.evictions;
    Printf.sprintf "catalog_reopens %d" c.Catalog.reopens;
    Printf.sprintf "cache_hits %d" ch;
    Printf.sprintf "cache_misses %d" cm;
    Printf.sprintf "cache_evictions %d" ce;
    Printf.sprintf "cache_hit_rate %.4f" rate;
    Printf.sprintf "latency_count %d" m.Metrics.observations;
    Printf.sprintf "latency_p50_us %.1f" m.Metrics.p50_us;
    Printf.sprintf "latency_p95_us %.1f" m.Metrics.p95_us;
    Printf.sprintf "latency_p99_us %.1f" m.Metrics.p99_us;
    Printf.sprintf "latency_max_us %.1f" m.Metrics.max_us;
  ]
  (* Global obs registry (engine-level counters/gauges/histograms shared
     by everything in the process), so STATS and `entropydb stats` read
     the same source of truth as the trace/bench tooling. *)
  @ (let r = Edb_obs.Registry.snapshot () in
     List.map
       (fun (name, v) -> Printf.sprintf "obs_%s %d" name v)
       r.Edb_obs.Registry.counters
     @ List.map
         (fun (name, v) -> Printf.sprintf "obs_%s %.6g" name v)
         r.Edb_obs.Registry.gauges
     @ List.concat_map
         (fun (name, (h : Edb_obs.Registry.Hist.snapshot)) ->
           [
             Printf.sprintf "obs_%s_count %d" name h.count;
             Printf.sprintf "obs_%s_p50_us %.1f" name
               (Edb_obs.Registry.Hist.quantile h 0.50);
             Printf.sprintf "obs_%s_p99_us %.1f" name
               (Edb_obs.Registry.Hist.quantile h 0.99);
           ])
         r.Edb_obs.Registry.histograms)

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

type outcome = Keep | Close

(* Resolve + pin a summary for the duration of one request: resident
   hit, or transparent reopen after a budget eviction.  Unknown names
   keep the historical err_unknown wording; a reopen that fails (file
   deleted or corrupted since the LOAD) is a load error. *)
let with_summary catalog name f =
  if not (Catalog.known catalog name) then
    err Protocol.err_unknown "no summary named %s" name
  else
    match Catalog.with_entry catalog name f with
    | Ok response -> response
    | Error m -> err Protocol.err_load "%s" m

let handle ~catalog ~metrics (request : Protocol.request) :
    Protocol.response * outcome =
  match request with
  | Protocol.Hello v ->
      (* Both protocol versions are served on every connection: v2 is
         v1 plus optional per-request id tags, so there is no mode to
         negotiate — HELLO just confirms the dialect the client names. *)
      if v = Protocol.version || v = Protocol.version_v2 then
        (Protocol.Ok [ v ^ " entropydb-server" ], Keep)
      else
        ( err Protocol.err_proto "unsupported protocol version %s (want %s or %s)"
            v Protocol.version Protocol.version_v2,
          Keep )
  | Protocol.Ping -> (Protocol.Ok [ "pong" ], Keep)
  | Protocol.Quit -> (Protocol.Ok [ "bye" ], Close)
  | Protocol.List ->
      let lines =
        List.map
          (fun (e : Catalog.entry) ->
            Printf.sprintf "summary %s cardinality %d shards %d path %s"
              e.Catalog.name (Catalog.cardinality e) (Catalog.num_shards e)
              e.Catalog.path)
          (Catalog.entries catalog)
      in
      (Protocol.Ok lines, Keep)
  | Protocol.Load { name; path } -> (
      match Catalog.load catalog ~name ~path with
      | Ok entry ->
          ( Protocol.Ok
              [
                Printf.sprintf "loaded %s cardinality %d shards %d" name
                  (Catalog.cardinality entry) (Catalog.num_shards entry);
              ],
            Keep )
      | Error m -> (err Protocol.err_load "%s" m, Keep))
  | Protocol.Stats -> (Protocol.Ok (stats_lines catalog metrics), Keep)
  | Protocol.Query { name; sql } ->
      (with_summary catalog name (fun entry -> run_sql entry sql), Keep)
  | Protocol.Explain { name; sql } ->
      (with_summary catalog name (fun entry -> explain_sql entry sql), Keep)
  | Protocol.Attach { name; path; rate } -> (
      let rate = Option.value rate ~default:0.01 in
      match Catalog.attach catalog ~name ~path ~rate with
      | Ok entry ->
          let aux = Option.get entry.Catalog.aux in
          ( Protocol.Ok
              [
                Printf.sprintf "attached %s rows %d sample_rows %d rate %g"
                  name
                  (Relation.cardinality aux.Catalog.rel)
                  (Edb_sampling.Sample.size aux.Catalog.sample)
                  rate;
              ],
            Keep )
      | Error m -> (err Protocol.err_load "%s" m, Keep))
  | Protocol.Plan { name; ci; sql } ->
      (with_summary catalog name (fun entry -> plan_sql entry ~ci sql), Keep)
  | Protocol.Refresh { name; path } ->
      if not (Catalog.known catalog name) then
        (err Protocol.err_unknown "no summary named %s" name, Keep)
      else (
        let t0 = Edb_util.Timing.now_s () in
        match Catalog.refresh catalog ~name ~path with
        | Ok (_, info) ->
            Edb_obs.Registry.Counter.incr m_refreshes;
            Edb_obs.Registry.Hist.observe m_refresh_latency
              (Edb_util.Timing.now_s () -. t0);
            ( Protocol.Ok
                [
                  Printf.sprintf
                    "refreshed %s cardinality %d batch_rows %d batches %d \
                     sweeps %d"
                    name info.Catalog.cardinality info.Catalog.batch_rows
                    info.Catalog.batches info.Catalog.sweeps;
                ],
              Keep )
        | Error m ->
            Edb_obs.Registry.Counter.incr m_refresh_failures;
            (err Protocol.err_load "%s" m, Keep))
