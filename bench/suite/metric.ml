(* The suite's metrics: names, units and directions, and the bounds that
   BENCHMARK.json fixes for them.

   The code is the source of the names; BENCHMARK.json must list exactly
   the same ones (checked on every run that finds it), and is the only
   source of the regression bounds. *)

type better = Higher | Lower

type t = { name : string; unit_ : string; better : better }

let m name unit_ better = { name; unit_; better }

(* What a user of the daemon sees, taken with tracing off. *)
let end_to_end =
  [
    m "setup_s" "s" Lower;
    m "rps" "req/s" Higher;
    m "p50_us" "us" Lower;
    m "p99_us" "us" Lower;
    m "server_rss_mb" "MiB" Lower;
  ]

(* One layer each, named after the module whose calls they time or
   count.  Exact counters come from STATS deltas over the measured
   window, times from the traced in-process replay, and the rest are
   derived from both. *)
let per_layer =
  [
    m "server.batch_mean" "req/batch" Higher;
    m "server.coalesce_ratio" "ratio" Higher;
    m "server.transport_us" "us" Lower;
    m "cache.hit_ratio" "ratio" Higher;
    m "kernel.evals_per_req" "evals/req" Lower;
    m "catalog.reopens_per_req" "reopens/req" Lower;
    m "catalog.evictions_per_req" "evictions/req" Lower;
    m "catalog.open_us" "us" Lower;
    m "protocol.parse_ns" "ns" Lower;
    m "catalog.pin_ns" "ns" Lower;
    m "query.compile_ns" "ns" Lower;
    m "cache.estimate_ns" "ns" Lower;
    m "kernel.stddev_ns" "ns" Lower;
    m "handler.format_ns" "ns" Lower;
    m "protocol.render_ns" "ns" Lower;
    m "handler.handle_ns" "ns" Lower;
    m "handler.minor_words_per_req" "words/req" Lower;
    m "ingest.refresh_ms" "ms" Lower;
    m "loadgen.lag_p99_us" "us" Lower;
    m "trace.coverage" "ratio" Higher;
    m "trace.overhead_frac" "ratio" Lower;
  ]

let all = end_to_end @ per_layer
let find name = List.find_opt (fun x -> x.name = name) all
let better_name = function Higher -> "higher" | Lower -> "lower"

(* [worse_by m ~base v] is how much worse [v] is than [base], as a share
   of [base]; negative when better. *)
let worse_by x ~base v =
  if base = 0. then 0.
  else
    match x.better with
    | Lower -> (v -. base) /. Float.abs base
    | Higher -> (base -. v) /. Float.abs base

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json                                                      *)
(* ------------------------------------------------------------------ *)

module Json = Edb_util.Json

let field kv k = List.assoc_opt k kv

let str = function Some (Json.Str s) -> s | _ -> ""

let num = function
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

(* Names, units and directions listed in a BENCHMARK.json, per section,
   with the bound where one is given. *)
let read_benchmark path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  match Json.of_string text with
  | Error e -> Error (Printf.sprintf "%s: %s" path e)
  | Ok (Json.Obj kv) ->
      let section k =
        match field kv k with
        | Some (Json.List items) ->
            List.filter_map
              (function
                | Json.Obj e ->
                    Some
                      ( str (field e "name"),
                        str (field e "unit"),
                        str (field e "better"),
                        num (field e "bound") )
                | _ -> None)
              items
        | _ -> []
      in
      Ok (section "end_to_end", section "per_layer")
  | Ok _ -> Error (path ^ ": not a JSON object")

(* Every metric the code reports must be listed with the same unit and
   direction, and nothing else may be listed. *)
let check_benchmark path =
  match read_benchmark path with
  | Error _ as e -> e
  | Ok (e2e, layer) ->
      let expect section listed =
        let mine =
          List.map (fun x -> (x.name, x.unit_, better_name x.better)) section
        in
        let theirs = List.map (fun (n, u, b, _) -> (n, u, b)) listed in
        let missing = List.filter (fun x -> not (List.mem x theirs)) mine in
        let extra = List.filter (fun x -> not (List.mem x mine)) theirs in
        List.map (fun (n, _, _) -> "not listed (or other unit/direction): " ^ n) missing
        @ List.map (fun (n, _, _) -> "listed but not reported: " ^ n) extra
      in
      (match expect end_to_end e2e @ expect per_layer layer with
      | [] -> Ok ()
      | problems ->
          Error
            (Printf.sprintf "%s disagrees with the suite: %s" path
               (String.concat "; " problems)))

(* The regression bound of each end-to-end metric. *)
let bounds path =
  match read_benchmark path with
  | Error _ as e -> e
  | Ok (e2e, _) ->
      Ok (List.filter_map (fun (n, _, _, b) -> Option.map (fun b -> (n, b)) b) e2e)
