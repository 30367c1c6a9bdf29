(* Tests for the serving subsystem (lib/server).

   Layered like the subsystem itself: pure protocol round-trips as qcheck
   properties, metrics/catalog/cache units (including concurrent hammering
   of the shared cache), handler dispatch without sockets, and an
   end-to-end smoke test that runs a real server on a Unix-domain socket
   in a temp dir and checks wire answers against direct in-process
   Summary.estimate calls — plus admission control, per-request deadlines,
   and graceful drain. *)

open Edb_util
open Edb_storage
open Entropydb_core
open Edb_server

(* ------------------------------------------------------------------ *)
(* A tiny summary on disk                                              *)
(* ------------------------------------------------------------------ *)

let make_schema sizes =
  Schema.create
    (List.mapi
       (fun i n ->
         Schema.attr
           (Printf.sprintf "a%d" i)
           (Domain.int_bins ~lo:0 ~hi:(n - 1) ~width:1))
       sizes)

let small_relation ~seed sizes rows =
  let schema = make_schema sizes in
  let rng = Prng.create ~seed () in
  let b = Relation.builder ~capacity:rows schema in
  for _ = 1 to rows do
    Relation.add_row b
      (Array.init (List.length sizes) (fun i ->
           Prng.int rng (Schema.domain_size schema i)))
  done;
  Relation.build b

let small_summary ~seed () =
  let rel = small_relation ~seed [ 6; 5; 4 ] 400 in
  let joints =
    [
      Predicate.of_alist ~arity:3
        [ (0, Ranges.interval 0 2); (1, Ranges.interval 1 3) ];
      Predicate.of_alist ~arity:3
        [ (0, Ranges.interval 3 5); (1, Ranges.interval 0 1) ];
    ]
  in
  Summary.build
    ~solver_config:{ Solver.default_config with log_every = 0 }
    rel ~joints

let temp_dir () =
  let path = Filename.temp_file "edb-test-server" "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let saved_summary dir name summary =
  let path = Filename.concat dir (name ^ ".summary") in
  Serialize.save summary path;
  path

(* GROUP BY cells as the wire renders them: (key, estimate, stddev). *)
let group_cells s ~attrs q =
  List.map
    (fun (key, (a : Summary.answer)) -> (key, a.est, sqrt a.var))
    (Summary.groups s ~attrs q)

(* The (estimate, stddev) lines of a scalar QUERY or PLAN reply. *)
let answer_of payload =
  let field key =
    List.find_map
      (fun line ->
        match String.split_on_char ' ' line with
        | [ k; v ] when k = key -> float_of_string_opt v
        | _ -> None)
      payload
  in
  match (field "estimate", field "stddev") with
  | Some e, Some s -> Some (e, s)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Protocol properties                                                 *)
(* ------------------------------------------------------------------ *)

let word_gen =
  QCheck.Gen.(
    let word_char =
      oneof [ char_range 'a' 'z'; char_range 'A' 'Z'; char_range '0' '9';
              oneofl [ '-'; '_'; '.'; '/' ] ]
    in
    string_size ~gen:word_char (int_range 1 12))

(* Rest-of-line payloads (SQL, error messages): printable, no newline, and
   round-trip canonical, i.e. trimmed and single-spaced. *)
let tail_gen =
  QCheck.Gen.(
    map
      (fun words -> String.concat " " words)
      (list_size (int_range 1 6) word_gen))

let request_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun v -> Protocol.Hello v) word_gen;
        map2
          (fun name sql -> Protocol.Query { name; sql })
          word_gen tail_gen;
        map2
          (fun name sql -> Protocol.Explain { name; sql })
          word_gen tail_gen;
        return Protocol.List;
        map2
          (fun name path -> Protocol.Load { name; path })
          word_gen word_gen;
        map2
          (fun name path -> Protocol.Refresh { name; path })
          word_gen word_gen;
        map3
          (fun name path rate -> Protocol.Attach { name; path; rate })
          word_gen word_gen
          (* %.17g round-trips any float; simple rates keep counter-
             examples readable. *)
          (oneofl [ None; Some 0.01; Some 0.25; Some 1.0 ]);
        map3
          (fun name ci sql -> Protocol.Plan { name; ci; sql })
          word_gen word_gen tail_gen;
        return Protocol.Stats;
        return Protocol.Ping;
        return Protocol.Quit;
      ])

let request_arb =
  QCheck.make ~print:Protocol.print_request request_gen

let response_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun lines -> Protocol.Ok lines) (list_size (int_range 0 5) tail_gen);
        map2
          (fun code message -> Protocol.Err { code; message })
          word_gen tail_gen;
      ])

let response_arb =
  QCheck.make
    ~print:(fun r -> String.concat "\\n" (Protocol.print_response r))
    response_gen

let prop name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:500 ~name arb f)

let request_roundtrip =
  prop "request print/parse round-trip" request_arb (fun r ->
      Protocol.parse_request (Protocol.print_request r) = Ok r)

let response_roundtrip =
  prop "response print/parse round-trip" response_arb (fun r ->
      Protocol.parse_response (Protocol.print_response r) = Ok r)

let test_protocol_negatives () =
  let bad s =
    match Protocol.parse_request s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "parsed %S" s
  in
  bad "";
  bad "   ";
  bad "FROBNICATE x";
  bad "QUERY";
  bad "QUERY onlyname";
  bad "LIST extra";
  bad "LOAD name path with spaces";
  bad "REFRESH";
  bad "REFRESH onlyname";
  bad "REFRESH name path with spaces";
  bad "ATTACH name path with spaces";
  bad "ATTACH name path 2.0";
  bad "ATTACH name path nope";
  bad "PLAN name 95:2";
  (match Protocol.parse_request "query flights SELECT COUNT(*) FROM f" with
  | Ok (Protocol.Query { name = "flights"; sql }) ->
      Alcotest.(check string) "sql tail" "SELECT COUNT(*) FROM f" sql
  | _ -> Alcotest.fail "lowercase keyword should parse");
  match Protocol.parse_header "garbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad header accepted"

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_metrics_percentiles () =
  let m = Metrics.create () in
  (* 100 observations: 1ms .. 100ms. *)
  for i = 1 to 100 do
    Metrics.observe m (float_of_int i /. 1000.)
  done;
  Metrics.incr m Metrics.Requests;
  Metrics.incr m Metrics.Rejects;
  let s = Metrics.snapshot m in
  Alcotest.(check int) "observations" 100 s.Metrics.observations;
  Alcotest.(check int) "requests" 1 s.Metrics.requests;
  Alcotest.(check int) "rejects" 1 s.Metrics.rejects;
  Alcotest.(check bool) "p50 ordered" true (s.Metrics.p50_us <= s.Metrics.p95_us);
  Alcotest.(check bool) "p95 ordered" true (s.Metrics.p95_us <= s.Metrics.p99_us);
  Alcotest.(check bool) "p99 <= max" true (s.Metrics.p99_us <= s.Metrics.max_us);
  (* Log-bucket resolution is ~26%: p50 should land within a bucket of the
     true median (50 ms), p99 near 99 ms. *)
  Alcotest.(check bool) "p50 ballpark" true
    (s.Metrics.p50_us > 30_000. && s.Metrics.p50_us < 80_000.);
  Alcotest.(check bool) "p99 ballpark" true
    (s.Metrics.p99_us > 70_000. && s.Metrics.p99_us <= 100_000.);
  Alcotest.(check (float 1.)) "max exact" 100_000. s.Metrics.max_us

(* ------------------------------------------------------------------ *)
(* Catalog                                                             *)
(* ------------------------------------------------------------------ *)

let test_catalog_lru () =
  let dir = temp_dir () in
  let s1 = small_summary ~seed:11 () in
  let s2 = small_summary ~seed:12 () in
  let p1 = saved_summary dir "one" s1 in
  let p2 = saved_summary dir "two" s2 in
  let catalog = Catalog.create ~capacity:1 () in
  (match Catalog.load catalog ~name:"one" ~path:p1 with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  Alcotest.(check bool) "one resident" true (Catalog.find catalog "one" <> None);
  (match Catalog.load catalog ~name:"two" ~path:p2 with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  (* Capacity 1: loading two evicted one. *)
  Alcotest.(check bool) "one evicted" true (Catalog.find catalog "one" = None);
  Alcotest.(check bool) "two resident" true (Catalog.find catalog "two" <> None);
  let st = Catalog.stats catalog in
  Alcotest.(check int) "resident" 1 st.Catalog.resident;
  Alcotest.(check int) "loads" 2 st.Catalog.loads;
  Alcotest.(check int) "evictions" 1 st.Catalog.evictions;
  Alcotest.(check int) "hits" 2 st.Catalog.hits;
  Alcotest.(check int) "misses" 1 st.Catalog.misses;
  (match Catalog.load catalog ~name:"bad" ~path:(Filename.concat dir "nope") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "loaded a missing file");
  Alcotest.(check bool) "evict by name" true (Catalog.evict catalog "two");
  Alcotest.(check bool) "evict missing" false (Catalog.evict catalog "two")

let saved_summary_v3 dir name summary =
  let path = Filename.concat dir (name ^ ".v3") in
  Serialize.save summary path;
  path

(* One summary saved under several names: identical byte footprints, so a
   byte budget admits an exact entry count and eviction order is pure
   LRU — assertable to the entry. *)
let test_catalog_weighted () =
  let dir = temp_dir () in
  let s = small_summary ~seed:61 () in
  let pa = saved_summary_v3 dir "a" s in
  let pb = saved_summary_v3 dir "b" s in
  let pc = saved_summary_v3 dir "c" s in
  let probe = Catalog.create () in
  let bytes =
    match Catalog.load probe ~name:"a" ~path:pa with
    | Ok e -> e.Catalog.bytes
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check bool) "nonzero footprint" true (bytes > 0);
  let catalog = Catalog.create ~capacity:10 ~budget_bytes:(2 * bytes) () in
  let load name path =
    match Catalog.load catalog ~name ~path with
    | Ok _ -> ()
    | Error m -> Alcotest.fail m
  in
  load "a" pa;
  load "b" pb;
  (* Held past its eviction, as a straggling request would hold it. *)
  let stale =
    List.find (fun e -> e.Catalog.name = "a") (Catalog.entries catalog)
  in
  load "c" pc;
  (* Budget fits exactly two: "a" (the LRU) was evicted, slot kept. *)
  Alcotest.(check bool) "a not resident" true (Catalog.find catalog "a" = None);
  Alcotest.(check bool) "b resident" true (Catalog.find catalog "b" <> None);
  Alcotest.(check bool) "c resident" true (Catalog.find catalog "c" <> None);
  Alcotest.(check bool) "a still known" true (Catalog.known catalog "a");
  let st = Catalog.stats catalog in
  Alcotest.(check int) "resident" 2 st.Catalog.resident;
  Alcotest.(check int) "slots" 3 st.Catalog.slots;
  Alcotest.(check int) "evictions" 1 st.Catalog.evictions;
  Alcotest.(check int) "resident_bytes" (2 * bytes) st.Catalog.resident_bytes;
  (* Transparent reopen of "a": answers bitwise the heap summary's, and
     the new LRU victim is "b" (touched before "c" above). *)
  let arity = Schema.arity (Summary.schema s) in
  let q = Predicate.of_alist ~arity [ (0, Ranges.interval 1 3) ] in
  (* Eviction gave the mapping's pages back; reads fault them in again. *)
  Alcotest.(check (float 0.))
    "evicted entry still answers" (Summary.estimate s q)
    (Summary.estimate stale.Catalog.summary q);
  (match
     Catalog.with_entry catalog "a" (fun e ->
         Summary.estimate e.Catalog.summary q)
   with
  | Ok v ->
      Alcotest.(check (float 0.)) "reopened answer" (Summary.estimate s q) v
  | Error m -> Alcotest.fail m);
  Alcotest.(check bool) "a resident again" true (Catalog.find catalog "a" <> None);
  Alcotest.(check bool) "b evicted in turn" true (Catalog.find catalog "b" = None);
  Alcotest.(check bool) "c survived" true (Catalog.find catalog "c" <> None);
  Alcotest.(check int) "one reopen" 1 (Catalog.stats catalog).Catalog.reopens;
  (* Explicit evict forgets the name entirely. *)
  Alcotest.(check bool) "evict a" true (Catalog.evict catalog "a");
  Alcotest.(check bool) "a unknown now" false (Catalog.known catalog "a");
  (match Catalog.with_entry catalog "a" (fun _ -> ()) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "with_entry resurrected an evicted name")

(* A summary file is verified before its first answer on every surface.
   One byte is flipped in a float table (g0.factors) and, separately, in
   an index table (g0.t_mask); every estimator, the planner, and the
   daemon's QUERY and PLAN paths must then fail on a freshly opened
   summary with the error naming that section. *)
let test_no_answer_before_verification () =
  let contains hay needle =
    let hl = String.length hay and nl = String.length needle in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  let dir = temp_dir () in
  let s = small_summary ~seed:64 () in
  let pristine = saved_summary_v3 dir "pristine" s in
  let original = In_channel.with_open_bin pristine In_channel.input_all in
  let arity = Schema.arity (Summary.schema s) in
  let q = Predicate.of_alist ~arity [ (0, Ranges.interval 1 4) ] in
  let q' = Predicate.of_alist ~arity [ (1, Ranges.interval 0 2) ] in
  let sql = "SELECT COUNT(*) FROM f WHERE a0 IN [1,4]" in
  List.iteri
    (fun i section ->
      let sec =
        List.find
          (fun (x : Serialize.section) -> x.sec_name = section)
          (Serialize.manifest pristine).m_parts.(0).pm_sections
      in
      let b = Bytes.of_string original in
      let pos = sec.sec_off + 3 in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x5b));
      let path = Filename.concat dir (Printf.sprintf "corrupt%d.summary" i) in
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
      let refuses what f =
        match f (Serialize.load path) with
        | exception Serialize.Format_error m when contains m section -> ()
        | exception e ->
            Alcotest.failf "%s over a corrupt %s raised %s" what section
              (Printexc.to_string e)
        | () -> Alcotest.failf "%s answered from a corrupt %s" what section
      in
      refuses "Summary.estimate" (fun m -> ignore (Summary.estimate m q));
      refuses "Summary.count" (fun m -> ignore (Summary.count m q));
      refuses "Summary.sum" (fun m -> ignore (Summary.sum m ~attr:2 q));
      refuses "Summary.groups" (fun m ->
          ignore (Summary.groups m ~attrs:[ 0 ] q));
      refuses "Summary.count_disjuncts" (fun m ->
          ignore (Summary.count_disjuncts m [ q; q' ]));
      let unsat = Predicate.restrict q 0 Ranges.empty in
      refuses "Summary.count_disjuncts, every intersection pruned" (fun m ->
          ignore (Summary.count_disjuncts m [ unsat; unsat ]));
      refuses "Plan.Estimator count" (fun m ->
          ignore
            (Edb_plan.Estimator.count (Edb_plan.Estimator.of_summary m) q));
      List.iter
        (fun (what, request) ->
          let catalog = Catalog.create () in
          (match Catalog.load catalog ~name:"c" ~path with
          | Ok _ -> ()
          | Error m -> Alcotest.failf "LOAD of a corrupt %s: %s" section m);
          match fst (Handler.handle ~catalog ~metrics:(Metrics.create ()) request) with
          | Protocol.Err { message; _ } when contains message section -> ()
          | r ->
              Alcotest.failf "%s over a corrupt %s replied %s" what section
                (String.concat " | " (Protocol.print_response r)))
        [
          ("QUERY", Protocol.Query { name = "c"; sql });
          ("PLAN", Protocol.Plan { name = "c"; ci = "95:50"; sql });
        ])
    [ "g0.factors"; "g0.t_mask" ]

(* Pinning: an entry held by a request survives budget pressure that
   would otherwise evict it; the budget overshoots instead.  A budget
   smaller than a single entry is the degenerate stress: nothing stays
   resident between requests, yet every request succeeds via reopen. *)
(* Random LOAD / acquire / release / evict sequences against a reference
   weighted-LRU model.  One summary is saved under every name, so all
   footprints are equal and the model needs no byte sizes beyond one.
   After each step the residents, resident bytes, evictions and reopens
   must match: the catalog's bookkeeping (the resident set it keeps next
   to the slots) never drifts from the policy. *)
type cat_op = Load of int | Acquire of int | Release of int | Evict of int

let cat_names = 5

let cat_fixture =
  lazy
    (let dir = temp_dir () in
     let s = small_summary ~seed:67 () in
     let paths =
       Array.init cat_names (fun i ->
           saved_summary_v3 dir (Printf.sprintf "n%d" i) s)
     in
     (paths, (Unix.stat paths.(0)).Unix.st_size))

type m_entry = { m_name : string; mutable m_last : int; mutable m_pins : int }

let catalog_matches_model =
  let op_gen =
    QCheck.Gen.(
      map2
        (fun k i ->
          match k with
          | 0 -> Load i
          | 1 | 2 -> Acquire i
          | 3 | 4 -> Release i
          | _ -> Evict i)
        (int_bound 5) (int_bound (cat_names - 1)))
  in
  let print_op = function
    | Load i -> Printf.sprintf "LOAD n%d" i
    | Acquire i -> Printf.sprintf "acquire n%d" i
    | Release i -> Printf.sprintf "release #%d" i
    | Evict i -> Printf.sprintf "EVICT n%d" i
  in
  let arb =
    QCheck.make
      ~print:(fun (cap, budget, ops) ->
        Printf.sprintf "capacity %d, budget %s entries: %s" cap
          (match budget with
          | None -> "unlimited"
          | Some k -> Printf.sprintf "%d.5" k)
          (String.concat "; " (List.map print_op ops)))
      QCheck.Gen.(
        triple (int_range 1 4)
          (opt (int_bound 4))
          (list_size (int_bound 40) op_gen))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:150
       ~name:"catalog matches a weighted-LRU model" arb
       (fun (capacity, budget_k, ops) ->
         let paths, bytes = Lazy.force cat_fixture in
         let budget =
           Option.map (fun k -> (k * bytes) + (bytes / 2)) budget_k
         in
         let cat = Catalog.create ~capacity ?budget_bytes:budget () in
         (* The model: name -> resident entry (None once evicted). *)
         let slots : (string, m_entry option ref) Hashtbl.t =
           Hashtbl.create 8
         in
         let tick = ref 0 and evictions = ref 0 and reopens = ref 0 in
         let residents () =
           Hashtbl.fold
             (fun _ r acc -> match !r with Some e -> e :: acc | None -> acc)
             slots []
         in
         let rec rebalance () =
           let rs = residents () in
           let over =
             List.length rs > capacity
             || match budget with
                | Some b -> List.length rs * bytes > b
                | None -> false
           in
           let lru =
             List.fold_left
               (fun acc e ->
                 match acc with
                 | _ when e.m_pins > 0 -> acc
                 | Some best when best.m_last <= e.m_last -> acc
                 | _ -> Some e)
               None rs
           in
           match lru with
           | Some e when over ->
               Hashtbl.find slots e.m_name := None;
               incr evictions;
               rebalance ()
           | _ -> ()
         in
         let install e =
           (match Hashtbl.find_opt slots e.m_name with
           | Some r -> r := Some e
           | None -> Hashtbl.add slots e.m_name (ref (Some e)));
           incr tick;
           e.m_last <- !tick;
           rebalance ()
         in
         let pinned = ref [] in
         let step op =
           match op with
           | Load i -> (
               let name = Printf.sprintf "n%d" i in
               match Catalog.load cat ~name ~path:paths.(i) with
               | Ok _ -> install { m_name = name; m_last = 0; m_pins = 0 }
               | Error m -> Alcotest.fail m)
           | Acquire i -> (
               let name = Printf.sprintf "n%d" i in
               incr tick;
               let model =
                 match Hashtbl.find_opt slots name with
                 | None -> None
                 | Some { contents = Some e } ->
                     e.m_last <- !tick;
                     e.m_pins <- e.m_pins + 1;
                     Some e
                 | Some { contents = None } ->
                     let e = { m_name = name; m_last = 0; m_pins = 1 } in
                     incr reopens;
                     install e;
                     Some e
               in
               match (Catalog.acquire cat name, model) with
               | Ok entry, Some e -> pinned := (entry, e) :: !pinned
               | Error _, None -> ()
               | Ok _, None -> Alcotest.failf "acquired unknown %s" name
               | Error m, Some _ -> Alcotest.failf "acquire %s: %s" name m)
           | Release k -> (
               match !pinned with
               | [] -> ()
               | ps ->
                   let entry, e = List.nth ps (k mod List.length ps) in
                   pinned := List.filter (fun (x, _) -> x != entry) ps;
                   Catalog.release cat entry;
                   e.m_pins <- e.m_pins - 1;
                   if e.m_pins = 0 then rebalance ())
           | Evict i ->
               let name = Printf.sprintf "n%d" i in
               let known =
                 match Hashtbl.find_opt slots name with
                 | Some r ->
                     if Option.is_some !r then incr evictions;
                     Hashtbl.remove slots name;
                     true
                 | None -> false
               in
               if Catalog.evict cat name <> known then
                 Alcotest.failf "EVICT %s: known %b in the model" name known
         in
         List.for_all
           (fun op ->
             step op;
             let st = Catalog.stats cat in
             let got =
               List.sort compare
                 (List.map (fun e -> e.Catalog.name) (Catalog.entries cat))
             and want =
               List.sort compare (List.map (fun e -> e.m_name) (residents ()))
             in
             got = want
             && st.Catalog.resident_bytes = List.length want * bytes
             && st.Catalog.evictions = !evictions
             && st.Catalog.reopens = !reopens)
           ops))

let test_catalog_pinning () =
  let dir = temp_dir () in
  let s = small_summary ~seed:62 () in
  let pp = saved_summary_v3 dir "p" s in
  let pq = saved_summary_v3 dir "q" s in
  let bytes =
    match Catalog.load (Catalog.create ()) ~name:"p" ~path:pp with
    | Ok e -> e.Catalog.bytes
    | Error m -> Alcotest.fail m
  in
  let catalog = Catalog.create ~capacity:10 ~budget_bytes:bytes () in
  (match Catalog.load catalog ~name:"p" ~path:pp with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  (match
     Catalog.with_entry catalog "p" (fun _ ->
         (* While "p" is pinned, loading "q" blows the budget; the
            unpinned newcomer is the only eviction candidate. *)
         (match Catalog.load catalog ~name:"q" ~path:pq with
         | Ok _ -> ()
         | Error m -> Alcotest.fail m);
         Alcotest.(check bool) "pinned p survives" true
           (Catalog.find catalog "p" <> None);
         Alcotest.(check int) "pinned count" 1
           (Catalog.stats catalog).Catalog.pinned)
   with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  Alcotest.(check int) "unpinned after" 0 (Catalog.stats catalog).Catalog.pinned;
  (* Budget below a single footprint: loads succeed but nothing stays
     resident; with_entry still answers, bitwise, via reopen. *)
  let tiny = Catalog.create ~capacity:10 ~budget_bytes:(max 1 (bytes / 2)) () in
  (match Catalog.load tiny ~name:"p" ~path:pp with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  Alcotest.(check bool) "instantly non-resident" true
    (Catalog.find tiny "p" = None);
  let arity = Schema.arity (Summary.schema s) in
  let q = Predicate.of_alist ~arity [ (1, Ranges.interval 0 2) ] in
  (match
     Catalog.with_entry tiny "p" (fun e -> Summary.estimate e.Catalog.summary q)
   with
  | Ok v -> Alcotest.(check (float 0.)) "tiny-budget answer" (Summary.estimate s q) v
  | Error m -> Alcotest.fail m);
  Alcotest.(check int) "reopened once" 1 (Catalog.stats tiny).Catalog.reopens;
  Alcotest.(check bool) "dropped again after release" true
    (Catalog.find tiny "p" = None)

(* ------------------------------------------------------------------ *)
(* Cache under concurrency (satellite: Core.Cache thread safety)       *)
(* ------------------------------------------------------------------ *)

let test_cache_concurrent () =
  let summary = small_summary ~seed:21 () in
  let cache = Cache.create ~capacity:32 summary in
  let schema = Summary.schema summary in
  let arity = Schema.arity schema in
  (* Mixed-radix indexing over the [6;5;4] domains keeps all 64 predicates
     distinct, so a capacity-32 cache must evict. *)
  let queries =
    List.init 64 (fun k ->
        Predicate.of_alist ~arity
          [
            (0, Ranges.interval 0 (k mod 6));
            (1, Ranges.interval (k / 6 mod 5) 4);
            (2, Ranges.interval 0 (k / 30 mod 4));
          ])
  in
  let expected = List.map (Summary.estimate summary) queries in
  let mismatches = Atomic.make 0 in
  let thread _ =
    for _ = 1 to 50 do
      List.iter2
        (fun q e ->
          if Float.abs (Cache.estimate cache q -. e) > 1e-12 then
            Atomic.incr mismatches)
        queries expected
    done
  in
  let threads = List.init 8 (fun i -> Thread.create thread i) in
  List.iter Thread.join threads;
  Alcotest.(check int) "no mismatches" 0 (Atomic.get mismatches);
  let s = Cache.stats cache in
  Alcotest.(check bool) "bounded" true (s.Cache.entries <= 32);
  Alcotest.(check bool) "evictions counted" true (s.Cache.evictions > 0);
  Alcotest.(check int) "all lookups accounted" (8 * 50 * 64)
    (s.Cache.hits + s.Cache.misses)

(* ------------------------------------------------------------------ *)
(* Handler (no sockets)                                                *)
(* ------------------------------------------------------------------ *)

let test_handler_dispatch () =
  let dir = temp_dir () in
  let summary = small_summary ~seed:31 () in
  let path = saved_summary dir "s" summary in
  let catalog = Catalog.create () in
  let metrics = Metrics.create () in
  let handle r = fst (Handler.handle ~catalog ~metrics r) in
  (match handle (Protocol.Query { name = "s"; sql = "SELECT COUNT(*) FROM f" }) with
  | Protocol.Err { code; _ } ->
      Alcotest.(check string) "unknown summary" Protocol.err_unknown code
  | _ -> Alcotest.fail "expected unknown-summary");
  (match handle (Protocol.Load { name = "s"; path }) with
  | Protocol.Ok _ -> ()
  | Protocol.Err { message; _ } -> Alcotest.fail message);
  (match handle (Protocol.Query { name = "s"; sql = "SELEKT garbage" }) with
  | Protocol.Err { code; _ } ->
      Alcotest.(check string) "parse error code" Protocol.err_parse code
  | _ -> Alcotest.fail "expected parse error");
  (match
     handle (Protocol.Query { name = "s"; sql = "SELECT COUNT(*) FROM f WHERE a0 IN [1,3]" })
   with
  | Protocol.Ok payload ->
      let v = Option.get (Client.estimate_of_payload payload) in
      let q = Predicate.of_alist ~arity:3 [ (0, Ranges.interval 1 3) ] in
      Alcotest.(check (float 1e-9)) "query value" (Summary.estimate summary q) v
  | Protocol.Err { message; _ } -> Alcotest.fail message);
  (match handle (Protocol.Explain { name = "s"; sql = "SELECT COUNT(*) FROM f WHERE a0 = 1" }) with
  | Protocol.Ok payload ->
      Alcotest.(check bool) "explain mentions cacheable" true
        (List.exists (fun l -> l = "cacheable true") payload)
  | Protocol.Err { message; _ } -> Alcotest.fail message);
  match handle Protocol.Stats with
  | Protocol.Ok lines ->
      Alcotest.(check bool) "stats has requests line" true
        (List.exists
           (fun l -> String.length l >= 8 && String.sub l 0 8 = "requests")
           lines)
  | Protocol.Err { message; _ } -> Alcotest.fail message

(* STATS splits a reopen into its open and its section-checksum pass:
   one verify per (re)opened v3 entry, counted when the entry first
   answers. *)
let test_handler_verify_in_stats () =
  Edb_obs.Registry.Hist.reset (Edb_obs.Registry.histogram "mapped_verify_ns");
  let dir = temp_dir () in
  let s = small_summary ~seed:68 () in
  let pa = saved_summary_v3 dir "a" s and pb = saved_summary_v3 dir "b" s in
  let bytes = (Unix.stat pa).Unix.st_size in
  let catalog = Catalog.create ~budget_bytes:bytes () in
  let metrics = Metrics.create () in
  let handle r =
    match fst (Handler.handle ~catalog ~metrics r) with
    | Protocol.Ok lines -> lines
    | Protocol.Err { message; _ } -> Alcotest.fail message
  in
  let verifies () =
    List.find_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ "obs_mapped_verify_ns_count"; v ] -> int_of_string_opt v
        | _ -> None)
      (handle Protocol.Stats)
  in
  let query name =
    ignore
      (handle
         (Protocol.Query
            { name; sql = "SELECT COUNT(*) FROM f WHERE a0 IN [1,3]" }))
  in
  ignore (handle (Protocol.Load { name = "a"; path = pa }));
  query "a";
  Alcotest.(check (option int)) "LOAD + QUERY" (Some 1) (verifies ());
  (* The budget holds one file: loading "b" evicts "a". *)
  ignore (handle (Protocol.Load { name = "b"; path = pb }));
  query "a";
  Alcotest.(check int) "a reopened" 1 (Catalog.stats catalog).Catalog.reopens;
  Alcotest.(check (option int)) "after the reopening QUERY" (Some 2)
    (verifies ())

(* Partitioned summaries must be served transparently: same protocol,
   same answers as querying the summary in-process, with part counts
   surfaced as shards in LOAD/LIST/STATS. *)
let test_handler_sharded () =
  let contains line needle =
    let ll = String.length line and nl = String.length needle in
    let rec go i = i + nl <= ll && (String.sub line i nl = needle || go (i + 1)) in
    go 0
  in
  let dir = temp_dir () in
  let rel = small_relation ~seed:71 [ 6; 5; 4 ] 400 in
  let joints =
    [
      Predicate.of_alist ~arity:3
        [ (0, Ranges.interval 0 2); (1, Ranges.interval 1 3) ];
    ]
  in
  let sh =
    Edb_shard.Builder.build
      ~solver_config:{ Solver.default_config with log_every = 0 }
      rel ~shards:2 ~strategy:Edb_shard.Partition.Rows ~joints
  in
  let path = Filename.concat dir "sharded.edb" in
  Serialize.save sh path;
  let catalog = Catalog.create () in
  let metrics = Metrics.create () in
  let handle r = fst (Handler.handle ~catalog ~metrics r) in
  (match handle (Protocol.Load { name = "sh"; path }) with
  | Protocol.Ok [ line ] ->
      Alcotest.(check bool) "LOAD reports shards" true
        (contains line "shards 2")
  | Protocol.Ok l -> Alcotest.failf "LOAD: %d lines" (List.length l)
  | Protocol.Err { message; _ } -> Alcotest.fail message);
  (match handle Protocol.List with
  | Protocol.Ok [ line ] ->
      Alcotest.(check bool) "LIST reports shards" true
        (contains line "shards 2")
  | Protocol.Ok l -> Alcotest.failf "LIST: %d lines" (List.length l)
  | Protocol.Err { message; _ } -> Alcotest.fail message);
  (match
     handle
       (Protocol.Query
          { name = "sh"; sql = "SELECT COUNT(*) FROM f WHERE a0 IN [1,3]" })
   with
  | Protocol.Ok payload ->
      let v = Option.get (Client.estimate_of_payload payload) in
      let q = Predicate.of_alist ~arity:3 [ (0, Ranges.interval 1 3) ] in
      Alcotest.(check (float 1e-9))
        "wire answer = in-process fan-out"
        (Summary.estimate sh q)
        v
  | Protocol.Err { message; _ } -> Alcotest.fail message);
  let groupby_sql = "SELECT COUNT(*) FROM f GROUP BY a1" in
  (match handle (Protocol.Query { name = "sh"; sql = groupby_sql }) with
  | Protocol.Ok lines ->
      Alcotest.(check int) "one group line per a1 value" 5 (List.length lines);
      (* Estimates and stddevs come from the batched grouped path; they
         must equal the in-process fan-out's answers. *)
      let expected =
        group_cells sh ~attrs:[ 1 ] (Predicate.tautology 3)
        (* The handler's default order: estimate descending, key-broken. *)
        |> List.sort (fun (ka, a, _) (kb, b, _) ->
               let o = Float.compare b a in
               if o <> 0 then o else Stdlib.compare ka kb)
      in
      List.iter2
        (fun line (_, est, sd) ->
          match String.split_on_char ' ' line with
          | "group" :: e :: s :: _ ->
              Alcotest.(check (float 1e-9)) "group estimate" est
                (float_of_string e);
              Alcotest.(check (float 1e-9)) "group stddev" sd
                (float_of_string s)
          | _ -> Alcotest.failf "malformed group line: %s" line)
        lines expected
  | Protocol.Err { message; _ } -> Alcotest.fail message);
  (* The GROUP BY went through the entry's cache: a repeat is a hit. *)
  let entry = Option.get (Catalog.find catalog "sh") in
  let before = (Cache.stats entry.Catalog.cache).Cache.hits in
  (match handle (Protocol.Query { name = "sh"; sql = groupby_sql }) with
  | Protocol.Ok lines ->
      Alcotest.(check int) "same group count on repeat" 5 (List.length lines)
  | Protocol.Err { message; _ } -> Alcotest.fail message);
  Alcotest.(check int)
    "repeated GROUP BY hits the cache" (before + 1)
    (Cache.stats entry.Catalog.cache).Cache.hits;
  match handle Protocol.Stats with
  | Protocol.Ok lines ->
      Alcotest.(check bool) "STATS reports resident shard total" true
        (List.mem "catalog_shards 2" lines)
  | Protocol.Err { message; _ } -> Alcotest.fail message

(* One kernel pass per answer, counted on the [poly.evals] registry
   counter around in-process QUERYs, for a one-part v3 entry and a k = 3
   manifest entry.  Per part: a fresh COUNT evaluates once (estimate and
   variance share it) and its repeat not at all (the cache holds both
   moments); a two-way OR evaluates its three satisfiable intersections
   once each; SUM makes its w and w² passes and AVG its count and w
   passes; a GROUP BY evaluates once on a miss and not on a hit. *)
let test_handler_one_kernel_pass () =
  let dir = temp_dir () in
  let rel = small_relation ~seed:91 [ 6; 5; 4 ] 400 in
  let joints =
    [
      Predicate.of_alist ~arity:3
        [ (0, Ranges.interval 0 2); (1, Ranges.interval 1 3) ];
    ]
  in
  let solver_config = { Solver.default_config with log_every = 0 } in
  let flat = Summary.build ~solver_config rel ~joints in
  let sh =
    Edb_shard.Builder.build ~solver_config rel ~shards:3
      ~strategy:Edb_shard.Partition.Rows ~joints
  in
  let manifest = Filename.concat dir "rows3.edb" in
  Serialize.save sh manifest;
  let evals = Edb_obs.Registry.counter "poly.evals" in
  let count_sql = "SELECT COUNT(*) FROM f WHERE a0 IN [1,3] AND a2 IN [0,2]" in
  let group_sql = "SELECT COUNT(*) FROM f WHERE a2 IN [1,3] GROUP BY a1" in
  List.iter
    (fun (name, path, k) ->
      let catalog = Catalog.create () in
      (match Catalog.load catalog ~name ~path with
      | Ok e ->
          Alcotest.(check int) (name ^ " parts") k (Catalog.num_shards e)
      | Error m -> Alcotest.fail m);
      let metrics = Metrics.create () in
      List.iter
        (fun (what, sql, per_part) ->
          let before = Edb_obs.Registry.Counter.value evals in
          (match
             fst
               (Handler.handle ~catalog ~metrics (Protocol.Query { name; sql }))
           with
          | Protocol.Ok _ -> ()
          | Protocol.Err { message; _ } ->
              Alcotest.failf "%s: %s" what message);
          Alcotest.(check int)
            (Printf.sprintf "%s, k = %d: kernel passes" what k)
            (per_part * k)
            (Edb_obs.Registry.Counter.value evals - before))
        [
          ("fresh COUNT", count_sql, 1);
          ("the same COUNT again", count_sql, 0);
          ("2-way OR", "SELECT COUNT(*) FROM f WHERE a0 = 1 OR a1 = 2", 3);
          ("SUM", "SELECT SUM(a2) FROM f WHERE a0 IN [0,4]", 2);
          ("AVG", "SELECT AVG(a2) FROM f WHERE a0 IN [0,4]", 2);
          ("GROUP BY, miss", group_sql, 1);
          ("GROUP BY, hit", group_sql, 0);
        ])
    [ ("flat", saved_summary_v3 dir "flat" flat, 1); ("rows3", manifest, 3) ]

(* ATTACH wires a base table (and sample) into a resident entry; PLAN
   routes per-request.  Before ATTACH the summary is the only route;
   after it, a tight target must route to the exact scan and answer the
   true count, EXPLAIN must grow a candidate table, and the planner's
   edb_obs counters must surface in STATS. *)
(* QUERY and PLAN order grouped answers by one rule: by estimate,
   descending unless ASC, ties broken by ascending key, then LIMIT.
   Every reply must be the library's cells sorted by that rule (restated
   here independently), rendered byte for byte — including under a WHERE
   no row satisfies, where every cell is 0 and the order is the
   tie-break alone. *)
let test_handler_group_order () =
  let dir = temp_dir () in
  let summary = small_summary ~seed:37 () in
  let path = saved_summary dir "g" summary in
  let catalog = Catalog.create () in
  let metrics = Metrics.create () in
  let handle r = fst (Handler.handle ~catalog ~metrics r) in
  (match handle (Protocol.Load { name = "g"; path }) with
  | Protocol.Ok _ -> ()
  | Protocol.Err { message; _ } -> Alcotest.fail message);
  let empty = Predicate.of_alist ~arity:3 [ (2, Ranges.empty) ] in
  let cases =
    [
      ("", Predicate.tautology 3);
      (* a2's domain is 0..3: no row has 99. *)
      (" WHERE a2 = 99", empty);
    ]
  in
  let orders =
    [
      (" ORDER BY COUNT(*) ASC LIMIT 3", `Asc, Some 3);
      (" ORDER BY COUNT(*) DESC LIMIT 3", `Desc, Some 3);
      ("", `Desc, None);
    ]
  in
  List.iter
    (fun (where, pred) ->
      let cells = group_cells summary ~attrs:[ 0; 1 ] pred in
      if pred == empty then
        Alcotest.(check bool) "unsatisfiable WHERE: every cell 0" true
          (List.for_all (fun (_, e, _) -> e = 0.) cells);
      List.iter
        (fun (order_sql, dir, limit) ->
          let sorted =
            List.sort
              (fun (ka, a, _) (kb, b, _) ->
                let o =
                  match dir with
                  | `Asc -> Float.compare a b
                  | `Desc -> Float.compare b a
                in
                if o <> 0 then o else compare ka kb)
              cells
          in
          let kept =
            match limit with
            | Some k -> List.filteri (fun i _ -> i < k) sorted
            | None -> sorted
          in
          let expected =
            List.map
              (fun (key, e, sd) ->
                Printf.sprintf "group %.17g %.17g %s" e sd
                  (String.concat "," (List.map string_of_int key)))
              kept
          in
          let sql =
            "SELECT COUNT(*) FROM f" ^ where ^ " GROUP BY a0, a1" ^ order_sql
          in
          (match handle (Protocol.Query { name = "g"; sql }) with
          | Protocol.Ok lines ->
              Alcotest.(check (list string)) ("QUERY " ^ sql) expected lines
          | Protocol.Err { message; _ } -> Alcotest.fail message);
          match handle (Protocol.Plan { name = "g"; ci = "95:50"; sql }) with
          | Protocol.Ok (_route :: lines) ->
              Alcotest.(check (list string)) ("PLAN " ^ sql) expected lines
          | Protocol.Ok [] -> Alcotest.fail "empty PLAN payload"
          | Protocol.Err { message; _ } -> Alcotest.fail message)
        orders)
    cases

let test_handler_plan () =
  let starts_with prefix line =
    String.length line >= String.length prefix
    && String.sub line 0 (String.length prefix) = prefix
  in
  let contains line needle =
    let ll = String.length line and nl = String.length needle in
    let rec go i = i + nl <= ll && (String.sub line i nl = needle || go (i + 1)) in
    go 0
  in
  let dir = temp_dir () in
  let seed = 91 in
  let rel = small_relation ~seed [ 6; 5; 4 ] 400 in
  let summary = small_summary ~seed () in
  let path = saved_summary dir "p" summary in
  let csv = Filename.concat dir "p.csv" in
  Csv_io.save_indices rel csv;
  let catalog = Catalog.create () in
  let metrics = Metrics.create () in
  let handle r = fst (Handler.handle ~catalog ~metrics r) in
  (match handle (Protocol.Load { name = "p"; path }) with
  | Protocol.Ok _ -> ()
  | Protocol.Err { message; _ } -> Alcotest.fail message);
  let sql = "SELECT COUNT(*) FROM f WHERE a0 IN [1,3]" in
  (* Summary-only: PLAN works before any ATTACH. *)
  (match handle (Protocol.Plan { name = "p"; ci = "95:50"; sql }) with
  | Protocol.Ok (route :: _) ->
      Alcotest.(check bool) "route line first" true (starts_with "route " route);
      Alcotest.(check bool) "summary is the only route" true
        (contains route "kind summary")
  | Protocol.Ok [] -> Alcotest.fail "empty PLAN payload"
  | Protocol.Err { message; _ } -> Alcotest.fail message);
  (match handle (Protocol.Plan { name = "p"; ci = "garbage"; sql }) with
  | Protocol.Err { code; _ } ->
      Alcotest.(check string) "bad target is a parse error" Protocol.err_parse
        code
  | Protocol.Ok _ -> Alcotest.fail "bad target accepted");
  (match handle (Protocol.Attach { name = "nope"; path = csv; rate = None }) with
  | Protocol.Err _ -> ()
  | Protocol.Ok _ -> Alcotest.fail "ATTACH to a non-resident name accepted");
  (match
     handle (Protocol.Attach { name = "p"; path = csv; rate = Some 0.25 })
   with
  | Protocol.Ok [ line ] ->
      Alcotest.(check bool) "attached line" true (starts_with "attached p" line);
      Alcotest.(check bool) "sample size reported" true
        (contains line "sample_rows 100")
  | Protocol.Ok l -> Alcotest.failf "ATTACH: %d lines" (List.length l)
  | Protocol.Err { message; _ } -> Alcotest.fail message);
  (* A target no estimator's noise can meet routes to the exact scan,
     whose answer is the true count on the wire, bit for bit. *)
  (match handle (Protocol.Plan { name = "p"; ci = "99:0.01:0.01"; sql }) with
  | Protocol.Ok (route :: rest) ->
      Alcotest.(check bool) "tight target routes exact" true
        (contains route "kind exact");
      let q = Predicate.of_alist ~arity:3 [ (0, Ranges.interval 1 3) ] in
      let v = Option.get (Client.estimate_of_payload rest) in
      Alcotest.(check (float 0.))
        "exact route answers the true count"
        (float_of_int (Exec.count rel q))
        v
  | Protocol.Ok [] -> Alcotest.fail "empty PLAN payload"
  | Protocol.Err { message; _ } -> Alcotest.fail message);
  (* GROUP BY planning returns one group line per cell. *)
  (match
     handle
       (Protocol.Plan
          { name = "p"; ci = "95:5"; sql = "SELECT COUNT(*) FROM f GROUP BY a1" })
   with
  | Protocol.Ok (route :: groups) ->
      Alcotest.(check bool) "grouped route line" true (starts_with "route " route);
      Alcotest.(check int) "one line per a1 value" 5 (List.length groups);
      List.iter
        (fun l ->
          Alcotest.(check bool) "group line" true (starts_with "group " l))
        groups
  | Protocol.Ok [] -> Alcotest.fail "empty PLAN payload"
  | Protocol.Err { message; _ } -> Alcotest.fail message);
  (* AVG has no planner error model: ERR unsupported, not a crash. *)
  (match
     handle
       (Protocol.Plan
          { name = "p"; ci = "95:5"; sql = "SELECT AVG(a2) FROM f" })
   with
  | Protocol.Err { code; _ } ->
      Alcotest.(check string) "AVG unsupported" Protocol.err_unsupported code
  | Protocol.Ok _ -> Alcotest.fail "AVG should be unsupported");
  (* EXPLAIN now carries the eager candidate table. *)
  (match handle (Protocol.Explain { name = "p"; sql }) with
  | Protocol.Ok payload ->
      Alcotest.(check bool) "explain has plan candidates" true
        (List.exists (starts_with "plan candidate") payload);
      Alcotest.(check bool) "explain has the chosen route" true
        (List.exists (starts_with "plan route") payload)
  | Protocol.Err { message; _ } -> Alcotest.fail message);
  match handle Protocol.Stats with
  | Protocol.Ok lines ->
      Alcotest.(check bool) "planner route counters surface in STATS" true
        (List.exists (starts_with "obs_plan_route_") lines)
  | Protocol.Err { message; _ } -> Alcotest.fail message

(* REFRESH ingests a batch CSV into a resident summary: answers change
   to the incrementally-maintained summary's, the on-disk file gains a
   journal entry (atomic rewrite), per-summary caches are invalidated,
   and ingest counters surface in STATS.  Sharded and unknown names are
   clean errors. *)
let test_handler_refresh () =
  let contains line needle =
    let ll = String.length line and nl = String.length needle in
    let rec go i = i + nl <= ll && (String.sub line i nl = needle || go (i + 1)) in
    go 0
  in
  let dir = temp_dir () in
  let summary = small_summary ~seed:101 () in
  let path = saved_summary dir "r" summary in
  let batch = small_relation ~seed:102 [ 6; 5; 4 ] 80 in
  let csv = Filename.concat dir "batch.csv" in
  Csv_io.save_indices batch csv;
  let catalog = Catalog.create () in
  let metrics = Metrics.create () in
  let handle r = fst (Handler.handle ~catalog ~metrics r) in
  (match handle (Protocol.Refresh { name = "r"; path = csv }) with
  | Protocol.Err { code; _ } ->
      Alcotest.(check string) "not resident yet" Protocol.err_unknown code
  | Protocol.Ok _ -> Alcotest.fail "refresh of a non-resident name accepted");
  (match handle (Protocol.Load { name = "r"; path }) with
  | Protocol.Ok _ -> ()
  | Protocol.Err { message; _ } -> Alcotest.fail message);
  (* The exact summary the server now serves (alphas round-trip). *)
  let loaded0 = Serialize.load path in
  (match
     handle (Protocol.Refresh { name = "r"; path = Filename.concat dir "nope.csv" })
   with
  | Protocol.Err _ -> ()
  | Protocol.Ok _ -> Alcotest.fail "refresh from a missing CSV accepted");
  let sql = "SELECT COUNT(*) FROM f WHERE a0 IN [1,3]" in
  let q = Predicate.of_alist ~arity:3 [ (0, Ranges.interval 1 3) ] in
  (* Warm the cache with a pre-refresh answer, to prove invalidation. *)
  (match handle (Protocol.Query { name = "r"; sql }) with
  | Protocol.Ok payload ->
      let v = Option.get (Client.estimate_of_payload payload) in
      Alcotest.(check (float 1e-9)) "pre-refresh answer"
        (Summary.estimate summary q) v
  | Protocol.Err { message; _ } -> Alcotest.fail message);
  (match handle (Protocol.Refresh { name = "r"; path = csv }) with
  | Protocol.Ok [ line ] ->
      Alcotest.(check bool) ("refresh line: " ^ line) true
        (contains line "refreshed r"
        && contains line "cardinality 480"
        && contains line "batch_rows 80"
        && contains line "batches 1")
  | Protocol.Ok l -> Alcotest.failf "REFRESH: %d lines" (List.length l)
  | Protocol.Err { message; _ } -> Alcotest.fail message);
  (* Replicate the server's maintenance in-process: the wire answer must
     now be the incrementally-ingested summary's, not the stale cache's. *)
  let refreshed = Edb_ingest.Ingest.append ~source:"batch.csv" loaded0 batch in
  (match handle (Protocol.Query { name = "r"; sql }) with
  | Protocol.Ok payload ->
      let v = Option.get (Client.estimate_of_payload payload) in
      Alcotest.(check (float 1e-9)) "post-refresh answer"
        (Summary.estimate refreshed q) v
  | Protocol.Err { message; _ } -> Alcotest.fail message);
  (* The swap also rewrote the file (atomically): reloading yields the
     refreshed summary with its lineage. *)
  let on_disk = Serialize.load path in
  Alcotest.(check int) "on-disk cardinality" 480 (Summary.cardinality on_disk);
  Alcotest.(check int) "on-disk journal" 1
    (Journal.batches (Summary.journal on_disk));
  (match handle Protocol.Stats with
  | Protocol.Ok lines ->
      Alcotest.(check bool) "refresh counter in STATS" true
        (List.mem "obs_ingest_refreshes 1" lines);
      Alcotest.(check bool) "refresh latency histogram in STATS" true
        (List.exists
           (fun l -> contains l "obs_ingest_refresh_")
           lines)
  | Protocol.Err { message; _ } -> Alcotest.fail message);
  (* Sharded summaries: clean error, not a crash. *)
  let rel = small_relation ~seed:103 [ 6; 5; 4 ] 400 in
  let sh =
    Edb_shard.Builder.build
      ~solver_config:{ Solver.default_config with log_every = 0 }
      rel ~shards:2 ~strategy:Edb_shard.Partition.Rows
      ~joints:
        [
          Predicate.of_alist ~arity:3
            [ (0, Ranges.interval 0 2); (1, Ranges.interval 1 3) ];
        ]
  in
  let shpath = Filename.concat dir "sh.edb" in
  Serialize.save sh shpath;
  (match handle (Protocol.Load { name = "sh"; path = shpath }) with
  | Protocol.Ok _ -> ()
  | Protocol.Err { message; _ } -> Alcotest.fail message);
  match handle (Protocol.Refresh { name = "sh"; path = csv }) with
  | Protocol.Err { message; _ } ->
      Alcotest.(check bool) ("sharded refresh error: " ^ message) true
        (contains message "unsharded")
  | Protocol.Ok _ -> Alcotest.fail "sharded refresh accepted"

(* ------------------------------------------------------------------ *)
(* End-to-end over a Unix-domain socket                                *)
(* ------------------------------------------------------------------ *)

let with_server ?(max_conns = 8) ?(request_deadline = 10.)
    ?(domains = 0) ?(max_inflight = 64) ?catalog dir f =
  let socket = Filename.concat dir "edb.sock" in
  let server =
    Server.create ?catalog
      {
        Server.default_config with
        unix_socket = Some socket;
        max_conns;
        domains;
        max_inflight;
        request_deadline;
        idle_timeout = 10.;
      }
  in
  Server.start server;
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Server.wait server)
    (fun () -> f server socket)

let connect_exn socket =
  match Client.connect ~timeout:10. (Client.Unix_socket socket) with
  | Ok c -> c
  | Error m -> Alcotest.failf "connect: %s" m

let test_e2e_smoke () =
  let dir = temp_dir () in
  let summary = small_summary ~seed:41 () in
  let path = saved_summary dir "flights" summary in
  with_server dir (fun server socket ->
      let c = connect_exn socket in
      (match Client.hello c with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m);
      (match Client.load c ~name:"flights" ~path with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m);
      (match Client.list c with
      | Ok [ line ] ->
          Alcotest.(check bool) "list line" true
            (String.length line > 0
            && String.sub line 0 15 = "summary flights")
      | Ok l -> Alcotest.failf "unexpected LIST payload (%d lines)" (List.length l)
      | Error m -> Alcotest.fail m);
      (* Wire answers must equal in-process answers exactly (%.17g
         round-trips doubles). *)
      let arity = Schema.arity (Summary.schema summary) in
      for k = 0 to 19 do
        let q =
          Predicate.of_alist ~arity
            [
              (0, Ranges.interval (k mod 3) (3 + (k mod 3)));
              (2, Ranges.interval 0 (k mod 4));
            ]
        in
        let sql =
          Printf.sprintf
            "SELECT COUNT(*) FROM f WHERE a0 IN [%d,%d] AND a2 IN [0,%d]"
            (k mod 3)
            (3 + (k mod 3))
            (k mod 4)
        in
        match Client.query c ~name:"flights" ~sql with
        | Error m -> Alcotest.fail m
        | Ok payload ->
            let v = Option.get (Client.estimate_of_payload payload) in
            Alcotest.(check (float 0.))
              ("wire = in-process for " ^ sql)
              (Summary.estimate summary q)
              v
      done;
      (* OR query and SUM exercise the non-cached paths end to end: both
         reply lines equal the library's answer bitwise. *)
      let wire_is what sql (expected : Summary.answer) =
        match Client.query c ~name:"flights" ~sql with
        | Ok payload -> (
            match answer_of payload with
            | Some (est, sd) ->
                Alcotest.(check (float 0.)) (what ^ " estimate") expected.est
                  est;
                Alcotest.(check (float 0.))
                  (what ^ " stddev") (sqrt expected.var) sd
            | None -> Alcotest.failf "%s: no estimate/stddev lines" what)
        | Error m -> Alcotest.fail m
      in
      wire_is "OR query" "SELECT COUNT(*) FROM f WHERE a0 = 1 OR a1 = 2"
        (Summary.count_disjuncts summary
           [
             Predicate.of_alist ~arity [ (0, Ranges.singleton 1) ];
             Predicate.of_alist ~arity [ (1, Ranges.singleton 2) ];
           ]);
      wire_is "SUM" "SELECT SUM(a2) FROM f WHERE a0 IN [0,4]"
        (Summary.sum summary ~attr:2
           (Predicate.of_alist ~arity [ (0, Ranges.interval 0 4) ]));
      (* Malformed SQL: ERR parse, and the connection survives. *)
      (match Client.query c ~name:"flights" ~sql:"SELECT COUNT(*) FORM f" with
      | Error m ->
          Alcotest.(check bool) "parse error code" true
            (String.length m >= 5 && String.sub m 0 5 = "parse")
      | Ok _ -> Alcotest.fail "malformed SQL accepted");
      (match Client.ping c with
      | Ok [ "pong" ] -> ()
      | _ -> Alcotest.fail "connection should survive a parse error");
      (* A repeated GROUP BY attribute is refused at compile time, as a
         parse error, before any cell is enumerated. *)
      (match
         Client.query c ~name:"flights"
           ~sql:"SELECT COUNT(*) FROM f GROUP BY a1, a1 ORDER BY COUNT(*) ASC"
       with
      | Error m ->
          Alcotest.(check string)
            "duplicate GROUP BY error" "parse: duplicate GROUP BY attribute a1"
            m
      | Ok _ -> Alcotest.fail "duplicate GROUP BY attribute accepted");
      (match Client.ping c with
      | Ok [ "pong" ] -> ()
      | _ -> Alcotest.fail "connection should survive a duplicate GROUP BY");
      (* ATTACH a base table, then PLAN routes over the wire. *)
      let csv = Filename.concat dir "flights.csv" in
      Csv_io.save_indices (small_relation ~seed:41 [ 6; 5; 4 ] 400) csv;
      (match Client.attach c ~name:"flights" ~path:csv ~rate:0.5 () with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m);
      (match
         Client.plan c ~name:"flights" ~ci:"95:2"
           ~sql:"SELECT COUNT(*) FROM f WHERE a0 IN [1,3]"
       with
      | Ok (route :: _) ->
          Alcotest.(check bool) "plan leads with the route" true
            (String.length route >= 6 && String.sub route 0 6 = "route ")
      | Ok [] -> Alcotest.fail "empty PLAN payload"
      | Error m -> Alcotest.fail m);
      (* STATS over the wire after traffic. *)
      (match Client.stats c with
      | Ok lines ->
          let find key =
            List.find_map
              (fun l ->
                match String.split_on_char ' ' l with
                | [ k; v ] when k = key -> Some v
                | _ -> None)
              lines
          in
          Alcotest.(check bool) "requests counted" true
            (match find "requests" with
            | Some v -> int_of_string v > 20
            | None -> false);
          Alcotest.(check bool) "latency percentiles present" true
            (find "latency_p50_us" <> None
            && find "latency_p95_us" <> None
            && find "latency_p99_us" <> None);
          Alcotest.(check bool) "cache hit rate present" true
            (find "cache_hit_rate" <> None)
      | Error m -> Alcotest.fail m);
      (match Client.quit c with
      | Ok [ "bye" ] -> ()
      | Ok _ | Error _ -> Alcotest.fail "QUIT should answer bye");
      ignore server)

let test_e2e_concurrent_clients () =
  let dir = temp_dir () in
  let summary = small_summary ~seed:51 () in
  let path = saved_summary dir "s" summary in
  let catalog = Catalog.create () in
  (match Catalog.load catalog ~name:"s" ~path with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  let arity = Schema.arity (Summary.schema summary) in
  let pool =
    Array.init 16 (fun k ->
        let sql =
          Printf.sprintf "SELECT COUNT(*) FROM f WHERE a1 IN [%d,%d]" (k mod 4)
            (min 4 ((k mod 4) + 2))
        in
        let q =
          Predicate.of_alist ~arity
            [ (1, Ranges.interval (k mod 4) (min 4 ((k mod 4) + 2))) ]
        in
        (sql, Summary.estimate summary q))
  in
  with_server ~max_conns:24 ~catalog dir (fun _ socket ->
      let wrong = Atomic.make 0 and failed = Atomic.make 0 in
      let client i =
        match Client.connect ~timeout:10. (Client.Unix_socket socket) with
        | Error _ -> Atomic.incr failed
        | Ok c ->
            for k = 0 to 49 do
              let sql, expected = pool.((i + k) mod Array.length pool) in
              match Client.query c ~name:"s" ~sql with
              | Error _ -> Atomic.incr failed
              | Ok payload -> (
                  match Client.estimate_of_payload payload with
                  | Some v when Float.abs (v -. expected) <= 1e-12 -> ()
                  | _ -> Atomic.incr wrong)
            done;
            ignore (Client.quit c)
      in
      let threads = List.init 16 (fun i -> Thread.create client i) in
      List.iter Thread.join threads;
      Alcotest.(check int) "no transport failures" 0 (Atomic.get failed);
      Alcotest.(check int) "no wrong answers" 0 (Atomic.get wrong))

let test_e2e_busy () =
  let dir = temp_dir () in
  let summary = small_summary ~seed:61 () in
  let path = saved_summary dir "s" summary in
  let catalog = Catalog.create () in
  (match Catalog.load catalog ~name:"s" ~path with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  with_server ~max_conns:1 ~catalog dir (fun server socket ->
      (* First connection occupies the only slot for its lifetime. *)
      let c1 = connect_exn socket in
      (match Client.ping c1 with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m);
      (* Second concurrent connection must be rejected immediately. *)
      let c2 = connect_exn socket in
      (match Client.ping c2 with
      | Error m ->
          Alcotest.(check bool) ("busy reject: " ^ m) true
            (String.length m >= 4 && String.sub m 0 4 = "busy")
      | Ok _ -> Alcotest.fail "expected ERR busy");
      Client.close c2;
      let rejects = (Metrics.snapshot (Server.metrics server)).Metrics.rejects in
      Alcotest.(check bool) "reject counted" true (rejects >= 1);
      (* QUIT frees the slot before its `bye`, so reconnecting right
         away is admitted. *)
      ignore (Client.quit c1);
      let c3 = connect_exn socket in
      (match Client.ping c3 with
      | Ok [ "pong" ] -> ()
      | Ok _ | Error _ -> Alcotest.fail "service should recover after QUIT");
      ignore (Client.quit c3))

let test_e2e_deadline () =
  let dir = temp_dir () in
  let summary = small_summary ~seed:71 () in
  let path = saved_summary dir "s" summary in
  let catalog = Catalog.create () in
  (match Catalog.load catalog ~name:"s" ~path with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  (* An impossible deadline: every evaluated request must answer ERR
     timeout (and still answer, not hang). *)
  with_server ~request_deadline:1e-9 ~catalog dir (fun server socket ->
      let c = connect_exn socket in
      (match Client.query c ~name:"s" ~sql:"SELECT COUNT(*) FROM f WHERE a0 = 1" with
      | Error m ->
          Alcotest.(check bool) ("timeout reject: " ^ m) true
            (String.length m >= 7 && String.sub m 0 7 = "timeout")
      | Ok _ -> Alcotest.fail "expected ERR timeout");
      ignore (Client.quit c);
      let timeouts =
        (Metrics.snapshot (Server.metrics server)).Metrics.timeouts
      in
      Alcotest.(check bool) "timeout counted" true (timeouts >= 1))

let test_e2e_drain () =
  let dir = temp_dir () in
  let summary = small_summary ~seed:81 () in
  let path = saved_summary dir "s" summary in
  let catalog = Catalog.create () in
  (match Catalog.load catalog ~name:"s" ~path with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  let socket = Filename.concat dir "edb.sock" in
  let server =
    Server.create ~catalog
      {
        Server.default_config with
        unix_socket = Some socket;
        max_conns = 4;
      }
  in
  Server.start server;
  let c = connect_exn socket in
  (match Client.query c ~name:"s" ~sql:"SELECT COUNT(*) FROM f WHERE a0 = 2" with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  (* stop() while a connection is open: wait() must return (drain), the
     socket must be unlinked, and the open connection must be closed. *)
  Server.stop server;
  let (), dt = Timing.time (fun () -> Server.wait server) in
  Alcotest.(check bool) "drain is prompt" true (dt < 5.);
  Alcotest.(check bool) "socket unlinked" true (not (Sys.file_exists socket));
  (match Client.ping c with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "connection should be closed after drain");
  Client.close c

(* Satellite: REFRESH is atomic from the clients' side.  While one
   connection REFRESHes the summary (twice), others hammer the same
   query; every answer must be exactly one of the three consistent
   (estimate, stddev) pairs — before, after batch 1, after batch 2 —
   never an error and never a mix of old estimate with new stddev. *)
let test_e2e_refresh_race () =
  let dir = temp_dir () in
  let summary = small_summary ~seed:111 () in
  let path = saved_summary dir "s" summary in
  let b1 = small_relation ~seed:112 [ 6; 5; 4 ] 150 in
  let b2 = small_relation ~seed:113 [ 6; 5; 4 ] 150 in
  let csv1 = Filename.concat dir "b1.csv" in
  let csv2 = Filename.concat dir "b2.csv" in
  Csv_io.save_indices b1 csv1;
  Csv_io.save_indices b2 csv2;
  let catalog = Catalog.create () in
  (match Catalog.load catalog ~name:"s" ~path with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  let q = Predicate.of_alist ~arity:3 [ (0, Ranges.interval 1 3) ] in
  let sql = "SELECT COUNT(*) FROM f WHERE a0 IN [1,3]" in
  (* The three summaries clients may legitimately observe, computed by
     the same deterministic maintenance path the server runs. *)
  let s0 = Serialize.load path in
  let s1 = Edb_ingest.Ingest.append ~source:"b1.csv" s0 b1 in
  let s2 = Edb_ingest.Ingest.append ~source:"b2.csv" s1 b2 in
  let pair s =
    let a = Summary.count s q in
    (a.est, sqrt a.var)
  in
  let consistent = List.map pair [ s0; s1; s2 ] in
  with_server ~max_conns:24 ~catalog dir (fun _ socket ->
      let failed = Atomic.make 0 and mixed = Atomic.make 0 in
      let stop = Atomic.make false in
      let reader _ =
        match Client.connect ~timeout:10. (Client.Unix_socket socket) with
        | Error _ -> Atomic.incr failed
        | Ok c ->
            let n = ref 0 in
            while (not (Atomic.get stop)) || !n = 0 do
              incr n;
              (match Client.query c ~name:"s" ~sql with
              | Error _ -> Atomic.incr failed
              | Ok payload -> (
                  match answer_of payload with
                  | Some (e, s)
                    when List.exists
                           (fun (e', s') -> e = e' && s = s')
                           consistent ->
                      ()
                  | _ -> Atomic.incr mixed));
              Thread.yield ()
            done;
            ignore (Client.quit c)
      in
      let readers = List.init 4 (fun i -> Thread.create reader i) in
      let admin = connect_exn socket in
      (match Client.refresh admin ~name:"s" ~path:csv1 with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m);
      (match Client.refresh admin ~name:"s" ~path:csv2 with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m);
      Atomic.set stop true;
      List.iter Thread.join readers;
      Alcotest.(check int) "no transport failures" 0 (Atomic.get failed);
      Alcotest.(check int) "no mixed or stale-torn answers" 0
        (Atomic.get mixed);
      (* After both refreshes every new answer is the final pair. *)
      (match Client.query admin ~name:"s" ~sql with
      | Error m -> Alcotest.fail m
      | Ok payload -> (
          let e2, sd2 = pair s2 in
          match answer_of payload with
          | Some (e, s) ->
              Alcotest.(check (float 0.)) "final estimate" e2 e;
              Alcotest.(check (float 0.)) "final stddev" sd2 s
          | None -> Alcotest.fail "malformed QUERY payload"));
      ignore (Client.quit admin))

(* 4 threads churning queries over a Unix socket against a catalog whose
   byte budget holds ~2 of 6 mapped summaries: the budget forces
   constant eviction under load, yet every request must succeed
   (transparent reopen) with answers bitwise-equal to the in-process
   heap summaries — eviction may never surface to a client as an error
   or a wrong answer. *)
let test_e2e_catalog_churn () =
  let dir = temp_dir () in
  let named =
    List.init 6 (fun i ->
        let name = Printf.sprintf "s%d" i in
        let s = small_summary ~seed:(70 + i) () in
        (name, s, saved_summary_v3 dir name s))
  in
  let _, _, first_path = List.hd named in
  let bytes =
    match Catalog.load (Catalog.create ()) ~name:"probe" ~path:first_path with
    | Ok e -> e.Catalog.bytes
    | Error m -> Alcotest.fail m
  in
  let budget = (2 * bytes) + (bytes / 2) in
  let catalog = Catalog.create ~capacity:16 ~budget_bytes:budget () in
  with_server ~max_conns:8 ~catalog dir (fun _server socket ->
      let c0 = connect_exn socket in
      List.iter
        (fun (name, _, path) ->
          match Client.load c0 ~name ~path with
          | Ok _ -> ()
          | Error m -> Alcotest.fail m)
        named;
      let arr = Array.of_list named in
      let errors = Atomic.make 0 and mismatches = Atomic.make 0 in
      let thread tid =
        let c = connect_exn socket in
        for k = 0 to 39 do
          let name, s, _ = arr.((tid + k) mod Array.length arr) in
          let lo = k mod 3 and hi = 2 + (k mod 4) in
          let sql =
            Printf.sprintf "SELECT COUNT(*) FROM f WHERE a0 IN [%d,%d]" lo hi
          in
          let q = Predicate.of_alist ~arity:3 [ (0, Ranges.interval lo hi) ] in
          match Client.query c ~name ~sql with
          | Error _ -> Atomic.incr errors
          | Ok payload -> (
              match Client.estimate_of_payload payload with
              | None -> Atomic.incr errors
              | Some v ->
                  if
                    not
                      (Int64.equal (Int64.bits_of_float v)
                         (Int64.bits_of_float (Summary.estimate s q)))
                  then Atomic.incr mismatches)
        done;
        ignore (Client.quit c)
      in
      let threads = List.init 4 (fun i -> Thread.create thread i) in
      List.iter Thread.join threads;
      Alcotest.(check int) "0 errors under churn" 0 (Atomic.get errors);
      Alcotest.(check int) "0 wrong answers under churn" 0
        (Atomic.get mismatches);
      let st = Catalog.stats catalog in
      Alcotest.(check bool) "budget forced reopens" true (st.Catalog.reopens > 0);
      Alcotest.(check bool) "budget holds at rest" true
        (st.Catalog.resident_bytes <= budget);
      Alcotest.(check int) "all six names known" 6 st.Catalog.slots;
      (match Client.stats c0 with
      | Ok lines ->
          let has prefix =
            List.exists
              (fun l ->
                String.length l >= String.length prefix
                && String.sub l 0 (String.length prefix) = prefix)
              lines
          in
          Alcotest.(check bool) "budget reported" true (has "catalog_budget_bytes");
          Alcotest.(check bool) "residency reported" true
            (has "catalog_resident_bytes");
          Alcotest.(check bool) "reopens reported" true (has "catalog_reopens");
          Alcotest.(check bool) "open latency histogram" true
            (has "obs_catalog_open_ns_count")
      | Error m -> Alcotest.fail m);
      ignore (Client.quit c0))

(* ------------------------------------------------------------------ *)
(* Pipelining and coalescing (protocol v2)                             *)
(* ------------------------------------------------------------------ *)

let coalesce_hits () =
  Edb_obs.Registry.Counter.value (Edb_obs.Registry.counter "server_coalesce_hits")

(* Two spellings of the same shape: they compile to the same predicate
   (and share a query-cache entry) but are distinct coalescing keys. *)
let sql_in = "SELECT COUNT(*) FROM f WHERE a0 IN [1,3]"
let sql_cmp = "SELECT COUNT(*) FROM f WHERE a0 BETWEEN 1 AND 3"

(* One connection pipelines 16 queries — 8 of each spelling — in a
   single write, so they land in one executor batch: each spelling must
   evaluate once and fan out, and every answer must be byte-identical
   to the solo (uncoalesced) response. *)
let test_pipeline_coalesce () =
  let dir = temp_dir () in
  let summary = small_summary ~seed:121 () in
  let path = saved_summary dir "s" summary in
  let catalog = Catalog.create () in
  (match Catalog.load catalog ~name:"s" ~path with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  let arity = Schema.arity (Summary.schema summary) in
  let q = Predicate.of_alist ~arity [ (0, Ranges.interval 1 3) ] in
  let expected = Summary.estimate summary q in
  with_server ~domains:1 ~catalog dir (fun _ socket ->
      (* Reference responses, evaluated solo (nothing to coalesce with). *)
      let solo = connect_exn socket in
      let reference sql =
        match Client.request solo (Protocol.Query { name = "s"; sql }) with
        | Ok r -> r
        | Error m -> Alcotest.fail m
      in
      let ref_in = reference sql_in and ref_cmp = reference sql_cmp in
      ignore (Client.quit solo);
      let hits0 = coalesce_hits () in
      let c = connect_exn socket in
      let reqs =
        List.init 16 (fun i ->
            Protocol.Query
              { name = "s"; sql = (if i mod 2 = 0 then sql_in else sql_cmp) })
      in
      (match Client.pipelined c reqs with
      | Error m -> Alcotest.fail m
      | Ok responses ->
          Alcotest.(check int) "all answered" 16 (List.length responses);
          List.iteri
            (fun i r ->
              let want = if i mod 2 = 0 then ref_in else ref_cmp in
              Alcotest.(check bool)
                (Printf.sprintf "response %d byte-identical to solo" i)
                true
                (Protocol.print_response r = Protocol.print_response want);
              match r with
              | Protocol.Ok payload ->
                  let v = Option.get (Client.estimate_of_payload payload) in
                  Alcotest.(check bool)
                    (Printf.sprintf "response %d bitwise = in-process" i)
                    true
                    (Int64.equal (Int64.bits_of_float v)
                       (Int64.bits_of_float expected))
              | Protocol.Err { message; _ } -> Alcotest.fail message)
            responses);
      (* 8 + 8 identical in one batch: 2 evaluations, 14 fan-outs. *)
      Alcotest.(check bool) "coalesce hits counted" true
        (coalesce_hits () - hits0 >= 14);
      ignore (Client.quit c))

(* Same shapes at 4 executor domains: connections spread round-robin
   across executors, and every pipelined answer must still be bitwise
   equal to the in-process evaluation. *)
let test_pipeline_coalesce_domains () =
  let dir = temp_dir () in
  let summary = small_summary ~seed:122 () in
  let path = saved_summary dir "s" summary in
  let catalog = Catalog.create () in
  (match Catalog.load catalog ~name:"s" ~path with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  let arity = Schema.arity (Summary.schema summary) in
  let q = Predicate.of_alist ~arity [ (0, Ranges.interval 1 3) ] in
  let expected = Summary.estimate summary q in
  with_server ~domains:4 ~max_conns:24 ~catalog dir
    (fun server socket ->
      Alcotest.(check int) "4 executor domains" 4 (Server.num_domains server);
      let wrong = Atomic.make 0 and failed = Atomic.make 0 in
      let client _ =
        match Client.connect ~timeout:10. (Client.Unix_socket socket) with
        | Error _ -> Atomic.incr failed
        | Ok c ->
            for _ = 1 to 5 do
              let reqs =
                List.init 16 (fun i ->
                    Protocol.Query
                      {
                        name = "s";
                        sql = (if i mod 2 = 0 then sql_in else sql_cmp);
                      })
              in
              match Client.pipelined c reqs with
              | Error _ -> Atomic.incr failed
              | Ok responses ->
                  List.iter
                    (fun r ->
                      match r with
                      | Protocol.Ok payload -> (
                          match Client.estimate_of_payload payload with
                          | Some v
                            when Int64.equal (Int64.bits_of_float v)
                                   (Int64.bits_of_float expected) ->
                              ()
                          | _ -> Atomic.incr wrong)
                      | Protocol.Err _ -> Atomic.incr wrong)
                    responses
            done;
            ignore (Client.quit c)
      in
      let threads = List.init 4 (fun i -> Thread.create client i) in
      List.iter Thread.join threads;
      Alcotest.(check int) "no transport failures" 0 (Atomic.get failed);
      Alcotest.(check int) "no wrong answers across domains" 0
        (Atomic.get wrong))

(* A mutating verb mid-batch must invalidate coalesced answers: one
   pipelined window `QUERY q; REFRESH b; QUERY q` lands in a single
   executor batch (one write, one wakeup), and the second QUERY must see
   the post-REFRESH summary — byte-identical to a solo post-refresh
   query — never the coalesced pre-REFRESH answer. *)
let test_pipeline_coalesce_refresh () =
  let dir = temp_dir () in
  let summary = small_summary ~seed:131 () in
  let path = saved_summary dir "s" summary in
  let batch = small_relation ~seed:132 [ 6; 5; 4 ] 150 in
  let csv = Filename.concat dir "batch.csv" in
  Csv_io.save_indices batch csv;
  let catalog = Catalog.create () in
  (match Catalog.load catalog ~name:"s" ~path with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  with_server ~domains:1 ~catalog dir (fun _ socket ->
      let solo = connect_exn socket in
      let reference () =
        match
          Client.request solo (Protocol.Query { name = "s"; sql = sql_in })
        with
        | Ok r -> r
        | Error m -> Alcotest.fail m
      in
      let pre = reference () in
      let c = connect_exn socket in
      (match
         Client.pipelined c
           [
             Protocol.Query { name = "s"; sql = sql_in };
             Protocol.Refresh { name = "s"; path = csv };
             Protocol.Query { name = "s"; sql = sql_in };
           ]
       with
      | Error m -> Alcotest.fail m
      | Ok [ first; refreshed; second ] ->
          let post = reference () in
          (match refreshed with
          | Protocol.Ok _ -> ()
          | Protocol.Err { message; _ } ->
              Alcotest.fail ("refresh rejected: " ^ message));
          (* Guard against vacuity: the refresh must actually move the
             answer, or invalidation would be untestable. *)
          Alcotest.(check bool) "refresh changed the answer" true
            (Protocol.print_response pre <> Protocol.print_response post);
          Alcotest.(check bool) "first QUERY = pre-refresh solo" true
            (Protocol.print_response first = Protocol.print_response pre);
          Alcotest.(check bool) "second QUERY = post-refresh solo" true
            (Protocol.print_response second = Protocol.print_response post)
      | Ok rs ->
          Alcotest.failf "expected 3 responses, got %d" (List.length rs));
      ignore (Client.quit c);
      ignore (Client.quit solo))

(* A window far larger than the server's per-connection inflight cap:
   the client must interleave its chunked writes with reads (a single
   up-front write would leave the server answering a non-reading peer)
   and still return every response, in order. *)
let test_pipeline_large_window () =
  let dir = temp_dir () in
  let summary = small_summary ~seed:124 () in
  let path = saved_summary dir "s" summary in
  let catalog = Catalog.create () in
  (match Catalog.load catalog ~name:"s" ~path with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  with_server ~catalog dir (fun _ socket ->
      let c = connect_exn socket in
      let ref_resp =
        match Client.request c (Protocol.Query { name = "s"; sql = sql_in }) with
        | Ok r -> r
        | Error m -> Alcotest.fail m
      in
      let n = 512 in
      (match
         Client.pipelined c
           (List.init n (fun _ -> Protocol.Query { name = "s"; sql = sql_in }))
       with
      | Error m -> Alcotest.fail m
      | Ok responses ->
          Alcotest.(check int) "all answered" n (List.length responses);
          List.iteri
            (fun i r ->
              if Protocol.print_response r <> Protocol.print_response ref_resp
              then Alcotest.failf "response %d differs from solo answer" i)
            responses);
      ignore (Client.quit c))

(* Admission reject racing a pipelined window: every in-flight request
   must surface as ERR busy — the untagged connection-level reject fans
   out to all of them — never as a broken-pipe transport error. *)
let test_pipeline_busy_race () =
  let dir = temp_dir () in
  let summary = small_summary ~seed:123 () in
  let path = saved_summary dir "s" summary in
  let catalog = Catalog.create () in
  (match Catalog.load catalog ~name:"s" ~path with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  with_server ~max_conns:1 ~catalog dir (fun _ socket ->
      let c1 = connect_exn socket in
      (match Client.ping c1 with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m);
      let c2 = connect_exn socket in
      (match
         Client.pipelined c2 [ Protocol.Ping; Protocol.Ping; Protocol.Ping ]
       with
      | Error m -> Alcotest.failf "expected ERR busy on every request, got transport error %s" m
      | Ok responses ->
          Alcotest.(check int) "all three answered" 3 (List.length responses);
          List.iter
            (fun r ->
              match r with
              | Protocol.Err { code; _ } ->
                  Alcotest.(check string) "busy code" Protocol.err_busy code
              | Protocol.Ok _ -> Alcotest.fail "expected ERR busy")
            responses);
      Client.close c2;
      ignore (Client.quit c1))

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Bytes from disk never take the daemon down                          *)
(* ------------------------------------------------------------------ *)

let has s needle =
  let hl = String.length s and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub s i nl = needle || go (i + 1)) in
  go 0

let stats_value c key =
  match Client.stats c with
  | Ok lines ->
      List.find_map
        (fun l ->
          match String.split_on_char ' ' l with
          | [ k; v ] when k = key -> int_of_string_opt v
          | _ -> None)
        lines
  | Error m -> Alcotest.fail m

(* A body that fails verification at the first answer: every request
   that needs the summary replies ERR load naming the path and the
   section, the entry leaves residency (its slot stays), and once the
   file is repaired the next request answers. *)
let test_e2e_verify_failure () =
  let dir = temp_dir () in
  let s = small_summary ~seed:72 () in
  let path = saved_summary dir "s" s in
  let original = In_channel.with_open_bin path In_channel.input_all in
  let sec =
    List.find
      (fun (x : Serialize.section) -> x.sec_name = "g0.factors")
      (Serialize.manifest path).m_parts.(0).pm_sections
  in
  let b = Bytes.of_string original in
  Bytes.set b (sec.sec_off + 5)
    (Char.chr (Char.code (Bytes.get b (sec.sec_off + 5)) lxor 0x21));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
  let sql = "SELECT COUNT(*) FROM f WHERE a0 IN [1,4]" in
  with_server dir (fun _ socket ->
      let c = connect_exn socket in
      (match Client.load c ~name:"s" ~path with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "LOAD (body unread): %s" m);
      let refused what = function
        | Error m ->
            let want = Printf.sprintf "load: %s: bad summary file: " path in
            if
              not
                (String.length m >= String.length want
                && String.sub m 0 (String.length want) = want
                && has m "g0.factors")
            then Alcotest.failf "%s replied %S" what m
        | Ok _ -> Alcotest.failf "%s answered from a corrupt file" what
      in
      refused "QUERY" (Client.query c ~name:"s" ~sql);
      refused "QUERY again" (Client.query c ~name:"s" ~sql);
      refused "PLAN" (Client.plan c ~name:"s" ~ci:"95:50" ~sql);
      Alcotest.(check (option int)) "not resident" (Some 0)
        (stats_value c "catalog_resident");
      Alcotest.(check (option int)) "slot kept" (Some 1)
        (stats_value c "catalog_slots");
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc original);
      match Client.query c ~name:"s" ~sql with
      | Ok payload ->
          let arity = Schema.arity (Summary.schema s) in
          Alcotest.(check (float 0.))
            "answers once repaired"
            (Summary.estimate s
               (Predicate.of_alist ~arity [ (0, Ranges.interval 1 4) ]))
            (Option.get (Client.estimate_of_payload payload))
      | Error m -> Alcotest.failf "QUERY after repair: %s" m)

(* LOAD of a directory names the path, like every other LOAD error. *)
let test_load_directory () =
  let dir = temp_dir () in
  let catalog = Catalog.create () in
  match
    fst
      (Handler.handle ~catalog ~metrics:(Metrics.create ())
         (Protocol.Load { name = "d"; path = dir }))
  with
  | Protocol.Err { code; message } ->
      Alcotest.(check string) "code" Protocol.err_load code;
      Alcotest.(check bool) ("names the path: " ^ message) true
        (has message dir)
  | Protocol.Ok _ -> Alcotest.fail "a directory loaded"

(* Every replaced format, and 600 one-byte flips of a v2 file, sent to a
   running daemon: each LOAD is an ERR load naming the path (the intact
   legacy files also name `entropydb upgrade`), nothing is unmarshaled,
   and the daemon keeps serving the summary it already had. *)
let test_e2e_legacy_loads () =
  let dir = temp_dir () in
  let s = small_summary ~seed:73 () in
  let good = saved_summary dir "good" s in
  let sh =
    Edb_shard.Builder.build
      ~solver_config:{ Solver.default_config with log_every = 0 }
      (small_relation ~seed:74 [ 6; 5; 4 ] 400)
      ~shards:2 ~strategy:Edb_shard.Partition.Rows ~joints:[]
  in
  let legacy =
    [
      ("v1", Summary_files.write_v1 s);
      ("v2", Summary_files.write_v2 s);
      ("manifest", Summary_files.write_manifest sh);
      ("version3", Summary_files.write_v3 (small_summary ~seed:75 ()));
    ]
  in
  let sql = "SELECT COUNT(*) FROM f WHERE a0 IN [1,4]" in
  with_server dir (fun _ socket ->
      let c = connect_exn socket in
      (match Client.load c ~name:"good" ~path:good with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m);
      let expected = Client.query c ~name:"good" ~sql in
      let refused ?hint path =
        match Client.load c ~name:"bad" ~path with
        | Ok _ -> Alcotest.failf "%s loaded" path
        | Error m ->
            if not (has m ("load: " ^ path)) then
              Alcotest.failf "LOAD %s replied %S" path m;
            Option.iter
              (fun h ->
                if not (has m h) then Alcotest.failf "LOAD %s replied %S" path m)
              hint
      in
      List.iter
        (fun (what, write) ->
          let path = Filename.concat dir what in
          write path;
          refused ~hint:"entropydb upgrade" path)
        legacy;
      let v2 = Filename.concat dir "v2" in
      let original = In_channel.with_open_bin v2 In_channel.input_all in
      let len = String.length original in
      let flipped = Filename.concat dir "flipped" in
      for i = 0 to 599 do
        let b = Bytes.of_string original in
        let pos = i * len / 600 in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x10));
        Out_channel.with_open_bin flipped (fun oc ->
            Out_channel.output_bytes oc b);
        refused flipped
      done;
      (match Client.ping c with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "daemon down after the LOADs: %s" m);
      Alcotest.(check bool)
        "the resident summary still answers" true
        (Client.query c ~name:"good" ~sql = expected))

(* Crafted files — one out-of-range element in an index table, every
   checksum recomputed — open (the body is not read at LOAD) and then
   refuse every QUERY with ERR load naming the section; the daemon stays
   up. *)
let test_e2e_crafted_ranges () =
  let dir = temp_dir () in
  let s = small_summary ~seed:76 () in
  let pristine = saved_summary dir "pristine" s in
  let m = Serialize.manifest pristine in
  let len name =
    (List.find
       (fun (x : Serialize.section) -> x.sec_name = name)
       m.m_parts.(0).pm_sections)
      .sec_len
  in
  let crafted =
    [
      ("g0.fa_off", 1, len "g0.fa_attr" + 7);
      ("g0.fa_attr", 0, 3);
      ("g0.iv_off", 1, len "g0.iv_lo" + 1);
      ("g0.iv_lo", 0, -1);
      ("g0.iv_hi", 0, 1_000);
      ("g0.t_mask", 1, len "g0.mask_bits");
      ("g0.mask_bits", 0, 1 lsl 10);
    ]
  in
  with_server dir (fun _ socket ->
      let c = connect_exn socket in
      List.iteri
        (fun i (name, index, v) ->
          let path = Filename.concat dir (Printf.sprintf "crafted%d" i) in
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc
                (In_channel.with_open_bin pristine In_channel.input_all));
          Summary_files.poke path ~name ~index v;
          let key = Printf.sprintf "c%d" i in
          (match Client.load c ~name:key ~path with
          | Ok _ -> ()
          | Error m -> Alcotest.failf "LOAD of crafted %s: %s" name m);
          List.iter
            (fun sql ->
              match Client.query c ~name:key ~sql with
              | Ok _ -> Alcotest.failf "%s answered over a bad %s" sql name
              | Error m ->
                  if not (has m ("load: " ^ path) && has m name) then
                    Alcotest.failf "%s over a bad %s replied %S" sql name m)
            [
              "SELECT COUNT(*) FROM f WHERE a0 IN [1,4]";
              "SELECT COUNT(*) FROM f WHERE a1 IN [0,2] GROUP BY a0";
            ])
        crafted;
      match Client.ping c with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "daemon down: %s" m)

let () =
  (* Writes to sockets the peer already closed (drain test, busy test) must
     surface as EPIPE errors, not kill the test process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Alcotest.run "server"
    [
      ( "protocol",
        [
          request_roundtrip;
          response_roundtrip;
          Alcotest.test_case "negatives and framing" `Quick
            test_protocol_negatives;
        ] );
      ("metrics", [ Alcotest.test_case "percentiles" `Quick test_metrics_percentiles ]);
      ( "catalog",
        [
          Alcotest.test_case "LRU + accounting" `Quick test_catalog_lru;
          Alcotest.test_case "weighted budget + transparent reopen" `Quick
            test_catalog_weighted;
          Alcotest.test_case "no answer before verification" `Quick
            test_no_answer_before_verification;
          Alcotest.test_case "LOAD of a directory names the path" `Quick
            test_load_directory;
          Alcotest.test_case "pinning under budget pressure" `Quick
            test_catalog_pinning;
          catalog_matches_model;
        ] );
      ( "cache",
        [ Alcotest.test_case "concurrent hammering" `Quick test_cache_concurrent ] );
      ( "handler",
        [
          Alcotest.test_case "dispatch" `Quick test_handler_dispatch;
          Alcotest.test_case "sharded summary" `Quick test_handler_sharded;
          Alcotest.test_case "one kernel pass per answer" `Quick
            test_handler_one_kernel_pass;
          Alcotest.test_case "reopen verify in STATS" `Quick
            test_handler_verify_in_stats;
          Alcotest.test_case "attach + plan routing" `Quick test_handler_plan;
          Alcotest.test_case "grouped ORDER BY / LIMIT on QUERY and PLAN"
            `Quick test_handler_group_order;
          Alcotest.test_case "refresh ingests and swaps" `Quick
            test_handler_refresh;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "smoke over unix socket" `Quick test_e2e_smoke;
          Alcotest.test_case "16 concurrent clients" `Quick
            test_e2e_concurrent_clients;
          Alcotest.test_case "refresh race (atomic swap)" `Quick
            test_e2e_refresh_race;
          Alcotest.test_case "admission control (ERR busy)" `Quick test_e2e_busy;
          Alcotest.test_case "request deadline" `Quick test_e2e_deadline;
          Alcotest.test_case "graceful drain" `Quick test_e2e_drain;
          Alcotest.test_case "catalog churn under byte budget" `Quick
            test_e2e_catalog_churn;
          Alcotest.test_case "verify failure at the first answer" `Quick
            test_e2e_verify_failure;
          Alcotest.test_case "replaced formats and v2 flips: ERR load" `Quick
            test_e2e_legacy_loads;
          Alcotest.test_case "out-of-range index tables: ERR load" `Quick
            test_e2e_crafted_ranges;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "coalescing is exact (1 domain)" `Quick
            test_pipeline_coalesce;
          Alcotest.test_case "coalescing is exact (4 domains)" `Quick
            test_pipeline_coalesce_domains;
          Alcotest.test_case "mutating verb invalidates coalesced answers"
            `Quick test_pipeline_coalesce_refresh;
          Alcotest.test_case "large window interleaves writes and reads"
            `Quick test_pipeline_large_window;
          Alcotest.test_case "busy reject fans out to the window" `Quick
            test_pipeline_busy_race;
        ] );
    ]
