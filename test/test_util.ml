(* Tests for the util substrate: PRNG, integer range sets, numeric
   helpers, tables.  Ranges carries most of the polynomial's set algebra,
   so it gets qcheck properties against a reference implementation over
   explicit integer sets. *)

open Edb_util

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:7 () and b = Prng.create ~seed:7 () in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:7 () and b = Prng.create ~seed:8 () in
  let xs = List.init 20 (fun _ -> Prng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Prng.int b 1_000_000) in
  Alcotest.(check bool) "different streams" true (xs <> ys)

let test_prng_bounds () =
  let rng = Prng.create ~seed:3 () in
  for _ = 1 to 1000 do
    let v = Prng.int rng 7 in
    if v < 0 || v >= 7 then Alcotest.failf "out of bounds: %d" v;
    let w = Prng.int_in rng 5 9 in
    if w < 5 || w > 9 then Alcotest.failf "out of range: %d" w;
    let f = Prng.unit_float rng in
    if f < 0. || f >= 1. then Alcotest.failf "float out of range: %f" f
  done

let test_prng_int_rejects_nonpositive () =
  let rng = Prng.create () in
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng 0))

let test_prng_uniformity () =
  (* Chi-squared smoke test: 10 buckets, 10k draws; the statistic should be
     far below the 99.9% critical value (~27.9 for 9 dof). *)
  let rng = Prng.create ~seed:12 () in
  let counts = Array.make 10 0 in
  let draws = 10_000 in
  for _ = 1 to draws do
    let v = Prng.int rng 10 in
    counts.(v) <- counts.(v) + 1
  done;
  let expected = float_of_int draws /. 10. in
  let chi2 =
    Array.fold_left
      (fun acc c -> acc +. (((float_of_int c -. expected) ** 2.) /. expected))
      0. counts
  in
  if chi2 > 27.9 then Alcotest.failf "chi2 too high: %.2f" chi2

let test_prng_split_independence () =
  let parent = Prng.create ~seed:5 () in
  let child = Prng.split parent in
  let xs = List.init 20 (fun _ -> Prng.int parent 1_000_000) in
  let ys = List.init 20 (fun _ -> Prng.int child 1_000_000) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_gaussian_moments () =
  let rng = Prng.create ~seed:9 () in
  let n = 20_000 in
  let xs = Array.init n (fun _ -> Prng.gaussian rng ~mean:3. ~stddev:2.) in
  let mean = Floatx.mean xs and sd = Floatx.stddev xs in
  Alcotest.(check (float 0.1)) "mean" 3. mean;
  Alcotest.(check (float 0.1)) "stddev" 2. sd

let test_shuffle_permutation () =
  let rng = Prng.create ~seed:4 () in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_sample_without_replacement () =
  let rng = Prng.create ~seed:4 () in
  let s = Prng.sample_without_replacement rng ~n:100 ~k:30 in
  Alcotest.(check int) "size" 30 (Array.length s);
  let distinct = List.sort_uniq compare (Array.to_list s) in
  Alcotest.(check int) "distinct" 30 (List.length distinct);
  Array.iter (fun v -> if v < 0 || v >= 100 then Alcotest.fail "out of range") s

let test_categorical_frequencies () =
  let rng = Prng.create ~seed:21 () in
  let dist = Prng.Categorical.create [| 1.; 2.; 7. |] in
  let counts = Array.make 3 0 in
  let draws = 30_000 in
  for _ = 1 to draws do
    let v = Prng.Categorical.sample dist rng in
    counts.(v) <- counts.(v) + 1
  done;
  let freq i = float_of_int counts.(i) /. float_of_int draws in
  Alcotest.(check (float 0.02)) "p0" 0.1 (freq 0);
  Alcotest.(check (float 0.02)) "p1" 0.2 (freq 1);
  Alcotest.(check (float 0.02)) "p2" 0.7 (freq 2)

let test_zipf_monotone () =
  let rng = Prng.create ~seed:30 () in
  let counts = Array.make 5 0 in
  for _ = 1 to 20_000 do
    let v = Prng.zipf rng ~n:5 ~s:1.2 in
    counts.(v) <- counts.(v) + 1
  done;
  for i = 0 to 3 do
    if counts.(i) <= counts.(i + 1) then
      Alcotest.failf "zipf not decreasing at %d: %d <= %d" i counts.(i)
        counts.(i + 1)
  done

(* ------------------------------------------------------------------ *)
(* Ranges: qcheck properties against explicit sets                     *)
(* ------------------------------------------------------------------ *)

let universe = 24

let set_of_ranges r =
  List.filter (fun v -> Ranges.mem v r) (List.init universe Fun.id)

let ranges_gen =
  (* A ranges value over [0, universe): random list of small intervals. *)
  QCheck.Gen.(
    list_size (int_bound 4)
      (pair (int_bound (universe - 1)) (int_bound 5))
    >|= fun pairs ->
    Ranges.of_intervals
      (List.map (fun (lo, len) -> (lo, min (universe - 1) (lo + len))) pairs))

let ranges_arb =
  QCheck.make ~print:(fun r -> Fmt.str "%a" Ranges.pp r) ranges_gen

let prop name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:500 ~name arb f)

let test_ranges_props =
  [
    prop "inter = set intersection" QCheck.(pair ranges_arb ranges_arb)
      (fun (a, b) ->
        set_of_ranges (Ranges.inter a b)
        = List.filter (fun v -> Ranges.mem v b) (set_of_ranges a));
    prop "union = set union" QCheck.(pair ranges_arb ranges_arb)
      (fun (a, b) ->
        set_of_ranges (Ranges.union a b)
        = List.sort_uniq compare (set_of_ranges a @ set_of_ranges b));
    prop "diff = set difference" QCheck.(pair ranges_arb ranges_arb)
      (fun (a, b) ->
        set_of_ranges (Ranges.diff a b)
        = List.filter (fun v -> not (Ranges.mem v b)) (set_of_ranges a));
    prop "complement twice is identity" ranges_arb (fun a ->
        Ranges.equal (Ranges.complement ~size:universe
             (Ranges.complement ~size:universe a)) a);
    prop "cardinal matches" ranges_arb (fun a ->
        Ranges.cardinal a = List.length (set_of_ranges a));
    prop "subset iff diff empty" QCheck.(pair ranges_arb ranges_arb)
      (fun (a, b) ->
        Ranges.subset a b = List.for_all (fun v -> Ranges.mem v b) (set_of_ranges a));
    prop "disjoint iff no common element" QCheck.(pair ranges_arb ranges_arb)
      (fun (a, b) ->
        Ranges.disjoint a b
        = not (List.exists (fun v -> Ranges.mem v b) (set_of_ranges a)));
    prop "normalization coalesces adjacent" ranges_arb (fun a ->
        (* No two stored intervals touch or overlap. *)
        let rec ok = function
          | (_, h1) :: ((l2, _) :: _ as rest) -> h1 + 1 < l2 && ok rest
          | _ -> true
        in
        ok (Ranges.intervals a));
    prop "to_list sorted ascending" ranges_arb (fun a ->
        let l = Ranges.to_list a in
        l = List.sort_uniq compare l);
  ]

let test_ranges_basics () =
  let r = Ranges.of_intervals [ (3, 5); (1, 2); (6, 8) ] in
  Alcotest.(check (list (pair int int))) "coalesced" [ (1, 8) ]
    (Ranges.intervals r);
  Alcotest.(check bool) "mem" true (Ranges.mem 4 r);
  Alcotest.(check bool) "not mem" false (Ranges.mem 0 r);
  Alcotest.(check int) "cardinal" 8 (Ranges.cardinal r);
  Alcotest.(check int) "min" 1 (Ranges.min_elt r);
  Alcotest.(check int) "max" 8 (Ranges.max_elt r);
  Alcotest.check_raises "empty min" (Invalid_argument "Ranges.min_elt: empty")
    (fun () -> ignore (Ranges.min_elt Ranges.empty))

let test_ranges_interval_validation () =
  Alcotest.check_raises "hi < lo" (Invalid_argument "Ranges.interval: hi < lo")
    (fun () -> ignore (Ranges.interval 5 4))

(* ------------------------------------------------------------------ *)
(* Floatx                                                              *)
(* ------------------------------------------------------------------ *)

let test_floatx () =
  Alcotest.(check bool) "approx_eq" true (Floatx.approx_eq 1.0 (1.0 +. 1e-12));
  Alcotest.(check bool) "not approx_eq" false (Floatx.approx_eq 1.0 1.1);
  Alcotest.(check (float 1e-9)) "clamp low" 0. (Floatx.clamp ~lo:0. ~hi:1. (-5.));
  Alcotest.(check (float 1e-9)) "clamp high" 1. (Floatx.clamp ~lo:0. ~hi:1. 5.);
  Alcotest.(check (float 1e-9)) "safe_div" 0. (Floatx.safe_div 1. 0.);
  Alcotest.(check (float 1e-9)) "mean" 2. (Floatx.mean [| 1.; 2.; 3. |]);
  Alcotest.(check (float 1e-9)) "variance" 1. (Floatx.variance [| 1.; 2.; 3. |]);
  Alcotest.(check (float 1e-9)) "median" 2. (Floatx.median [| 3.; 1.; 2. |]);
  Alcotest.(check (float 1e-9)) "quantile 0" 1. (Floatx.quantile [| 3.; 1.; 2. |] 0.);
  Alcotest.(check (float 1e-9)) "quantile 1" 3. (Floatx.quantile [| 3.; 1.; 2. |] 1.)

let test_ksum_precision () =
  (* Kahan summation keeps the classic 1e16 + many small values stable. *)
  let arr = Array.make 10_001 1. in
  arr.(0) <- 1e16;
  let naive = Array.fold_left ( +. ) 0. arr in
  let kahan = Floatx.ksum arr in
  Alcotest.(check bool) "kahan at least as accurate" true
    (Float.abs (kahan -. (1e16 +. 10_000.))
    <= Float.abs (naive -. (1e16 +. 10_000.)))

(* ------------------------------------------------------------------ *)
(* Parallel                                                            *)
(* ------------------------------------------------------------------ *)

let test_parallel_fold_matches_sequential () =
  let data = Array.init 10_000 (fun i -> (i * 37 mod 101) - 50) in
  let chunk ~lo ~hi =
    let acc = ref 0 in
    for i = lo to hi - 1 do
      acc := !acc + data.(i)
    done;
    !acc
  in
  let seq = chunk ~lo:0 ~hi:(Array.length data) in
  List.iter
    (fun domains ->
      let par =
        Parallel.fold ~domains ~n:(Array.length data) ~chunk
          ~combine:( + ) ~init:0
      in
      Alcotest.(check int) (Printf.sprintf "%d domains" domains) seq par)
    [ 1; 2; 3; 4; 7 ]

let test_parallel_fold_edge_cases () =
  let chunk ~lo ~hi = hi - lo in
  Alcotest.(check int) "n = 0" 0
    (Parallel.fold ~domains:4 ~n:0 ~chunk ~combine:( + ) ~init:0);
  Alcotest.(check int) "n = 1" 1
    (Parallel.fold ~domains:4 ~n:1 ~chunk ~combine:( + ) ~init:0);
  Alcotest.(check int) "n < domains" 3
    (Parallel.fold ~domains:8 ~n:3 ~chunk ~combine:( + ) ~init:0);
  (* Chunks must exactly tile [0, n); collect bounds through the combine
     path (chunk results, not shared mutation — workers run on separate
     domains). *)
  let pieces =
    Parallel.fold ~domains:3 ~n:10
      ~chunk:(fun ~lo ~hi -> [ (lo, hi) ])
      ~combine:( @ ) ~init:[]
  in
  let covered = Array.make 10 0 in
  List.iter
    (fun (lo, hi) ->
      for i = lo to hi - 1 do
        covered.(i) <- covered.(i) + 1
      done)
    pieces;
  Alcotest.(check bool) "tiles exactly once" true
    (Array.for_all (fun c -> c = 1) covered)

(* The sharded builder (lib/shard) folds per-shard summaries with a
   list-concat combine and relies on fold combining chunk results left to
   right whatever the domain count.  Guard that invariant as properties:
   any chunking of a sum of small-integer-valued floats (whose partial
   sums are exact, so reassociation cannot show through) and any chunking
   of an index enumeration must reproduce the sequential answer bit for
   bit. *)

let parallel_props =
  let fold_sum data domains =
    Parallel.fold ~domains ~n:(Array.length data)
      ~chunk:(fun ~lo ~hi ->
        let acc = ref 0. in
        for i = lo to hi - 1 do
          acc := !acc +. data.(i)
        done;
        !acc)
      ~combine:( +. ) ~init:0.
  in
  [
    prop "float-sum fold identical across domains 1/2/8"
      QCheck.(list_of_size Gen.(int_range 0 300) (int_range (-1000) 1000))
      (fun ints ->
        let data = Array.of_list (List.map float_of_int ints) in
        let seq = fold_sum data 1 in
        (* Exact float equality is the point of the property. *)
        Float.equal seq (fold_sum data 2) && Float.equal seq (fold_sum data 8));
    prop "list-concat fold preserves index order"
      QCheck.(pair (int_range 0 100) (int_range 1 10))
      (fun (n, domains) ->
        Parallel.fold ~domains ~n
          ~chunk:(fun ~lo ~hi -> List.init (hi - lo) (fun i -> lo + i))
          ~combine:( @ ) ~init:[]
        = List.init n Fun.id);
  ]

(* ------------------------------------------------------------------ *)
(* Table                                                               *)
(* ------------------------------------------------------------------ *)

let test_table_render () =
  let t =
    Table.create ~title:"T" ~headers:[ "a"; "bb" ]
      ~aligns:[ Table.Left; Table.Right ] ()
  in
  Table.add_row t [ "x"; "1" ];
  Table.add_row t [ "yy"; "22" ];
  let out = Table.render t in
  Alcotest.(check bool) "has title" true (String.length out > 0);
  Alcotest.(check bool) "header present" true
    (String.length out >= 1 && String.sub out 0 1 = "T");
  Alcotest.check_raises "wrong arity"
    (Invalid_argument "Table.add_row: wrong number of cells") (fun () ->
      Table.add_row t [ "only-one" ])

let test_table_csv () =
  let t = Table.create ~title:"T" ~headers:[ "a"; "b" ] () in
  Table.add_row t [ "x,y"; "plain" ];
  let csv = Table.to_csv t in
  Alcotest.(check string) "escapes commas" "a,b\n\"x,y\",plain\n" csv

(* ------------------------------------------------------------------ *)
(* Timing                                                              *)
(* ------------------------------------------------------------------ *)

let test_stopwatch () =
  let sw = Timing.stopwatch () in
  Alcotest.(check (float 1e-9)) "zero" 0. (Timing.elapsed sw);
  Timing.start sw;
  Timing.stop sw;
  Alcotest.(check bool) "accumulated >= 0" true (Timing.elapsed sw >= 0.);
  Alcotest.(check int) "one sample" 1 (Timing.samples sw);
  Alcotest.check_raises "stop unstarted"
    (Invalid_argument "Timing.stop: not started") (fun () -> Timing.stop sw)

(* Stress a single stopwatch from 4 concurrent domains.  Every domain's
   in-flight start lives in domain-local storage and the accumulators are
   striped atomics, so the sample count must be exact (no lost or torn
   intervals) and the total must bound the per-domain local sums. *)
let test_stopwatch_concurrent () =
  let domains = 4 and iters = 2_000 in
  let sw = Timing.stopwatch () in
  let worker () =
    let local = ref 0. in
    for _ = 1 to iters do
      let t0 = Timing.now_s () in
      Timing.start sw;
      Timing.stop sw;
      local := !local +. (Timing.now_s () -. t0)
    done;
    !local
  in
  let handles = List.init domains (fun _ -> Domain.spawn worker) in
  let bounds = List.map Domain.join handles in
  Alcotest.(check int) "no lost samples" (domains * iters) (Timing.samples sw);
  let total = Timing.elapsed sw in
  Alcotest.(check bool) "elapsed non-negative" true (total >= 0.);
  (* Each interval is enclosed by the worker's own [now_s] reads, so the
     accumulated total can never exceed the sum of those outer bounds. *)
  let outer = List.fold_left ( +. ) 0. bounds in
  Alcotest.(check bool) "elapsed within outer bound" true
    (total <= outer +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Mpsc                                                                *)
(* ------------------------------------------------------------------ *)

let test_mpsc_fifo () =
  let q = Mpsc.create () in
  Alcotest.(check bool) "fresh queue empty" true (Mpsc.is_empty q);
  Alcotest.(check (list int)) "empty drain" [] (Mpsc.drain q);
  List.iter (Mpsc.push q) [ 1; 2; 3 ];
  Alcotest.(check int) "length" 3 (Mpsc.length q);
  Alcotest.(check (list int)) "FIFO drain" [ 1; 2; 3 ] (Mpsc.drain q);
  Alcotest.(check bool) "drained empty" true (Mpsc.is_empty q);
  Mpsc.push q 4;
  Alcotest.(check (list int)) "reusable after drain" [ 4 ] (Mpsc.drain q)

(* 4 producer domains push disjoint tagged sequences while one consumer
   drains concurrently: nothing lost, nothing duplicated, and each
   producer's items arrive in its own push order. *)
let test_mpsc_concurrent () =
  let producers = 4 and per = 5_000 in
  let q = Mpsc.create () in
  let spawn p =
    Domain.spawn (fun () ->
        for i = 0 to per - 1 do
          Mpsc.push q ((p * per) + i)
        done)
  in
  let handles = List.init producers spawn in
  let seen = ref [] and total = ref 0 in
  while !total < producers * per do
    let items = Mpsc.drain q in
    total := !total + List.length items;
    seen := List.rev_append items !seen
  done;
  List.iter Domain.join handles;
  Alcotest.(check (list int)) "nothing after the last drain" [] (Mpsc.drain q);
  let per_producer = Array.make producers [] in
  List.iter
    (fun x -> per_producer.(x / per) <- (x mod per) :: per_producer.(x / per))
    !seen;
  (* [seen] is reverse arrival order, so each per-producer list must come
     out ascending — exactly its push order. *)
  Array.iteri
    (fun p l ->
      Alcotest.(check int)
        (Printf.sprintf "producer %d complete" p)
        per (List.length l);
      Alcotest.(check bool)
        (Printf.sprintf "producer %d FIFO" p)
        true
        (List.for_all2 ( = ) l (List.init per Fun.id)))
    per_producer

(* ------------------------------------------------------------------ *)
(* Crc32                                                               *)
(* ------------------------------------------------------------------ *)

(* The bytewise reference: one table lookup per byte, the loop the
   slicing-by-8 implementation must agree with. *)
let crc32_reference s =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xEDB8_8320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let crc = ref 0xFFFF_FFFF in
  String.iter
    (fun ch ->
      crc := table.((!crc lxor Char.code ch) land 0xff) lxor (!crc lsr 8))
    s;
  !crc lxor 0xFFFF_FFFF

let bigchar_of_string s =
  let a = Bigarray.(Array1.create char c_layout (String.length s)) in
  String.iteri (fun i c -> a.{i} <- c) s;
  a

let test_crc32_known_answers () =
  List.iter
    (fun (s, want) ->
      let check what got =
        Alcotest.(check int) (what ^ " " ^ String.escaped s) want got
      in
      check "string" (Crc32.string s);
      check "bytes" (Crc32.bytes (Bytes.of_string s));
      check "bigchar" (Crc32.bigchar (bigchar_of_string s)))
    [ ("", 0); ("123456789", 0xCBF4_3926) ];
  (* The 8-byte step keeps its loads unboxed: a mapped summary's
     checksum pass allocates nothing per byte. *)
  let buf = bigchar_of_string (String.make 65536 'z') in
  ignore (Crc32.bigchar buf);
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Crc32.bigchar buf));
  let words = Gc.minor_words () -. before in
  if words > 64. then
    Alcotest.failf "Crc32.bigchar allocated %.0f words for 64 KiB" words

(* Every prefix length 0-70 (so every tail length mod 8) of a random
   string, also as a section-style view at an unaligned offset into a
   larger buffer. *)
let crc32_props =
  let arb =
    QCheck.make
      ~print:(fun (s, off) -> Printf.sprintf "%S @%d" s off)
      QCheck.Gen.(pair (string_size ~gen:char (return 70)) (int_bound 9))
  in
  [
    prop "string, bytes, bigchar and unaligned views = bytewise" arb
      (fun (s, off) ->
        let padded = bigchar_of_string (String.make off 'x' ^ s ^ "yz") in
        List.for_all
          (fun len ->
            let s = String.sub s 0 len in
            let want = crc32_reference s in
            Crc32.string s = want
            && Crc32.bytes (Bytes.of_string s) = want
            && Crc32.bigchar (bigchar_of_string s) = want
            && Crc32.bigchar (Bigarray.Array1.sub padded off len) = want)
          (List.init 71 Fun.id));
  ]

let () =
  Alcotest.run "entropydb-util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "rejects non-positive bound" `Quick
            test_prng_int_rejects_nonpositive;
          Alcotest.test_case "uniformity (chi2)" `Quick test_prng_uniformity;
          Alcotest.test_case "split independence" `Quick
            test_prng_split_independence;
          Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
          Alcotest.test_case "shuffle is permutation" `Quick
            test_shuffle_permutation;
          Alcotest.test_case "sample without replacement" `Quick
            test_sample_without_replacement;
          Alcotest.test_case "categorical frequencies" `Quick
            test_categorical_frequencies;
          Alcotest.test_case "zipf monotone" `Quick test_zipf_monotone;
        ] );
      ( "ranges",
        Alcotest.test_case "basics" `Quick test_ranges_basics
        :: Alcotest.test_case "interval validation" `Quick
             test_ranges_interval_validation
        :: test_ranges_props );
      ( "floatx",
        [
          Alcotest.test_case "basics" `Quick test_floatx;
          Alcotest.test_case "kahan precision" `Quick test_ksum_precision;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "fold matches sequential" `Quick
            test_parallel_fold_matches_sequential;
          Alcotest.test_case "edge cases and tiling" `Quick
            test_parallel_fold_edge_cases;
        ]
        @ parallel_props );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "csv escaping" `Quick test_table_csv;
        ] );
      ( "timing",
        [
          Alcotest.test_case "stopwatch" `Quick test_stopwatch;
          Alcotest.test_case "concurrent 4-domain stress" `Quick
            test_stopwatch_concurrent;
        ] );
      ( "crc32",
        Alcotest.test_case "known answers, no allocation" `Quick
          test_crc32_known_answers
        :: crc32_props );
      ( "mpsc",
        [
          Alcotest.test_case "single-threaded FIFO" `Quick test_mpsc_fifo;
          Alcotest.test_case "4 producers, concurrent drains" `Quick
            test_mpsc_concurrent;
        ] );
    ]
