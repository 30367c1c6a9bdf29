(* Tests for the streaming-ingest subsystem (lib/ingest) and its
   foundations: delta-Φ maintenance (Phi.append), warm-started solves
   (Solver.solve ~init), the ingest journal, atomic persistence, and the
   versioned summary format — v1 files still load, future versions are a
   Format_error, v2 round-trips the journal. *)

open Edb_util
open Edb_storage
open Entropydb_core
open Edb_ingest

let quiet = { Solver.default_config with Solver.log_every = 0 }

let make_schema sizes =
  Schema.create
    (List.mapi
       (fun i n ->
         Schema.attr
           (Printf.sprintf "a%d" i)
           (Domain.int_bins ~lo:0 ~hi:(n - 1) ~width:1))
       sizes)

let sizes = [ 6; 5; 4 ]

let random_relation ~seed rows =
  let schema = make_schema sizes in
  let rng = Edb_util.Prng.create ~seed () in
  let b = Relation.builder ~capacity:rows schema in
  for _ = 1 to rows do
    Relation.add_row b
      (Array.init (List.length sizes) (fun i ->
           Edb_util.Prng.int rng (Schema.domain_size schema i)))
  done;
  Relation.build b

let joints =
  [
    Predicate.of_alist ~arity:3
      [ (0, Ranges.interval 0 2); (1, Ranges.interval 1 3) ];
    Predicate.of_alist ~arity:3
      [ (0, Ranges.interval 3 5); (1, Ranges.interval 0 1) ];
  ]

let build_summary rel = Summary.build ~solver_config:quiet rel ~joints

let concat a b =
  let schema = Relation.schema a in
  let bld =
    Relation.builder
      ~capacity:(Relation.cardinality a + Relation.cardinality b)
      schema
  in
  Relation.iteri (fun _ r -> Relation.add_row bld (Array.copy r)) a;
  Relation.iteri (fun _ r -> Relation.add_row bld (Array.copy r)) b;
  Relation.build bld

(* Mixed-radix probe predicates covering all three attributes. *)
let probes =
  List.init 24 (fun k ->
      Predicate.of_alist ~arity:3
        [
          (0, Ranges.interval 0 (k mod 6));
          (1, Ranges.interval (k / 6 mod 5) 4);
          (2, Ranges.interval 0 (k / 12 mod 4));
        ])

let contains line needle =
  let ll = String.length line and nl = String.length needle in
  let rec go i = i + nl <= ll && (String.sub line i nl = needle || go (i + 1)) in
  go 0

let temp_dir () =
  let path = Filename.temp_file "edb-test-ingest" "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

(* ------------------------------------------------------------------ *)
(* Delta-Φ maintenance                                                  *)
(* ------------------------------------------------------------------ *)

(* Appending a batch must land on exactly the statistics a full recount
   of the union would produce: targets are counts, so s_j(I ⊎ B) =
   s_j(I) + s_j(B) holds exactly in floating point (small integers). *)
let test_phi_append_exact () =
  let base = random_relation ~seed:1 400 in
  let batch = random_relation ~seed:2 60 in
  let s_base = build_summary base in
  let phi_inc = Phi.append (Poly.phi (Summary.poly s_base)) batch in
  let s_full = build_summary (concat base batch) in
  let phi_full = Poly.phi (Summary.poly s_full) in
  Alcotest.(check int) "n" (Phi.n phi_full) (Phi.n phi_inc);
  Alcotest.(check int) "num_stats" (Phi.num_stats phi_full)
    (Phi.num_stats phi_inc);
  for j = 0 to Phi.num_stats phi_full - 1 do
    Alcotest.(check (float 0.))
      (Printf.sprintf "target %d" j)
      (Statistic.target (Phi.stat phi_full j))
      (Statistic.target (Phi.stat phi_inc j))
  done

let test_phi_append_validation () =
  let base = random_relation ~seed:3 200 in
  let s = build_summary base in
  let phi = Poly.phi (Summary.poly s) in
  let other =
    let schema = make_schema [ 3; 3 ] in
    let b = Relation.builder schema in
    Relation.add_row b [| 0; 1 |];
    Relation.build b
  in
  (try
     ignore (Phi.append phi other);
     Alcotest.fail "schema mismatch accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Phi.add_counts phi [| 1.0 |] ~rows:1);
     Alcotest.fail "short delta vector accepted"
   with Invalid_argument _ -> ());
  (try
     ignore
       (Phi.add_counts phi
          (Array.make (Phi.num_stats phi) 0.)
          ~rows:(-1));
     Alcotest.fail "negative rows accepted"
   with Invalid_argument _ -> ());
  (try
     let d = Array.make (Phi.num_stats phi) 0. in
     d.(0) <- Float.nan;
     ignore (Phi.add_counts phi d ~rows:0);
     Alcotest.fail "NaN delta accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Statistic.with_target (Phi.stat phi 0) (-1.));
    Alcotest.fail "negative target accepted"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Warm-started solves                                                  *)
(* ------------------------------------------------------------------ *)

(* Satellite: a converged α handed back as init must re-converge almost
   immediately — the re-solve is a verification sweep, not a solve. *)
let test_warm_restart_converged () =
  let s = build_summary (random_relation ~seed:11 400) in
  let report = Summary.solver_report s in
  Alcotest.(check bool) "base solve converged" true report.Solver.converged;
  let init = Poly.alphas (Summary.poly s) in
  let poly = Poly.create (Poly.phi (Summary.poly s)) in
  let re = Solver.solve ~config:quiet ~init poly in
  Alcotest.(check bool) "re-solve converged" true re.Solver.converged;
  Alcotest.(check bool)
    (Printf.sprintf "re-solve took %d sweeps (<= 2)" re.Solver.sweeps)
    true (re.Solver.sweeps <= 2)

let test_solver_init_validation () =
  let s = build_summary (random_relation ~seed:12 200) in
  let phi = Poly.phi (Summary.poly s) in
  let bad len v =
    let init = Array.make len v in
    try
      ignore (Solver.solve ~config:quiet ~init (Poly.create phi));
      Alcotest.failf "init len=%d v=%f accepted" len v
    with Invalid_argument _ -> ()
  in
  bad (Phi.num_stats phi + 1) 1.0;
  bad (Phi.num_stats phi) (-0.5);
  bad (Phi.num_stats phi) Float.nan

(* Warm-starting from the previous α after a small batch must cost fewer
   sweeps than the cold rebuild of the union.  This is the claim the
   ingest subsystem exists for; the bench gates on it too. *)
let test_warm_beats_cold () =
  let base = random_relation ~seed:13 500 in
  let batch = random_relation ~seed:14 25 in
  let s_base = build_summary base in
  let s_inc, stats =
    Ingest.append_with_stats ~solver_config:quiet s_base batch
  in
  let cold = Summary.solver_report (build_summary (concat base batch)) in
  Alcotest.(check bool) "warm converged" true stats.Ingest.converged;
  Alcotest.(check bool) "cold converged" true cold.Solver.converged;
  Alcotest.(check bool)
    (Printf.sprintf "warm %d < cold %d sweeps" stats.Ingest.sweeps
       cold.Solver.sweeps)
    true
    (stats.Ingest.sweeps < cold.Solver.sweeps);
  Alcotest.(check int) "cardinality" 525 (Summary.cardinality s_inc)

(* ------------------------------------------------------------------ *)
(* Ingest.append semantics                                              *)
(* ------------------------------------------------------------------ *)

let test_ingest_vs_rebuild_estimates () =
  let base = random_relation ~seed:21 400 in
  let batch = random_relation ~seed:22 60 in
  let s_inc = Ingest.append ~solver_config:quiet (build_summary base) batch in
  let s_full = build_summary (concat base batch) in
  List.iteri
    (fun i q ->
      let a = Summary.estimate s_inc q and b = Summary.estimate s_full q in
      Alcotest.(check bool)
        (Printf.sprintf "probe %d: |%.4f - %.4f| small" i a b)
        true
        (Float.abs (a -. b) <= 0.05 *. Float.max 1.0 b))
    probes

let test_ingest_schema_mismatch () =
  let s = build_summary (random_relation ~seed:23 200) in
  let other =
    let schema = make_schema [ 2; 2; 2 ] in
    let b = Relation.builder schema in
    Relation.add_row b [| 0; 1; 0 |];
    Relation.build b
  in
  try
    ignore (Ingest.append ~solver_config:quiet s other);
    Alcotest.fail "schema mismatch accepted"
  with Invalid_argument _ -> ()

(* An empty batch is a legal no-op: same cardinality, same answers, and
   the warm re-solve terminates immediately (α is already optimal). *)
let test_ingest_empty_batch () =
  let s = build_summary (random_relation ~seed:24 300) in
  let empty = Relation.build (Relation.builder (make_schema sizes)) in
  let s', stats = Ingest.append_with_stats ~solver_config:quiet s empty in
  Alcotest.(check int) "cardinality unchanged" (Summary.cardinality s)
    (Summary.cardinality s');
  Alcotest.(check bool)
    (Printf.sprintf "trivial re-solve (%d sweeps)" stats.Ingest.sweeps)
    true
    (stats.Ingest.sweeps <= 2);
  List.iteri
    (fun i q ->
      (* The warm re-solve still runs a verification sweep whose exact
         coordinate updates can move α within tolerance. *)
      Alcotest.(check (float 1e-3))
        (Printf.sprintf "probe %d unchanged" i)
        (Summary.estimate s q) (Summary.estimate s' q))
    probes

let test_replay_matches_sequence () =
  let base = random_relation ~seed:25 300 in
  let b1 = random_relation ~seed:26 40 in
  let b2 = random_relation ~seed:27 40 in
  let s_seq =
    Ingest.append ~solver_config:quiet ~source:"b2"
      (Ingest.append ~solver_config:quiet ~source:"b1" (build_summary base) b1)
      b2
  in
  let s_replay =
    Ingest.replay ~solver_config:quiet ~joints base [ ("b1", b1); ("b2", b2) ]
  in
  Alcotest.(check int) "cardinality" (Summary.cardinality s_seq)
    (Summary.cardinality s_replay);
  Alcotest.(check int) "batches"
    (Journal.batches (Summary.journal s_seq))
    (Journal.batches (Summary.journal s_replay));
  List.iteri
    (fun i q ->
      let a = Summary.estimate s_seq q and b = Summary.estimate s_replay q in
      Alcotest.(check bool)
        (Printf.sprintf "probe %d: |%.4f - %.4f| small" i a b)
        true
        (Float.abs (a -. b) <= 0.05 *. Float.max 1.0 b))
    probes

(* ------------------------------------------------------------------ *)
(* Journal                                                              *)
(* ------------------------------------------------------------------ *)

let test_journal_lineage () =
  let base = random_relation ~seed:31 300 in
  let b1 = random_relation ~seed:32 50 in
  let b2 = random_relation ~seed:33 25 in
  let s =
    Ingest.append ~solver_config:quiet ~source:"b2.csv"
      (Ingest.append ~solver_config:quiet ~source:"b1.csv"
         (build_summary base) b1)
      b2
  in
  let j = Summary.journal s in
  Alcotest.(check int) "base rows" 300 (Journal.base_rows j);
  Alcotest.(check string) "base source" "build" (Journal.base_source j);
  Alcotest.(check int) "batches" 2 (Journal.batches j);
  Alcotest.(check int) "total rows = cardinality" (Summary.cardinality s)
    (Journal.total_rows j);
  (match Journal.entries j with
  | [ e1; e2 ] ->
      Alcotest.(check int) "first batch rows" 50 e1.Journal.rows;
      Alcotest.(check string) "first batch source" "b1.csv" e1.Journal.source;
      Alcotest.(check int) "second batch rows" 25 e2.Journal.rows;
      Alcotest.(check bool) "warm flagged" true e2.Journal.warm
  | es -> Alcotest.failf "expected 2 entries, got %d" (List.length es));
  let rendered = Format.asprintf "%a" Journal.pp j in
  Alcotest.(check bool) "pp mentions base" true
    (contains rendered "base: 300 rows");
  Alcotest.(check bool) "pp mentions batch" true
    (contains rendered "+50 rows from b1.csv")

let test_journal_validation () =
  (try
     ignore (Journal.base ~rows:(-1) ());
     Alcotest.fail "negative base rows accepted"
   with Invalid_argument _ -> ());
  try
    ignore
      (Journal.append
         (Journal.base ~rows:10 ())
         { Journal.rows = -5; source = "x"; sweeps = 0; warm = false });
    Alcotest.fail "negative batch rows accepted"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Serialization: v2 round-trip, v1 compat, future versions             *)
(* ------------------------------------------------------------------ *)

let test_serialize_v2_roundtrip () =
  let dir = temp_dir () in
  let s =
    Ingest.append ~solver_config:quiet ~source:"delta.csv"
      (build_summary (random_relation ~seed:41 300))
      (random_relation ~seed:42 40)
  in
  let path = Filename.concat dir "s.summary" in
  Serialize.save s path;
  let s' = Serialize.load path in
  Alcotest.(check int) "cardinality" (Summary.cardinality s)
    (Summary.cardinality s');
  List.iteri
    (fun i q ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "probe %d" i)
        (Summary.estimate s q) (Summary.estimate s' q))
    probes;
  let j = Summary.journal s' in
  Alcotest.(check int) "journal base" 300 (Journal.base_rows j);
  Alcotest.(check int) "journal batches" 1 (Journal.batches j);
  match Journal.entries j with
  | [ e ] ->
      Alcotest.(check string) "journal source survives" "delta.csv"
        e.Journal.source;
      Alcotest.(check int) "journal rows survive" 40 e.Journal.rows
  | es -> Alcotest.failf "expected 1 entry, got %d" (List.length es)

(* The exact record layout version-1 writers marshaled; structural
   equality is all Marshal cares about, so this local copy produces
   byte-identical payloads to a real v1 file. *)
type payload_v1 = {
  v1_schema : Schema.t;
  v1_n : int;
  v1_marginal_targets : float array array;
  v1_joints : (Predicate.t * float) list;
  v1_alpha : float array;
  v1_report : Solver.report;
}

let write_v1_file summary path =
  let poly = Summary.poly summary in
  let phi = Poly.phi poly in
  let schema = Phi.schema phi in
  let m = Schema.arity schema in
  let payload =
    {
      v1_schema = schema;
      v1_n = Phi.n phi;
      v1_marginal_targets =
        Array.init m (fun i ->
            Array.init (Schema.domain_size schema i) (fun v ->
                Phi.target phi (Phi.marginal_id phi ~attr:i ~value:v)));
      v1_joints =
        List.map
          (fun j ->
            let s = Phi.stat phi j in
            (Statistic.pred s, Statistic.target s))
          (Phi.joint_ids phi);
      v1_alpha = Array.init (Phi.num_stats phi) (fun j -> Poly.alpha poly j);
      v1_report = Summary.solver_report summary;
    }
  in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "ENTROPYDB\x01";
      output_binary_int oc 1;
      Marshal.to_channel oc payload [])

let test_serialize_v1_compat () =
  let dir = temp_dir () in
  let s = build_summary (random_relation ~seed:43 300) in
  let path = Filename.concat dir "legacy.summary" in
  write_v1_file s path;
  let s' = Serialize.load path in
  Alcotest.(check int) "cardinality" (Summary.cardinality s)
    (Summary.cardinality s');
  List.iteri
    (fun i q ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "probe %d" i)
        (Summary.estimate s q) (Summary.estimate s' q))
    probes;
  let j = Summary.journal s' in
  Alcotest.(check int) "fresh base journal" 0 (Journal.batches j);
  Alcotest.(check int) "base rows = n" (Summary.cardinality s)
    (Journal.base_rows j);
  Alcotest.(check string) "tagged legacy" "legacy-v1" (Journal.base_source j)

let test_serialize_future_version () =
  let dir = temp_dir () in
  let path = Filename.concat dir "future.summary" in
  let oc = open_out_bin path in
  output_string oc "ENTROPYDB\x01";
  output_binary_int oc 99;
  output_string oc "payload from the future";
  close_out oc;
  match Serialize.load path with
  | _ -> Alcotest.fail "future version loaded"
  | exception Serialize.Format_error m ->
      Alcotest.(check bool) ("message names the version: " ^ m) true
        (contains m "99")

let test_save_atomic () =
  let dir = temp_dir () in
  let s1 = build_summary (random_relation ~seed:44 300) in
  let s2 =
    Ingest.append ~solver_config:quiet s1 (random_relation ~seed:45 30)
  in
  let path = Filename.concat dir "s.summary" in
  Ingest.save_atomic s1 path;
  (* Overwrite in place: the reader sees old or new, never torn. *)
  Ingest.save_atomic s2 path;
  let s' = Serialize.load path in
  Alcotest.(check int) "new version on disk" (Summary.cardinality s2)
    (Summary.cardinality s');
  Alcotest.(check int) "journal survived" 1
    (Journal.batches (Summary.journal s'));
  (* No temp droppings left behind. *)
  let leftovers =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> f <> "s.summary")
  in
  Alcotest.(check (list string)) "no temp files" [] leftovers

(* save_atomic preserves the on-disk format across a refresh: a summary
   stored mmap-able (v3) must still be mmap-able after the rewrite, or a
   budget-evicted catalog entry would silently downgrade to heap loads. *)
let test_save_atomic_v3 () =
  let dir = temp_dir () in
  let s1 = build_summary (random_relation ~seed:46 300) in
  let s2 =
    Ingest.append ~solver_config:quiet s1 (random_relation ~seed:47 30)
  in
  let path = Filename.concat dir "s.v3" in
  Serialize.save_v3 s1 path;
  Ingest.save_atomic s2 path;
  Alcotest.(check bool) "still v3" true
    (Serialize.detect path = Serialize.MappedV3);
  let s' = Serialize.load path in
  Alcotest.(check int) "new version on disk" (Summary.cardinality s2)
    (Summary.cardinality s');
  Alcotest.(check int) "journal survived" 1
    (Journal.batches (Summary.journal s'));
  (* Writing to a new path keeps the source file's format ([~like], as
     `entropydb ingest -o NEW` passes it), in both directions. *)
  let copy = Filename.concat dir "copy.v3" in
  Ingest.save_atomic ~like:path s2 copy;
  Alcotest.(check bool) "v3 source, new path: v3" true
    (Serialize.detect copy = Serialize.MappedV3);
  let flat_src = Filename.concat dir "s.flat" in
  Serialize.save s1 flat_src;
  let flat_copy = Filename.concat dir "copy.flat" in
  Ingest.save_atomic ~like:flat_src s2 flat_copy;
  Alcotest.(check bool) "flat source, new path: flat" true
    (Serialize.detect flat_copy = Serialize.Flat);
  (* Without [~like], the target's own format is kept: v3 above, flat
     here. *)
  Ingest.save_atomic s2 flat_src;
  Alcotest.(check bool) "default keeps a flat target flat" true
    (Serialize.detect flat_src = Serialize.Flat);
  Alcotest.(check (list string)) "no temp files" []
    (Ingest.orphan_temps ~dir)

(* Crash safety: a crash between the temp write and the rename leaves
   the old file untouched and a detectable orphan — never a torn target.
   Simulated by doing by hand exactly what save_atomic does up to the
   point of the simulated crash. *)
let test_save_atomic_crash () =
  let dir = temp_dir () in
  let s1 = build_summary (random_relation ~seed:48 300) in
  let s2 =
    Ingest.append ~solver_config:quiet s1 (random_relation ~seed:49 30)
  in
  let path = Filename.concat dir "s.v3" in
  Serialize.save_v3 s1 path;
  let before = In_channel.with_open_bin path In_channel.input_all in
  (* Crash #1: after the temp write, before the rename. *)
  let tmp =
    Filename.temp_file ~temp_dir:dir (Filename.basename path) ".ingest-tmp"
  in
  Serialize.save_v3 s2 tmp;
  (* The target is byte-identical: readers still get the old summary. *)
  Alcotest.(check string) "target untouched" before
    (In_channel.with_open_bin path In_channel.input_all);
  let old = Serialize.load path in
  Alcotest.(check int) "old cardinality" (Summary.cardinality s1)
    (Summary.cardinality old);
  (* The orphan is found, and only it. *)
  (match Ingest.orphan_temps ~dir with
  | [ p ] -> Alcotest.(check string) "orphan path" tmp p
  | l -> Alcotest.failf "expected 1 orphan, got %d" (List.length l));
  (* Crash #2: mid-write — a torn *temp* header.  Still invisible to
     readers of the target, and the torn file itself is a clean
     Format_error for anything that does poke at it. *)
  let torn =
    Filename.temp_file ~temp_dir:dir (Filename.basename path) ".ingest-tmp"
  in
  Out_channel.with_open_bin torn (fun oc ->
      Out_channel.output_string oc (String.sub before 0 57));
  (match Serialize.load torn with
  | exception Serialize.Format_error _ -> ()
  | exception e ->
      Alcotest.failf "torn temp raised %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "torn temp loaded");
  Alcotest.(check int) "both orphans listed" 2
    (List.length (Ingest.orphan_temps ~dir));
  (* Sweep: orphans go, the real summary stays. *)
  Alcotest.(check int) "cleaned" 2 (Ingest.clean_orphans ~dir);
  Alcotest.(check (list string)) "none left" [] (Ingest.orphan_temps ~dir);
  Alcotest.(check int) "summary intact" (Summary.cardinality s1)
    (Summary.cardinality (Serialize.load path))

(* v1 corruption fuzz, completing the battery across all three on-disk
   versions (v2 and v3 are fuzzed in the core suite, next to their
   loaders; the v1 writer only exists here). *)
let test_v1_corruption_fuzz () =
  let dir = temp_dir () in
  let s = build_summary (random_relation ~seed:50 300) in
  let path = Filename.concat dir "legacy.summary" in
  write_v1_file s path;
  let original = In_channel.with_open_bin path In_channel.input_all in
  let len = String.length original in
  let rng = Prng.create ~seed:51 () in
  let write bytes =
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc bytes)
  in
  for _ = 1 to 20 do
    let cut = Prng.int rng len in
    write (String.sub original 0 cut);
    match Serialize.load path with
    | exception Serialize.Format_error _ -> ()
    | exception e ->
        Alcotest.failf "v1 truncation at %d raised %s" cut
          (Printexc.to_string e)
    | _ -> Alcotest.failf "v1 truncation at %d loaded" cut
  done;
  for pos = 0 to min 13 (len - 1) do
    let b = Bytes.of_string original in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x24));
    write (Bytes.to_string b);
    match Serialize.load path with
    | exception Serialize.Format_error _ -> ()
    | exception e ->
        Alcotest.failf "v1 flip at %d raised %s" pos (Printexc.to_string e)
    | _ -> Alcotest.failf "v1 flip at %d loaded" pos
  done;
  write original;
  Alcotest.(check int) "intact again" (Summary.cardinality s)
    (Summary.cardinality (Serialize.load path))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "ingest"
    [
      ( "phi",
        [
          Alcotest.test_case "append = rebuild targets, exactly" `Quick
            test_phi_append_exact;
          Alcotest.test_case "validation" `Quick test_phi_append_validation;
        ] );
      ( "solver",
        [
          Alcotest.test_case "converged init re-solves in <= 2 sweeps" `Quick
            test_warm_restart_converged;
          Alcotest.test_case "init validation" `Quick
            test_solver_init_validation;
          Alcotest.test_case "warm beats cold after a batch" `Quick
            test_warm_beats_cold;
        ] );
      ( "append",
        [
          Alcotest.test_case "estimates match full rebuild" `Quick
            test_ingest_vs_rebuild_estimates;
          Alcotest.test_case "schema mismatch" `Quick
            test_ingest_schema_mismatch;
          Alcotest.test_case "empty batch is a no-op" `Quick
            test_ingest_empty_batch;
          Alcotest.test_case "replay matches the sequence" `Quick
            test_replay_matches_sequence;
        ] );
      ( "journal",
        [
          Alcotest.test_case "lineage" `Quick test_journal_lineage;
          Alcotest.test_case "validation" `Quick test_journal_validation;
        ] );
      ( "serialize",
        [
          Alcotest.test_case "v2 round-trips the journal" `Quick
            test_serialize_v2_roundtrip;
          Alcotest.test_case "v1 files still load" `Quick
            test_serialize_v1_compat;
          Alcotest.test_case "future versions are Format_error" `Quick
            test_serialize_future_version;
          Alcotest.test_case "save_atomic" `Quick test_save_atomic;
          Alcotest.test_case "save_atomic preserves v3" `Quick
            test_save_atomic_v3;
          Alcotest.test_case "crash leaves old file + detectable orphans"
            `Quick test_save_atomic_crash;
          Alcotest.test_case "v1 corruption fuzz" `Quick
            test_v1_corruption_fuzz;
        ] );
    ]
