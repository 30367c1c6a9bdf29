(* Tests for edb_shard: partitioning invariants, parallel build
   determinism, and the central exactness claim — a partitioned
   summary's every estimator equals the sum of the per-part answers, and
   at k = 1 equals the flat summary bitwise. *)

open Edb_util
open Edb_storage
open Entropydb_core
open Edb_shard

let quiet = { Solver.default_config with log_every = 0 }

let make_schema sizes =
  Schema.create
    (List.mapi
       (fun i n ->
         Schema.attr
           (Printf.sprintf "a%d" i)
           (Domain.int_bins ~lo:0 ~hi:(n - 1) ~width:1))
       sizes)

let random_relation rng schema n =
  let m = Schema.arity schema in
  let b = Relation.builder ~capacity:n schema in
  for _ = 1 to n do
    let row =
      Array.init m (fun i ->
          let size = Schema.domain_size schema i in
          let u = Prng.unit_float rng in
          int_of_float (u *. u *. float_of_int size) |> min (size - 1))
    in
    Relation.add_row b row
  done;
  Relation.build b

let random_query rng schema =
  let m = Schema.arity schema in
  let parts =
    List.filter_map
      (fun i ->
        if Prng.unit_float rng < 0.6 then
          let size = Schema.domain_size schema i in
          let lo = Prng.int rng size in
          let hi = min (size - 1) (lo + Prng.int rng size) in
          Some (i, Ranges.interval lo hi)
        else None)
      (List.init m Fun.id)
  in
  Predicate.of_alist ~arity:m parts

(* The shared fixture: a modest relation with one 2D statistic family so
   the per-shard models are real MaxEnt solves, not marginal products. *)
let fixture_schema = make_schema [ 6; 5; 4 ]

let fixture_rel ?(rows = 300) ?(seed = 11) () =
  random_relation (Prng.create ~seed ()) fixture_schema rows

let fixture_joints =
  [
    Predicate.of_alist ~arity:3
      [ (0, Ranges.interval 0 2); (1, Ranges.interval 1 3) ];
    Predicate.of_alist ~arity:3
      [ (0, Ranges.interval 3 5); (1, Ranges.interval 0 1) ];
  ]

let cardinalities sh =
  Array.to_list (Array.map Summary.cardinality (Summary.parts sh))

let rows_of rel =
  List.init (Relation.cardinality rel) (fun i ->
      Array.to_list (Relation.row rel i))

(* ------------------------------------------------------------------ *)
(* Partition                                                           *)
(* ------------------------------------------------------------------ *)

let test_partition_rows () =
  let rel = fixture_rel () in
  let parts = Partition.split rel ~shards:4 Partition.Rows in
  Alcotest.(check int) "shard count" 4 (Array.length parts);
  (* Row-range shards concatenate back to the input, order included —
     disjointness and cover in one check. *)
  Alcotest.(check (list (list int)))
    "concatenation restores the relation" (rows_of rel)
    (List.concat_map rows_of (Array.to_list parts));
  (* Near-equal sizes: no two shards differ by more than one row. *)
  let sizes = Array.map Relation.cardinality parts in
  let lo = Array.fold_left min max_int sizes
  and hi = Array.fold_left max 0 sizes in
  Alcotest.(check bool) "balanced" true (hi - lo <= 1);
  (* Deterministic. *)
  let parts' = Partition.split rel ~shards:4 Partition.Rows in
  Array.iteri
    (fun i p ->
      Alcotest.(check (list (list int)))
        (Printf.sprintf "shard %d stable" i)
        (rows_of p)
        (rows_of parts'.(i)))
    parts

let test_partition_by_attr () =
  let rel = fixture_rel () in
  let attr = 1 in
  let shards = 3 in
  let parts = Partition.split rel ~shards (Partition.By_attr attr) in
  Alcotest.(check int) "shard count" shards (Array.length parts);
  Alcotest.(check int) "cover"
    (Relation.cardinality rel)
    (Array.fold_left (fun acc p -> acc + Relation.cardinality p) 0 parts);
  (* Every row sits in the shard its attribute value hashes to, so all
     rows sharing a value share a shard. *)
  Array.iteri
    (fun s p ->
      Relation.iteri
        (fun _ row ->
          Alcotest.(check int) "row in owning shard"
            (Partition.shard_of_value ~shards row.(attr))
            s)
        p)
    parts;
  (* Multiset of rows is preserved (no row lost or duplicated). *)
  let sorted rel_rows = List.sort compare rel_rows in
  Alcotest.(check (list (list int)))
    "same multiset of rows"
    (sorted (rows_of rel))
    (sorted (List.concat_map rows_of (Array.to_list parts)))

let test_partition_validation () =
  let rel = fixture_rel ~rows:10 () in
  Alcotest.check_raises "shards = 0"
    (Invalid_argument "Partition.split: shards must be >= 1")
    (fun () -> ignore (Partition.split rel ~shards:0 Partition.Rows));
  (match Partition.split rel ~shards:2 (Partition.By_attr 99) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for bad attribute");
  Alcotest.(check string) "rows tag" "rows"
    (Partition.strategy_tag fixture_schema Partition.Rows);
  Alcotest.(check string) "attr tag" "attr:a1"
    (Partition.strategy_tag fixture_schema (Partition.By_attr 1))

(* ------------------------------------------------------------------ *)
(* Builder: exactness                                                  *)
(* ------------------------------------------------------------------ *)

let test_k1_matches_flat () =
  let rel = fixture_rel () in
  let flat = Summary.build ~solver_config:quiet rel ~joints:fixture_joints in
  let sh =
    Builder.build ~solver_config:quiet rel ~shards:1 ~strategy:Partition.Rows
      ~joints:fixture_joints
  in
  Alcotest.(check int) "one shard" 1 (Summary.num_parts sh);
  let rng = Prng.create ~seed:21 () in
  for _ = 1 to 40 do
    let q = random_query rng fixture_schema in
    (* Bitwise: the single shard is the same relation, the build is
       deterministic, and the fan-out fold starts at 0. *)
    let a = Summary.count flat q and b = Summary.count sh q in
    Alcotest.(check (float 0.)) "estimate" a.est b.est;
    Alcotest.(check (float 0.)) "variance" a.var b.var;
    let a = Summary.sum flat ~attr:2 q and b = Summary.sum sh ~attr:2 q in
    Alcotest.(check (float 0.)) "sum" a.est b.est;
    Alcotest.(check (float 0.)) "sum variance" a.var b.var
  done;
  let q = Predicate.of_alist ~arity:3 [ (0, Ranges.interval 0 4) ] in
  (* GROUP BY cells, both moments, must also be bitwise at k = 1 — the
     handler serves its stddevs straight from this path. *)
  List.iter2
    (fun (ka, (a : Summary.answer)) (kb, (b : Summary.answer)) ->
      Alcotest.(check (list int)) "group key" ka kb;
      Alcotest.(check (float 0.)) "group estimate" a.est b.est;
      Alcotest.(check (float 0.)) "group variance" a.var b.var)
    (Summary.groups flat ~attrs:[ 1 ] q)
    (Summary.groups sh ~attrs:[ 1 ] q)

let test_fanout_equals_per_shard_sums () =
  let rel = fixture_rel () in
  List.iter
    (fun shards ->
      let sh =
        Builder.build ~solver_config:quiet rel ~shards
          ~strategy:Partition.Rows ~joints:fixture_joints
      in
      let parts = Summary.parts sh in
      Alcotest.(check int) "k shards" shards (Array.length parts);
      let sum f = Array.fold_left (fun acc s -> acc +. f s) 0. parts in
      let rng = Prng.create ~seed:(100 + shards) () in
      for _ = 1 to 25 do
        let q = random_query rng fixture_schema in
        Alcotest.(check (float 1e-9))
          "estimate = per-shard sum"
          (sum (fun s -> Summary.estimate s q))
          (Summary.estimate sh q);
        Alcotest.(check (float 1e-9))
          "variance = per-shard sum"
          (sum (fun s -> (Summary.count s q).var))
          (Summary.count sh q).var;
        let total = Summary.sum sh ~attr:2 q in
        Alcotest.(check (float 1e-9))
          "sum = per-shard sum"
          (sum (fun s -> (Summary.sum s ~attr:2 q).est))
          total.est;
        Alcotest.(check (float 1e-9))
          "sum variance = per-shard sum"
          (sum (fun s -> (Summary.sum s ~attr:2 q).var))
          total.var;
        (match Summary.estimate_avg sh ~attr:2 q with
        | Some avg ->
            Alcotest.(check (float 1e-9))
              "avg = total sum / total count"
              (total.est /. Summary.estimate sh q)
              avg
        | None ->
            Alcotest.(check bool) "avg undefined only at count 0" true
              (Summary.estimate sh q <= 0.))
      done;
      (* GROUP BY: per-key sums across shards, keys in shard-0 (= flat)
         enumeration order. *)
      let q = Predicate.of_alist ~arity:3 [ (2, Ranges.interval 0 2) ] in
      let merged = Summary.groups sh ~attrs:[ 0 ] q in
      let per_shard =
        Array.to_list
          (Array.map (fun s -> Summary.groups s ~attrs:[ 0 ] q) parts)
      in
      List.iter
        (fun (key, (a : Summary.answer)) ->
          let expected =
            List.fold_left
              (fun acc groups ->
                match List.assoc_opt key groups with
                | Some (x : Summary.answer) -> acc +. x.est
                | None -> acc)
              0. per_shard
          in
          Alcotest.(check (float 1e-9)) "group value" expected a.est)
        merged;
      (* Grouped estimates and variances add across shards exactly like
         the scalar fan-out does (the kernel reassociates float sums, so
         relative, not bitwise). *)
      List.iter
        (fun (key, { Summary.est; var }) ->
          let group_pred =
            Predicate.restrict q 0 (Ranges.singleton (List.hd key))
          in
          let exp_var = sum (fun s -> (Summary.count s group_pred).var) in
          if not (Floatx.approx_eq ~rtol:1e-9 ~atol:1e-9 exp_var var) then
            Alcotest.failf "group variance %.12g vs per-shard sum %.12g" var
              exp_var;
          let exp_est = Summary.estimate sh group_pred in
          if not (Floatx.approx_eq ~rtol:1e-9 ~atol:1e-9 exp_est est) then
            Alcotest.failf "group estimate %.12g vs scalar fan-out %.12g" est
              exp_est)
        merged;
      (* Total cardinality: tautology estimates n exactly-ish because
         each shard's model preserves its own row count. *)
      Alcotest.(check (float 1e-3))
        "tautology sums to n"
        (float_of_int (Relation.cardinality rel))
        (Summary.estimate sh (Predicate.tautology 3)))
    [ 1; 2; 4 ]

let test_by_attr_build () =
  let rel = fixture_rel () in
  let sh =
    Builder.build ~solver_config:quiet rel ~shards:3
      ~strategy:(Partition.By_attr 1) ~joints:fixture_joints
  in
  Alcotest.(check string) "strategy tag" "attr:a1" (Summary.strategy sh);
  Alcotest.(check int) "cardinality preserved"
    (Relation.cardinality rel)
    (Summary.cardinality sh);
  Alcotest.(check (float 1e-3))
    "tautology sums to n"
    (float_of_int (Relation.cardinality rel))
    (Summary.estimate sh (Predicate.tautology 3))

let test_build_deterministic_across_domains () =
  let rel = fixture_rel () in
  let build domains =
    Builder.build ~solver_config:quiet ~domains rel ~shards:4
      ~strategy:Partition.Rows ~joints:fixture_joints
  in
  let a = build 1 and b = build 3 in
  let rng = Prng.create ~seed:31 () in
  for _ = 1 to 40 do
    let q = random_query rng fixture_schema in
    (* The chunk results are lists combined with ( @ ), so the shard
       order — and hence every answer — is bitwise independent of the
       domain count. *)
    let x = Summary.count a q and y = Summary.count b q in
    Alcotest.(check (float 0.)) "estimate independent of domains" x.est y.est;
    Alcotest.(check (float 0.)) "variance independent of domains" x.var y.var
  done

let test_empty_shards () =
  (* More shards than rows: trailing shards are empty and must answer 0
     with zero variance rather than nan or a crash. *)
  let rel = fixture_rel ~rows:3 () in
  let sh =
    Builder.build ~solver_config:quiet rel ~shards:8 ~strategy:Partition.Rows
      ~joints:fixture_joints
  in
  Alcotest.(check int) "eight shards" 8 (Summary.num_parts sh);
  Alcotest.(check int) "three rows" 3 (Summary.cardinality sh);
  Alcotest.(check bool) "some shard is empty" true
    (List.mem 0 (cardinalities sh));
  let rng = Prng.create ~seed:41 () in
  for _ = 1 to 20 do
    let q = random_query rng fixture_schema in
    let { Summary.est = e; var = v } = Summary.count sh q in
    if not (Float.is_finite e && e >= 0.) then
      Alcotest.failf "estimate not finite/non-negative: %g" e;
    if not (Float.is_finite v && v >= 0.) then
      Alcotest.failf "variance not finite/non-negative: %g" v
  done;
  Array.iter
    (fun s ->
      if Summary.cardinality s = 0 then
        Alcotest.(check (float 0.))
          "empty shard tautology" 0.
          (Summary.estimate s (Predicate.tautology 3)))
    (Summary.parts sh);
  Alcotest.(check (float 1e-3))
    "tautology still sums to n" 3.
    (Summary.estimate sh (Predicate.tautology 3))

(* ------------------------------------------------------------------ *)
(* Persistence round-trip                                              *)
(* ------------------------------------------------------------------ *)

let temp_dir () =
  let path = Filename.temp_file "edb-test-shard" "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let rm_rf dir =
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

let test_store_roundtrip () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let rel = fixture_rel () in
      let sh =
        Builder.build ~solver_config:quiet rel ~shards:3
          ~strategy:Partition.Rows ~joints:fixture_joints
      in
      let path = Filename.concat dir "sharded.edb" in
      Serialize.save sh path;
      let sh' = Serialize.load path in
      Alcotest.(check bool) "one mapped file" true (Summary.read_only sh');
      Alcotest.(check int) "shards" 3 (Summary.num_parts sh');
      Alcotest.(check string) "strategy" "rows" (Summary.strategy sh');
      Alcotest.(check (list int))
        "cardinalities"
        (cardinalities sh)
        (cardinalities sh');
      let rng = Prng.create ~seed:51 () in
      for _ = 1 to 30 do
        let q = random_query rng fixture_schema in
        Alcotest.(check (float 1e-6))
          "estimate preserved" (Summary.estimate sh q)
          (Summary.estimate sh' q)
      done)

let test_store_loads_flat_as_single_shard () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let rel = fixture_rel () in
      let flat =
        Summary.build ~solver_config:quiet rel ~joints:fixture_joints
      in
      let path = Filename.concat dir "flat.edb" in
      Serialize.save flat path;
      let sh = Serialize.load path in
      Alcotest.(check int) "one shard" 1 (Summary.num_parts sh);
      Alcotest.(check string) "flat strategy" "flat" (Summary.strategy sh);
      let rng = Prng.create ~seed:61 () in
      for _ = 1 to 30 do
        let q = random_query rng fixture_schema in
        Alcotest.(check (float 1e-6))
          "estimate preserved" (Summary.estimate flat q)
          (Summary.estimate sh q)
      done)

let () =
  Alcotest.run "entropydb-shard"
    [
      ( "partition",
        [
          Alcotest.test_case "rows: disjoint cover, balanced, stable" `Quick
            test_partition_rows;
          Alcotest.test_case "by-attr: value owns its shard" `Quick
            test_partition_by_attr;
          Alcotest.test_case "validation and tags" `Quick
            test_partition_validation;
        ] );
      ( "sharded",
        [
          Alcotest.test_case "k = 1 matches flat bitwise" `Quick
            test_k1_matches_flat;
          Alcotest.test_case "fan-out = per-shard sums (k = 1, 2, 4)" `Quick
            test_fanout_equals_per_shard_sums;
          Alcotest.test_case "by-attr build" `Quick test_by_attr_build;
          Alcotest.test_case "deterministic across domain counts" `Quick
            test_build_deterministic_across_domains;
          Alcotest.test_case "empty shards are well-defined" `Quick
            test_empty_shards;
        ] );
      ( "store",
        [
          Alcotest.test_case "sharded round-trip" `Quick test_store_roundtrip;
          Alcotest.test_case "flat file loads as single shard" `Quick
            test_store_loads_flat_as_single_shard;
        ] );
    ]
