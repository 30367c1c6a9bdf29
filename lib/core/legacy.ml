(* Decoders of the summary formats the current one replaced, for
   `entropydb upgrade`:

     v1, v2     "ENTROPYDB\x01", a big-endian version, then a Marshal
                payload: schema, n, targets, variable vector, solver
                report, and (v2) the ingest journal;
     manifest   "ENTROPYDB\x02", a version, a strategy tag and the names
                of k v1/v2 part files next to it;
     version 3  "ENTROPYDB\x03" with version 3 in its header: the
                page-aligned mmap file, whose marshaled manifest also
                carried solver-only tables no reader used.

   Each decodes to an in-memory summary whose polynomial is rebuilt from
   the stored targets and variable vector, exactly as those formats'
   loaders rebuilt it, so a summary upgraded and written in the current
   format answers bitwise as the original file answered.  A v1/v2
   payload has no checksum, and Marshal trusts its input: a corrupt one
   can crash this decoder.  That is why it runs only offline, in
   `upgrade`, and never in the daemon. *)

open Edb_storage

let fail fmt =
  Printf.ksprintf (fun msg -> raise (Serialize.Format_error msg)) fmt

(* The record layouts those writers marshaled, kept verbatim: Marshal is
   structural, so these decode their files. *)
type payload_v1 = {
  v1_schema : Schema.t;
  v1_n : int;
  v1_marginal_targets : float array array;
  v1_joints : (Predicate.t * float) list;
  v1_alpha : float array;
  v1_report : Solver.report;
}

type payload_v2 = {
  p_schema : Schema.t;
  p_n : int;
  p_marginal_targets : float array array;
  p_joints : (Predicate.t * float) list;
  p_alpha : float array;
  p_report : Solver.report;
  p_journal : Journal.t;
}

type v3_group_meta = {
  v3g_attrs : int array;
  v3g_stats : int array;
  v3g_n_terms : int;
  v3g_q : float;
}

type v3_manifest = {
  v3_schema : Schema.t;
  v3_n : int;
  v3_p : float;
  v3_marginal_targets : float array array;
  v3_joints : (Predicate.t * float) list;
  v3_report : Solver.report;
  v3_journal : Journal.t;
  v3_free_attrs : int array;
  v3_group_of_attr : int array;
  v3_groups : v3_group_meta array;
  v3_sections : Serialize.section list;
}

let rebuild schema ~n ~marginal_targets ~joints ~alpha ~report ~journal =
  let phi = Phi.of_targets schema ~n ~marginal_targets ~joints in
  if Array.length alpha <> Phi.num_stats phi then
    fail "alpha vector length mismatch";
  let poly = Poly.create phi in
  Poly.set_alphas poly alpha;
  Summary.of_solved_poly ~journal ~poly ~report ()

let unmarshal data off =
  try Marshal.from_string data off with _ -> fail "corrupt payload"

let flat data =
  if String.length data < 14 then fail "truncated header";
  match Int32.to_int (String.get_int32_be data 10) with
  | 1 ->
      let p : payload_v1 = unmarshal data 14 in
      rebuild p.v1_schema ~n:p.v1_n ~marginal_targets:p.v1_marginal_targets
        ~joints:p.v1_joints ~alpha:p.v1_alpha ~report:p.v1_report
        ~journal:(Journal.base ~rows:p.v1_n ~source:"legacy-v1" ())
  | 2 ->
      let p : payload_v2 = unmarshal data 14 in
      rebuild p.p_schema ~n:p.p_n ~marginal_targets:p.p_marginal_targets
        ~joints:p.p_joints ~alpha:p.p_alpha ~report:p.p_report
        ~journal:p.p_journal
  | v -> fail "unsupported version %d" v

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* magic | version | strategy | k | k part names, every int a 4-byte
   big-endian word and every string length-prefixed; the names resolve
   against the manifest's directory and the fields tile the file. *)
let manifest path data =
  let pos = ref 10 in
  let int what =
    if !pos + 4 > String.length data then fail "truncated %s" what;
    let v = Int32.to_int (String.get_int32_be data !pos) in
    pos := !pos + 4;
    v
  in
  let str what =
    let len = int what in
    if len < 0 || len > 4096 then fail "implausible %s length %d" what len;
    if !pos + len > String.length data then fail "truncated %s" what;
    let s = String.sub data !pos len in
    pos := !pos + len;
    s
  in
  (match int "header" with
  | 1 -> ()
  | v -> fail "unsupported manifest version %d" v);
  let strategy = str "strategy" in
  let k = int "shard count" in
  if k < 1 || k > 100_000 then fail "implausible shard count %d" k;
  let names = List.init k (fun _ -> str "shard name") in
  if !pos <> String.length data then
    fail "shard-count mismatch (trailing bytes)";
  let parts =
    List.map
      (fun name ->
        let file = Filename.concat (Filename.dirname path) name in
        if not (Sys.file_exists file) then
          fail "shard-count mismatch: missing shard file %s" name;
        let data = read_file file in
        if String.length data < 10 || String.sub data 0 10 <> "ENTROPYDB\x01"
        then fail "shard %s: bad magic" name;
        flat data)
      names
  in
  let parts = Array.of_list parts in
  let schema0 = Summary.schema parts.(0) in
  Array.iter
    (fun s ->
      if Stdlib.compare (Summary.schema s) schema0 <> 0 then
        fail "shard schema mismatch")
    parts;
  Summary.of_parts ~strategy parts

(* Header (page 0: magic, version, int size, byte order, page size,
   manifest offset/length/CRC, file size, section count, header CRC),
   page-aligned sections, then the marshaled manifest.  Every checksum
   is verified; the polynomial is rebuilt from the alpha section. *)
let version3 data =
  let size = String.length data in
  if size < 4096 then fail "truncated v3 header";
  let get o = Int64.to_int (String.get_int64_le data o) in
  if Edb_util.Crc32.string (String.sub data 0 88) <> get 88 then
    fail "v3 header checksum mismatch";
  if get 24 <> Sys.int_size || get 32 <> if Sys.big_endian then 0 else 1 then
    fail "v3 file from a host with another int size or byte order";
  if get 40 <> 4096 then fail "unsupported v3 page size %d" (get 40);
  if get 72 <> size then
    fail "truncated v3 file (%d bytes, header records %d)" size (get 72);
  let moff = get 48 and mlen = get 56 in
  if moff < 4096 || mlen < 0 || moff + mlen > size then
    fail "corrupt v3 manifest bounds";
  let mstr = String.sub data moff mlen in
  if Edb_util.Crc32.string mstr <> get 64 then
    fail "v3 manifest checksum mismatch";
  let m : v3_manifest =
    try Marshal.from_string mstr 0 with _ -> fail "corrupt v3 manifest"
  in
  let alpha = ref None in
  List.iter
    (fun (s : Serialize.section) ->
      if s.sec_off < 4096 || s.sec_len < 0 || s.sec_len > (moff - s.sec_off) / 8
      then fail "corrupt v3 section table (%s)" s.sec_name;
      let blob = String.sub data s.sec_off (8 * s.sec_len) in
      if Edb_util.Crc32.string blob <> s.sec_crc then
        fail "section %s checksum mismatch" s.sec_name;
      if s.sec_name = "alpha" then
        alpha :=
          Some
            (Array.init s.sec_len (fun i ->
                 Int64.float_of_bits (String.get_int64_le blob (8 * i)))))
    m.v3_sections;
  match !alpha with
  | None -> fail "missing section alpha"
  | Some alpha ->
      rebuild m.v3_schema ~n:m.v3_n ~marginal_targets:m.v3_marginal_targets
        ~joints:m.v3_joints ~alpha ~report:m.v3_report ~journal:m.v3_journal

let load path =
  let data = read_file path in
  let tag = if String.length data < 10 then "" else String.sub data 0 10 in
  if tag = "ENTROPYDB\x01" then flat data
  else if tag = "ENTROPYDB\x02" then manifest path data
  else if
    tag = "ENTROPYDB\x03"
    && String.length data >= 24
    && String.get_int64_le data 16 = 3L
  then version3 data
  else Serialize.load path
