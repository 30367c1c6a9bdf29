(* Summary persistence.

   The paper stores its polynomial variables in Postgres and the
   factorization in a text file (Sec. 5); here a summary is one versioned
   binary file.  The payload is the statistic set (schema, n, all targets)
   plus the solved variable vector and the solver report.  The compressed
   polynomial itself is *rebuilt* on load — it is deterministic from Φ —
   which keeps the file at O(#statistics) instead of O(#terms) and avoids
   deserializing mutable cached state. *)

open Edb_storage

let magic = "ENTROPYDB\x01"

(* Version history:
   1 — original payload (schema, n, targets, alpha, report);
   2 — adds the ingest journal (summary lineage).  v1 files still load
       (with a fresh base journal); versions beyond [version] are from a
       future writer and fail with Format_error, never a crash. *)
let version = 2

exception Format_error of string

(* The exact structural layout version-1 writers marshaled; kept verbatim
   so old files deserialize safely (Marshal is structural, not named). *)
type payload_v1 = {
  v1_schema : Schema.t;
  v1_n : int;
  v1_marginal_targets : float array array;
  v1_joints : (Predicate.t * float) list;
  v1_alpha : float array;
  v1_report : Solver.report;
}

type payload = {
  p_schema : Schema.t;
  p_n : int;
  p_marginal_targets : float array array;
  p_joints : (Predicate.t * float) list;
  p_alpha : float array;
  p_report : Solver.report;
  p_journal : Journal.t;
}

let save summary path =
  Edb_obs.Obs.with_span "serialize.save" ~cat:"io"
    ~attrs:(fun () -> [ ("path", path) ])
  @@ fun () ->
  let poly = Summary.poly summary in
  let phi = Poly.phi poly in
  let schema = Phi.schema phi in
  let m = Schema.arity schema in
  let marginal_targets =
    Array.init m (fun i ->
        Array.init (Schema.domain_size schema i) (fun v ->
            Phi.target phi (Phi.marginal_id phi ~attr:i ~value:v)))
  in
  let joints =
    List.map
      (fun j ->
        let s = Phi.stat phi j in
        (Statistic.pred s, Statistic.target s))
      (Phi.joint_ids phi)
  in
  let payload =
    {
      p_schema = schema;
      p_n = Phi.n phi;
      p_marginal_targets = marginal_targets;
      p_joints = joints;
      p_alpha = Array.init (Phi.num_stats phi) (fun j -> Poly.alpha poly j);
      p_report = Summary.solver_report summary;
      p_journal = Summary.journal summary;
    }
  in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc magic;
      output_binary_int oc version;
      Marshal.to_channel oc payload [])

let load ?term_cap path =
  Edb_obs.Obs.with_span "serialize.load" ~cat:"io"
    ~attrs:(fun () -> [ ("path", path) ])
  @@ fun () ->
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let buf =
        try really_input_string ic (String.length magic)
        with End_of_file -> raise (Format_error "truncated file")
      in
      if buf <> magic then raise (Format_error "bad magic");
      let v = try input_binary_int ic with End_of_file -> raise (Format_error "truncated header") in
      if v < 1 || v > version then
        raise (Format_error (Printf.sprintf "unsupported version %d" v));
      (* Marshal surfaces corruption as Failure or End_of_file; normalize
         to Format_error so callers have one error type. *)
      let unmarshal () =
        try Marshal.from_channel ic with
        | Failure msg -> raise (Format_error ("corrupt payload: " ^ msg))
        | End_of_file -> raise (Format_error "truncated payload")
      in
      let payload =
        if v = 1 then
          (* Pre-journal file: same data, no lineage; give it a fresh
             base journal so ingest on top of it starts a clean record. *)
          let p : payload_v1 = unmarshal () in
          {
            p_schema = p.v1_schema;
            p_n = p.v1_n;
            p_marginal_targets = p.v1_marginal_targets;
            p_joints = p.v1_joints;
            p_alpha = p.v1_alpha;
            p_report = p.v1_report;
            p_journal = Journal.base ~rows:p.v1_n ~source:"legacy-v1" ();
          }
        else (unmarshal () : payload)
      in
      let phi =
        Phi.of_targets payload.p_schema ~n:payload.p_n
          ~marginal_targets:payload.p_marginal_targets ~joints:payload.p_joints
      in
      if Array.length payload.p_alpha <> Phi.num_stats phi then
        raise (Format_error "alpha vector length mismatch");
      let poly = Poly.create ?term_cap phi in
      Array.iteri (fun j a -> Poly.set_alpha poly j a) payload.p_alpha;
      Poly.refresh poly;
      Summary.of_solved_poly ~journal:payload.p_journal ~poly
        ~report:payload.p_report ())

(* ------------------------------------------------------------------ *)
(* Sharded manifests                                                   *)
(* ------------------------------------------------------------------ *)

(* A partitioned summary persists as one manifest file plus one flat
   summary file per part.  The manifest is deliberately *not*
   Marshal: plain length-prefixed fields keep every corruption mode (bad
   magic, truncation, shard-count mismatch, trailing garbage) detectable
   as a Format_error instead of a segfault or silent misread.

   Layout: magic (10 bytes, shares the flat prefix but a distinct tag
   byte) | version | strategy string | shard count k | k shard file
   names, each relative to the manifest's directory. *)

let sharded_magic = "ENTROPYDB\x02"
let sharded_version = 1
let max_shards = 100_000
let max_name_len = 4096

type format = Flat | Sharded | MappedV3

let read_magic ic =
  try really_input_string ic (String.length magic)
  with End_of_file -> raise (Format_error "truncated file")

let v3_magic = "ENTROPYDB\x03"

(* The sniff and the v3 header and manifest reads go through a file
   descriptor, not an in_channel: they need a few bytes each, and a
   channel allocates and fills a 64 KiB buffer for them.  Failures keep
   the Sys_error texts the channel functions give. *)
let open_fd path =
  try Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0
  with Unix.Unix_error (e, _, _) ->
    raise (Sys_error (path ^ ": " ^ Unix.error_message e))

let with_fd path f =
  let fd = open_fd path in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> f fd)

(* [len] bytes at offset [off], or fewer when the file ends first. *)
let read_at fd ~off len =
  let buf = Bytes.create len in
  let rec go got =
    if got = len then got
    else
      match Unix.read fd buf got (len - got) with
      | 0 -> got
      | r -> go (got + r)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go got
  in
  match
    ignore (Unix.lseek fd off Unix.SEEK_SET);
    go 0
  with
  | got when got = len -> Bytes.unsafe_to_string buf
  | got -> Bytes.sub_string buf 0 got
  | exception Unix.Unix_error (e, _, _) ->
      raise (Sys_error (Unix.error_message e))

let detect path =
  let buf = with_fd path (fun fd -> read_at fd ~off:0 (String.length magic)) in
  if String.length buf < String.length magic then
    raise (Format_error "truncated file")
  else if buf = magic then Flat
  else if buf = sharded_magic then Sharded
  else if buf = v3_magic then MappedV3
  else raise (Format_error "bad magic")

let output_str oc s =
  output_binary_int oc (String.length s);
  output_string oc s

let input_int ic what =
  try input_binary_int ic
  with End_of_file -> raise (Format_error ("truncated " ^ what))

let input_str ic ~max what =
  let len = input_int ic what in
  if len < 0 || len > max then
    raise (Format_error (Printf.sprintf "implausible %s length %d" what len));
  try really_input_string ic len
  with End_of_file -> raise (Format_error ("truncated " ^ what))

let shard_file_name path i =
  Printf.sprintf "%s.shard%d" (Filename.basename path) i

let save_sharded summary path =
  let parts = Summary.parts summary in
  let k = Array.length parts in
  let dir = Filename.dirname path in
  let names = Array.to_list (Array.init k (shard_file_name path)) in
  List.iteri (fun i name -> save parts.(i) (Filename.concat dir name)) names;
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc sharded_magic;
      output_binary_int oc sharded_version;
      output_str oc (Summary.strategy summary);
      output_binary_int oc k;
      List.iter (output_str oc) names)

let load_sharded ?term_cap path =
  let strategy, names =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let buf = read_magic ic in
        if buf <> sharded_magic then raise (Format_error "bad magic");
        let v = input_int ic "header" in
        if v <> sharded_version then
          raise
            (Format_error (Printf.sprintf "unsupported manifest version %d" v));
        let strategy = input_str ic ~max:max_name_len "strategy" in
        let k = input_int ic "shard count" in
        if k < 1 || k > max_shards then
          raise (Format_error (Printf.sprintf "implausible shard count %d" k));
        let names =
          List.init k (fun _ -> input_str ic ~max:max_name_len "shard name")
        in
        (* The recorded count and the name list must tile the file exactly;
           leftover bytes mean the count field and the list disagree. *)
        (match input_char ic with
        | _ -> raise (Format_error "shard-count mismatch (trailing bytes)")
        | exception End_of_file -> ());
        (strategy, names))
  in
  let dir = Filename.dirname path in
  let shards =
    List.map
      (fun name ->
        let file = Filename.concat dir name in
        if not (Sys.file_exists file) then
          raise
            (Format_error
               (Printf.sprintf "shard-count mismatch: missing shard file %s"
                  name));
        load ?term_cap file)
      names
  in
  let shards = Array.of_list shards in
  let schema0 = Summary.schema shards.(0) in
  Array.iter
    (fun s ->
      if Stdlib.compare (Summary.schema s) schema0 <> 0 then
        raise (Format_error "shard schema mismatch"))
    shards;
  Summary.of_parts ~strategy shards

(* ------------------------------------------------------------------ *)
(* Summary format v3: page-aligned, mmap-able                          *)
(* ------------------------------------------------------------------ *)

(* v3 stores the polynomial's flat SoA tables verbatim, so a summary can
   be queried directly off a file mapping without deserialization:

     page 0              fixed header (magic, geometry, manifest pointer,
                         CRC-32 of the header bytes)
     pages 1..k          body sections, each starting on a page boundary:
                         the kernel tables of every group plus the alpha
                         vector, attribute sums, and prefix tables
     after the body      the manifest — one marshaled pure-data record
                         holding the small metadata (schema, n, P,
                         targets, solver report, ingest journal) and the
                         section table (name, kind, offset, length,
                         CRC-32 per section) — then zero padding to a
                         page boundary

   The manifest comes last so section offsets are known before it is
   written; the header (written with a final seek) points at it.  Opening
   a v3 file is O(header + manifest): body sections are mapped, not read,
   and their checksums are verified lazily (Mapped hands the check to the
   evaluator, which runs it before the first answer) — so corruption is
   always a Format_error, never a silently wrong answer.

   Element encoding is the host representation Bigarray maps: IEEE-754
   doubles and untagged native ints, little-endian.  The header records
   int size and byte order; a file from a foreign host is rejected with
   Format_error rather than misread. *)

let v3_page = 4096
let v3_version = 3

type v3_section = {
  sec_name : string;
  sec_float : bool; (* float64 elements; ints otherwise *)
  sec_off : int; (* byte offset, page-aligned *)
  sec_len : int; (* element count (8 bytes each) *)
  sec_crc : int; (* CRC-32 of the raw section bytes *)
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
  v3_sections : v3_section list;
}

let v3_round_page n = (n + v3_page - 1) / v3_page * v3_page

let v3_blob n elt =
  let b = Bytes.create (8 * n) in
  for i = 0 to n - 1 do
    Bytes.set_int64_le b (8 * i) (elt i)
  done;
  b

let v3_floats_of_string b =
  Array.init
    (String.length b / 8)
    (fun i -> Int64.float_of_bits (String.get_int64_le b (8 * i)))

(* Fixed header field offsets (bytes; all fields int64 LE after the
   magic).  The CRC at [v3_hdr_crc] covers bytes [0, v3_hdr_crc). *)
let v3_hdr_version = 16
let v3_hdr_int_size = 24
let v3_hdr_endian = 32
let v3_hdr_page = 40
let v3_hdr_manifest_off = 48
let v3_hdr_manifest_len = 56
let v3_hdr_manifest_crc = 64
let v3_hdr_file_size = 72
let v3_hdr_sections = 80
let v3_hdr_crc = 88

let save_v3 summary path =
  Edb_obs.Obs.with_span "serialize.save_v3" ~cat:"io"
    ~attrs:(fun () -> [ ("path", path) ])
  @@ fun () ->
  let poly = Summary.poly summary in
  (* Canonicalize the cached tables: rebuild them from the variable
     vector, exactly as every loader does.  Incremental solver updates
     accumulate float drift relative to that rebuild; refreshing here
     makes the mapped tables bitwise-equal to a v2 round trip.  The
     refresh is semantically the identity. *)
  Poly.refresh poly;
  let tb = Poly.tables poly and upd = Poly.updates poly in
  let phi = Poly.phi poly in
  let schema = Phi.schema phi in
  let m = Schema.arity schema in
  let marginal_targets =
    Array.init m (fun i ->
        Array.init (Schema.domain_size schema i) (fun v ->
            Phi.target phi (Phi.marginal_id phi ~attr:i ~value:v)))
  in
  let joints =
    List.map
      (fun j ->
        let s = Phi.stat phi j in
        (Statistic.pred s, Statistic.target s))
      (Phi.joint_ids phi)
  in
  (* Lay out the body: every section page-aligned, offsets assigned in
     emission order. *)
  let sections = ref [] and blobs = ref [] in
  let off = ref v3_page in
  let add name is_float blob =
    sections :=
      {
        sec_name = name;
        sec_float = is_float;
        sec_off = !off;
        sec_len = Bytes.length blob / 8;
        sec_crc = Edb_util.Crc32.bytes blob;
      }
      :: !sections;
    blobs := (!off, blob) :: !blobs;
    off := v3_round_page (!off + Bytes.length blob)
  in
  let addf name a =
    add name true (v3_blob (Array.length a) (fun i -> Int64.bits_of_float a.(i)))
  and addi name a =
    add name false (v3_blob (Array.length a) (fun i -> Int64.of_int a.(i)))
  and addfb name (a : Poly.fbuf) =
    add name true
      (v3_blob (Bigarray.Array1.dim a) (fun i -> Int64.bits_of_float a.{i}))
  and addib name (a : Poly.ibuf) =
    add name false
      (v3_blob (Bigarray.Array1.dim a) (fun i -> Int64.of_int a.{i}))
  in
  addfb "alpha" tb.Poly.tb_alpha;
  addfb "attr_sums" tb.Poly.tb_attr_sums;
  addfb "prefix" tb.Poly.tb_prefix;
  Array.iteri
    (fun gi (g : Poly.group) ->
      let u = upd.(gi) in
      let s name = Printf.sprintf "g%d.%s" gi name in
      addi (s "ts_off") u.Poly.ts_off;
      addi (s "ts_stat") u.Poly.ts_stat;
      addib (s "fa_off") g.Poly.fa_off;
      addib (s "fa_attr") g.Poly.fa_attr;
      addfb (s "factors") g.Poly.factors;
      addib (s "iv_off") g.Poly.iv_off;
      addib (s "iv_lo") g.Poly.iv_lo;
      addib (s "iv_hi") g.Poly.iv_hi;
      addib (s "t_mask") g.Poly.t_mask;
      addf (s "fprod") u.Poly.fprod;
      addfb (s "dprod") g.Poly.dprod;
      addf (s "value") u.Poly.value;
      addib (s "mask_bits") g.Poly.mask_bits;
      addf (s "mask_sum") u.Poly.mask_sum;
      addf (s "mask_outer") u.Poly.mask_outer;
      addi (s "bys_off") u.Poly.bys_off;
      addi (s "bys_term") u.Poly.bys_term;
      (* The per-local-attribute by-value index is stored flattened:
         byv_idx points each local attribute at its slice of the
         concatenated offset array (per-attribute offsets stay local;
         the reader rebuilds data bases from each slice's last entry). *)
      let n_local = Array.length g.Poly.g_attrs in
      let byv_idx = Array.make (n_local + 1) 0 in
      Array.iteri
        (fun li o -> byv_idx.(li + 1) <- byv_idx.(li) + Array.length o)
        u.Poly.byv_off;
      addi (s "byv_idx") byv_idx;
      addi (s "byv_off") (Array.concat (Array.to_list u.Poly.byv_off));
      addi (s "byv_term") (Array.concat (Array.to_list u.Poly.byv_term));
      addi (s "byv_slot") (Array.concat (Array.to_list u.Poly.byv_slot)))
    tb.Poly.tb_groups;
  let manifest =
    {
      v3_schema = schema;
      v3_n = Phi.n phi;
      v3_p = tb.Poly.tb_p;
      v3_marginal_targets = marginal_targets;
      v3_joints = joints;
      v3_report = Summary.solver_report summary;
      v3_journal = Summary.journal summary;
      v3_free_attrs = tb.Poly.tb_free_attrs;
      v3_group_of_attr = tb.Poly.tb_group_of_attr;
      v3_groups =
        Array.map2
          (fun (g : Poly.group) (u : Poly.updates) ->
            {
              v3g_attrs = g.Poly.g_attrs;
              v3g_stats = u.Poly.g_stats;
              v3g_n_terms = g.Poly.n_terms;
              v3g_q = u.Poly.q;
            })
          tb.Poly.tb_groups upd;
      v3_sections = List.rev !sections;
    }
  in
  let mstr = Marshal.to_string manifest [] in
  let manifest_off = !off in
  let file_size = v3_round_page (manifest_off + String.length mstr) in
  let header = Bytes.make v3_page '\000' in
  Bytes.blit_string v3_magic 0 header 0 (String.length v3_magic);
  let put o v = Bytes.set_int64_le header o (Int64.of_int v) in
  put v3_hdr_version v3_version;
  put v3_hdr_int_size Sys.int_size;
  put v3_hdr_endian (if Sys.big_endian then 0 else 1);
  put v3_hdr_page v3_page;
  put v3_hdr_manifest_off manifest_off;
  put v3_hdr_manifest_len (String.length mstr);
  put v3_hdr_manifest_crc (Edb_util.Crc32.string mstr);
  put v3_hdr_file_size file_size;
  put v3_hdr_sections (List.length !sections);
  put v3_hdr_crc (Edb_util.Crc32.bytes (Bytes.sub header 0 v3_hdr_crc));
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_bytes oc header;
      List.iter
        (fun (off, blob) ->
          let pad = off - pos_out oc in
          if pad > 0 then output_bytes oc (Bytes.make pad '\000');
          output_bytes oc blob)
        (List.rev !blobs);
      let pad = manifest_off - pos_out oc in
      if pad > 0 then output_bytes oc (Bytes.make pad '\000');
      output_string oc mstr;
      let pad = file_size - pos_out oc in
      if pad > 0 then output_bytes oc (Bytes.make pad '\000'))

(* Validated header + manifest read of an open v3 file of [size] bytes:
   everything [Mapped.open_file] and the heap loader need before touching
   the body, in O(header + manifest) I/O.  Every integrity failure is a
   Format_error naming what broke. *)
let v3_read_manifest fd ~size =
  if size < v3_page then raise (Format_error "truncated v3 header");
  let header = read_at fd ~off:0 (v3_hdr_crc + 8) in
  if String.length header < v3_hdr_crc + 8 then
    raise (Format_error "truncated v3 header");
  if String.sub header 0 (String.length v3_magic) <> v3_magic then
    raise (Format_error "bad magic");
  let get o = Int64.to_int (String.get_int64_le header o) in
  let crc = Edb_util.Crc32.string (String.sub header 0 v3_hdr_crc) in
  if crc <> get v3_hdr_crc then
    raise (Format_error "v3 header checksum mismatch");
  let v = get v3_hdr_version in
  if v <> v3_version then
    raise (Format_error (Printf.sprintf "unsupported v3 version %d" v));
  if get v3_hdr_int_size <> Sys.int_size then
    raise
      (Format_error
         (Printf.sprintf "v3 int size mismatch (file %d, host %d)"
            (get v3_hdr_int_size) Sys.int_size));
  if get v3_hdr_endian <> if Sys.big_endian then 0 else 1 then
    raise (Format_error "v3 byte order mismatch");
  if get v3_hdr_page <> v3_page then
    raise
      (Format_error
         (Printf.sprintf "unsupported v3 page size %d" (get v3_hdr_page)));
  if get v3_hdr_file_size <> size then
    raise
      (Format_error
         (Printf.sprintf "truncated v3 file (%d bytes, header records %d)" size
            (get v3_hdr_file_size)));
  let moff = get v3_hdr_manifest_off and mlen = get v3_hdr_manifest_len in
  if moff < v3_page || mlen < 0 || moff + mlen > size then
    raise (Format_error "corrupt v3 manifest bounds");
  let mstr = read_at fd ~off:moff mlen in
  if String.length mstr < mlen then
    raise (Format_error "truncated v3 manifest");
  if Edb_util.Crc32.string mstr <> get v3_hdr_manifest_crc then
    raise (Format_error "v3 manifest checksum mismatch");
  let manifest =
    try (Marshal.from_string mstr 0 : v3_manifest)
    with _ -> raise (Format_error "corrupt v3 manifest")
  in
  if List.length manifest.v3_sections <> get v3_hdr_sections then
    raise (Format_error "v3 section table mismatch");
  let seen = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if
        s.sec_off < v3_page
        || s.sec_off mod 8 <> 0
        || s.sec_len < 0
        || s.sec_off + (8 * s.sec_len) > moff
        || Hashtbl.mem seen s.sec_name
      then
        raise
          (Format_error
             (Printf.sprintf "corrupt v3 section table (%s)" s.sec_name));
      Hashtbl.add seen s.sec_name ())
    manifest.v3_sections;
  manifest

let with_v3_file path f =
  with_fd path (fun fd ->
      let size = (Unix.fstat fd).Unix.st_size in
      f fd ~size (v3_read_manifest fd ~size))

let v3_manifest_of path = with_v3_file path (fun _ ~size:_ m -> m)

let v3_sections path = (v3_manifest_of path).v3_sections

(* Heap-load a v3 file: rebuild the polynomial from the manifest's
   targets and the stored alpha vector, exactly like a v2 load.  All body
   checksums are verified — this path re-reads the file anyway, so the
   full battery costs nothing extra and keeps "corruption is never a
   silent misread" true for every loader. *)
let v3_load ?term_cap path =
  let manifest, alpha =
    with_v3_file path (fun fd ~size:_ manifest ->
        let alpha = ref None in
        List.iter
          (fun s ->
            let blob = read_at fd ~off:s.sec_off (8 * s.sec_len) in
            if String.length blob < 8 * s.sec_len then
              raise
                (Format_error
                   (Printf.sprintf "truncated section %s" s.sec_name));
            if Edb_util.Crc32.string blob <> s.sec_crc then
              raise
                (Format_error
                   (Printf.sprintf "section %s checksum mismatch" s.sec_name));
            if s.sec_name = "alpha" then alpha := Some blob)
          manifest.v3_sections;
        (manifest, !alpha))
  in
  let alpha =
    match alpha with
    | Some b -> v3_floats_of_string b
    | None -> raise (Format_error "missing section alpha")
  in
  let phi =
    Phi.of_targets manifest.v3_schema ~n:manifest.v3_n
      ~marginal_targets:manifest.v3_marginal_targets
      ~joints:manifest.v3_joints
  in
  if Array.length alpha <> Phi.num_stats phi then
    raise (Format_error "alpha vector length mismatch");
  let poly = Poly.create ?term_cap phi in
  Array.iteri (fun j a -> Poly.set_alpha poly j a) alpha;
  Poly.refresh poly;
  Summary.of_solved_poly ~journal:manifest.v3_journal ~poly
    ~report:manifest.v3_report ()

(* Format-dispatching load: v1/v2 files take the Marshal path, v3 files
   the checksummed heap rebuild, manifests load every part — callers get
   a summary without caring which writer produced the file. *)
let load ?term_cap path =
  match detect path with
  | MappedV3 -> v3_load ?term_cap path
  | Sharded -> load_sharded ?term_cap path
  | Flat -> load ?term_cap path
