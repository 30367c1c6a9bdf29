(* Summary persistence: one file format, one writer, one reader.

   The paper stores its polynomial variables in Postgres and the
   factorization in a text file (Sec. 5).  Here a summary — one part, or
   k parts of a partitioned relation — is one file holding, per part,
   the statistic set and solver state plus the evaluator's kernel tables
   verbatim, so [load] answers straight off a file mapping without
   rebuilding anything:

     [0, 128)            fixed header: magic, version, host geometry,
                         section alignment, manifest pointer and CRC,
                         file size, section count, CRC-32 of the header
     [128, manifest)     the sections, each 64-byte aligned: per part,
                         alpha, attr_sums and prefix, then per statistic
                         group the nine tables the evaluator reads
                         (fa_off, fa_attr, factors, iv_off, iv_lo, iv_hi,
                         t_mask, dprod, mask_bits) — and nothing else
     [manifest, end)     one marshaled pure-data record: the schema, the
                         strategy tag and, per part, n, P, the targets,
                         the solver report, the journal, the group
                         metadata and the part's section table (name,
                         element kind, offset, length, CRC-32)

   The manifest comes last so section offsets are known before it is
   written; the header points at it.  Opening a file is O(header +
   manifest): the file is mapped once, whatever k is, and the sections
   become Bigarray views handed to [Poly.of_tables], so the one
   evaluator answers a loaded summary exactly as it answered the summary
   that wrote it.  Body sections are verified lazily: each part's
   polynomial carries a once-only latch that checksums and range-checks
   its sections before its first answer, so a flipped byte, and an
   out-of-range index in a file whose checksums were recomputed after an
   edit, are a Format_error — never a crash, never a silently wrong
   answer.

   Element encoding is the host representation Bigarray maps: IEEE-754
   doubles and untagged native ints, little-endian.  The header records
   int size and byte order; a file from a foreign host is rejected.

   The formats this one replaced (v1/v2 Marshal files, the ENTROPYDB\x02
   manifest naming per-part files, the page-aligned version 3) are
   recognized from the header bytes and refused with a pointer to
   `entropydb upgrade`, which converts them ([Legacy]); nothing of them
   is unmarshaled here. *)

open Edb_util
open Edb_storage
module A1 = Bigarray.Array1

exception Format_error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Format_error msg)) fmt

let magic = "ENTROPYDB\x03"
let version = 4
let header_bytes = 128
let align = 64

(* Header field offsets (bytes; int64 LE after the magic).  The CRC at
   [hdr_crc] covers bytes [0, hdr_crc). *)
let hdr_version = 16
let hdr_int_size = 24
let hdr_endian = 32
let hdr_align = 40
let hdr_manifest_off = 48
let hdr_manifest_len = 56
let hdr_manifest_crc = 64
let hdr_file_size = 72
let hdr_sections = 80
let hdr_crc = 88

type section = {
  sec_name : string;
  sec_float : bool;
  sec_off : int;
  sec_len : int;
  sec_crc : int;
}

type group_meta = { gm_attrs : int array; gm_terms : int }

type part_meta = {
  pm_n : int;
  pm_p : float;
  pm_marginal_targets : float array array;
  pm_joints : (Predicate.t * float) list;
  pm_report : Solver.report;
  pm_journal : Journal.t;
  pm_free_attrs : int array;
  pm_group_of_attr : int array;
  pm_groups : group_meta array;
  pm_sections : section list;
}

type manifest = {
  m_schema : Schema.t;
  m_strategy : string;
  m_parts : part_meta array;
}

(* The nine per-group tables, in file order. *)
let group_tables =
  [
    "fa_off"; "fa_attr"; "factors"; "iv_off"; "iv_lo"; "iv_hi"; "t_mask";
    "dprod"; "mask_bits";
  ]

let group_section gi name = "g" ^ string_of_int gi ^ "." ^ name
let round_up n = (n + align - 1) / align * align

(* A part's sections, in the order the writer emits them and the reader
   requires. *)
let section_names ~groups =
  "alpha" :: "attr_sums" :: "prefix"
  :: List.concat_map
       (fun gi -> List.map (group_section gi) group_tables)
       (List.init groups Fun.id)

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

let save summary path =
  Edb_obs.Obs.with_span "serialize.save" ~cat:"io"
    ~attrs:(fun () -> [ ("path", path) ])
  @@ fun () ->
  let schema = Summary.schema summary in
  let off = ref header_bytes and blobs = ref [] in
  let add sections name is_float len elt =
    let b = Bytes.create (8 * len) in
    for i = 0 to len - 1 do
      Bytes.set_int64_le b (8 * i) (elt i)
    done;
    sections :=
      {
        sec_name = name;
        sec_float = is_float;
        sec_off = !off;
        sec_len = len;
        sec_crc = Crc32.bytes b;
      }
      :: !sections;
    blobs := (!off, b) :: !blobs;
    off := round_up (!off + Bytes.length b)
  in
  let part_meta part =
    let poly = Summary.poly part in
    (* A built polynomial's cached tables carry the float drift of the
       solver's incremental updates: rebuild them from the variable
       vector (semantically the identity) so the stored tables are
       canonical.  A read-only polynomial's tables came from such a file
       and already are. *)
    if not (Poly.read_only poly) then Poly.refresh poly;
    let tb = Poly.tables poly and phi = Poly.phi poly in
    let sections = ref [] in
    let floats name (a : Poly.fbuf) =
      add sections name true (A1.dim a) (fun i -> Int64.bits_of_float a.{i})
    and ints name (a : Poly.ibuf) =
      add sections name false (A1.dim a) (fun i -> Int64.of_int a.{i})
    in
    floats "alpha" tb.Poly.tb_alpha;
    floats "attr_sums" tb.Poly.tb_attr_sums;
    floats "prefix" tb.Poly.tb_prefix;
    Array.iteri
      (fun gi (g : Poly.group) ->
        let nm = group_section gi in
        ints (nm "fa_off") g.fa_off;
        ints (nm "fa_attr") g.fa_attr;
        floats (nm "factors") g.factors;
        ints (nm "iv_off") g.iv_off;
        ints (nm "iv_lo") g.iv_lo;
        ints (nm "iv_hi") g.iv_hi;
        ints (nm "t_mask") g.t_mask;
        floats (nm "dprod") g.dprod;
        ints (nm "mask_bits") g.mask_bits)
      tb.Poly.tb_groups;
    {
      pm_n = Summary.cardinality part;
      pm_p = tb.Poly.tb_p;
      pm_marginal_targets =
        Array.init (Schema.arity schema) (fun i ->
            Array.init (Schema.domain_size schema i) (fun v ->
                Phi.target phi (Phi.marginal_id phi ~attr:i ~value:v)));
      pm_joints =
        List.map
          (fun j ->
            let s = Phi.stat phi j in
            (Statistic.pred s, Statistic.target s))
          (Phi.joint_ids phi);
      pm_report = Summary.solver_report part;
      pm_journal = Summary.journal part;
      pm_free_attrs = tb.Poly.tb_free_attrs;
      pm_group_of_attr = tb.Poly.tb_group_of_attr;
      pm_groups =
        Array.map
          (fun (g : Poly.group) -> { gm_attrs = g.g_attrs; gm_terms = g.n_terms })
          tb.Poly.tb_groups;
      pm_sections = List.rev !sections;
    }
  in
  let manifest =
    {
      m_schema = schema;
      m_strategy = Summary.strategy summary;
      m_parts = Array.map part_meta (Summary.parts summary);
    }
  in
  let mstr = Marshal.to_string manifest [] in
  let manifest_off = !off in
  let header = Bytes.make header_bytes '\000' in
  Bytes.blit_string magic 0 header 0 (String.length magic);
  let put o v = Bytes.set_int64_le header o (Int64.of_int v) in
  put hdr_version version;
  put hdr_int_size Sys.int_size;
  put hdr_endian (if Sys.big_endian then 0 else 1);
  put hdr_align align;
  put hdr_manifest_off manifest_off;
  put hdr_manifest_len (String.length mstr);
  put hdr_manifest_crc (Crc32.string mstr);
  put hdr_file_size (manifest_off + String.length mstr);
  put hdr_sections
    (Array.fold_left
       (fun n p -> n + List.length p.pm_sections)
       0 manifest.m_parts);
  put hdr_crc (Crc32.bytes (Bytes.sub header 0 hdr_crc));
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let pad_to o =
        let pad = o - pos_out oc in
        if pad > 0 then output_bytes oc (Bytes.make pad '\000')
      in
      output_bytes oc header;
      List.iter
        (fun (o, blob) ->
          pad_to o;
          output_bytes oc blob)
        (List.rev !blobs);
      pad_to manifest_off;
      output_string oc mstr)

let save_v3 = save

(* ------------------------------------------------------------------ *)
(* Header and manifest                                                 *)
(* ------------------------------------------------------------------ *)

(* Reads go through a file descriptor, not an in_channel: the header
   and manifest are a few hundred bytes, and a channel allocates and
   fills a 64 KiB buffer for them.  Failures name the path. *)
let with_fd path f =
  let fd =
    try Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0
    with Unix.Unix_error (e, _, _) ->
      raise (Sys_error (path ^ ": " ^ Unix.error_message e))
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      try f fd
      with Unix.Unix_error (e, _, _) ->
        raise (Sys_error (path ^ ": " ^ Unix.error_message e)))

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
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let got = go 0 in
  if got = len then Bytes.unsafe_to_string buf else Bytes.sub_string buf 0 got

let legacy what =
  fail "%s (a replaced format); convert it with `entropydb upgrade OLD NEW`"
    what

(* The header's claims about the file: recognizes the replaced formats
   from the bytes it reads anyway, then checks the current one's
   checksum and geometry.  Returns (manifest offset, length, CRC,
   section count). *)
let read_header fd ~size =
  let h = read_at fd ~off:0 header_bytes in
  let have = String.length h in
  if have < String.length magic then fail "truncated file";
  match String.sub h 0 (String.length magic) with
  | "ENTROPYDB\x01" ->
      if have < 14 then fail "truncated header";
      let v = Int32.to_int (String.get_int32_be h 10) in
      if v = 1 || v = 2 then legacy (Printf.sprintf "v%d flat summary file" v)
      else fail "unsupported version %d" v
  | "ENTROPYDB\x02" -> legacy "sharded manifest"
  | tag when tag <> magic -> fail "bad magic"
  | _ ->
      if have < hdr_crc + 8 then fail "truncated header";
      let get o = Int64.to_int (String.get_int64_le h o) in
      if Crc32.string (String.sub h 0 hdr_crc) <> get hdr_crc then
        fail "header checksum mismatch";
      (match get hdr_version with
      | 3 -> legacy "version-3 (page-aligned) file"
      | v when v <> version -> fail "unsupported version %d" v
      | _ -> ());
      if get hdr_int_size <> Sys.int_size then
        fail "int size mismatch (file %d, host %d)" (get hdr_int_size)
          Sys.int_size;
      if get hdr_endian <> if Sys.big_endian then 0 else 1 then
        fail "byte order mismatch";
      if get hdr_align <> align then
        fail "unsupported section alignment %d" (get hdr_align);
      if get hdr_file_size <> size then
        fail "truncated file (%d bytes, header records %d)" size
          (get hdr_file_size);
      let moff = get hdr_manifest_off and mlen = get hdr_manifest_len in
      if moff < header_bytes || mlen < 0 || moff + mlen <> size then
        fail "corrupt manifest bounds";
      (moff, mlen, get hdr_manifest_crc, get hdr_sections)

let sorted_in_range a ~arity =
  let ok = ref true in
  Array.iteri
    (fun k x ->
      if x < 0 || x >= arity || (k > 0 && x <= a.(k - 1)) then ok := false)
    a;
  !ok

(* What a manifest says about one part, checked against itself: groups
   are ascending attribute sets that, with the free attributes,
   partition the schema exactly as the attribute-group map says, and
   the section table lists exactly the sections the reader carves, in
   writer order, inside the body.  The body-dependent checks wait for
   the verify pass. *)
let check_part ~arity ~moff i p =
  let bad what = fail "corrupt manifest: part %d %s" i what in
  let ngroups = Array.length p.pm_groups in
  if p.pm_n < 0 then bad "cardinality";
  if Array.length p.pm_group_of_attr <> arity then bad "attribute-group map";
  let covered = ref (Array.length p.pm_free_attrs) in
  Array.iter
    (fun g -> if g < -1 || g >= ngroups then bad "attribute-group map")
    p.pm_group_of_attr;
  if not (sorted_in_range p.pm_free_attrs ~arity) then bad "free attributes";
  Array.iter
    (fun a -> if p.pm_group_of_attr.(a) <> -1 then bad "free attributes")
    p.pm_free_attrs;
  Array.iteri
    (fun gi g ->
      let width = Array.length g.gm_attrs in
      if width = 0 || width > 62 || not (sorted_in_range g.gm_attrs ~arity)
      then bad (Printf.sprintf "group %d attributes" gi);
      if g.gm_terms < 1 then bad (Printf.sprintf "group %d term count" gi);
      Array.iter
        (fun a ->
          if p.pm_group_of_attr.(a) <> gi then bad "attribute-group map")
        g.gm_attrs;
      covered := !covered + width)
    p.pm_groups;
  if !covered <> arity then bad "attribute-group map";
  let rec walk sections names =
    match (sections, names) with
    | [], [] -> ()
    | [], name :: _ -> fail "missing section %s" name
    | s :: _, [] -> fail "corrupt section table (%s)" s.sec_name
    | s :: sections, name :: names ->
        if
          s.sec_name <> name
          || s.sec_off < header_bytes
          || s.sec_off mod 8 <> 0
          || s.sec_len < 0
          || s.sec_len > (moff - s.sec_off) / 8
        then fail "corrupt section table (%s)" s.sec_name;
        walk sections names
  in
  walk p.pm_sections (section_names ~groups:ngroups)

(* Validated header + manifest of an open file of [size] bytes, in
   O(header + manifest) I/O. *)
let read_manifest fd ~size =
  let moff, mlen, mcrc, nsections = read_header fd ~size in
  let mstr = read_at fd ~off:moff mlen in
  if String.length mstr < mlen then fail "truncated manifest";
  if Crc32.string mstr <> mcrc then fail "manifest checksum mismatch";
  let m =
    try (Marshal.from_string mstr 0 : manifest)
    with _ -> fail "corrupt manifest"
  in
  let arity = Schema.arity m.m_schema in
  if Array.length m.m_parts < 1 then fail "corrupt manifest: no parts";
  if
    Array.fold_left (fun n p -> n + List.length p.pm_sections) 0 m.m_parts
    <> nsections
  then fail "section table mismatch";
  for i = 0 to arity - 1 do
    let d = Schema.domain_size m.m_schema i in
    if d < 1 || d > size then fail "corrupt manifest: schema"
  done;
  Array.iteri (check_part ~arity ~moff) m.m_parts;
  (moff, m)

let manifest path =
  with_fd path (fun fd ->
      snd (read_manifest fd ~size:(Unix.fstat fd).Unix.st_size))

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

let opens_counter = Edb_obs.Registry.counter "mapped.opens"

(* Time of one part's checksum-and-range pass, in nanoseconds (observed
   through the microsecond API, like catalog_open_ns): with it, STATS
   splits a reopen's cost into the open and the verify. *)
let verify_ns_hist = Edb_obs.Registry.histogram "mapped_verify_ns"

(* One mapping per file, wrapped as char (checksums), float64 and int
   views sharing one proxy (mapped_stubs.c); [release] gives the
   mapping's resident pages back with one madvise. *)
external map_views :
  Unix.file_descr -> int -> Crc32.bigchar * Poly.fbuf * Poly.ibuf
  = "edb_mapped_map"

external release : (_, _, Bigarray.c_layout) A1.t -> unit = "edb_mapped_release"

(* The index tables of one group, checked against the bounds the
   evaluator's unchecked reads assume: CSR offsets start at 0, never
   decrease and end at their table's length; slot attributes belong to
   the group; intervals lie inside their attribute's domain; mask ids
   index the mask table; masks fit the group's width. *)
let check_group schema ~where ~group_of_attr gi (g : Poly.group) =
  let bad name = fail "%ssection %s out of range" where (group_section gi name) in
  let csr name (off : Poly.ibuf) ~last =
    let n = A1.dim off in
    if off.{0} <> 0 || off.{n - 1} <> last then bad name;
    for k = 1 to n - 1 do
      if off.{k} < off.{k - 1} then bad name
    done
  in
  csr "fa_off" g.fa_off ~last:(A1.dim g.fa_attr);
  csr "iv_off" g.iv_off ~last:(A1.dim g.iv_lo);
  let arity = Array.length group_of_attr in
  for s = 0 to A1.dim g.fa_attr - 1 do
    let a = g.fa_attr.{s} in
    if a < 0 || a >= arity || group_of_attr.(a) <> gi then bad "fa_attr";
    let dom = Schema.domain_size schema a in
    for k = g.iv_off.{s} to g.iv_off.{s + 1} - 1 do
      let lo = g.iv_lo.{k} and hi = g.iv_hi.{k} in
      if lo < 0 || lo > hi then bad "iv_lo";
      if hi >= dom then bad "iv_hi"
    done
  done;
  let masks = A1.dim g.mask_bits in
  for ti = 0 to A1.dim g.t_mask - 1 do
    let k = g.t_mask.{ti} in
    if k < 0 || k >= masks then bad "t_mask"
  done;
  let limit = 1 lsl Array.length g.g_attrs in
  for k = 0 to masks - 1 do
    let b = g.mask_bits.{k} in
    if b < 0 || b >= limit then bad "mask_bits"
  done

let verify_part path schema ~where (cview : Crc32.bigchar) p
    (tb : Poly.tables) () =
  Edb_obs.Obs.with_span "mapped.verify" ~cat:"io"
    ~attrs:(fun () -> [ ("path", path) ])
  @@ fun () ->
  let t0 = Timing.now_s () in
  List.iter
    (fun s ->
      if Crc32.bigchar (A1.sub cview s.sec_off (8 * s.sec_len)) <> s.sec_crc
      then fail "%ssection %s checksum mismatch" where s.sec_name)
    p.pm_sections;
  Array.iteri
    (check_group schema ~where ~group_of_attr:p.pm_group_of_attr)
    tb.Poly.tb_groups;
  Edb_obs.Registry.Hist.observe_us verify_ns_hist
    ((Timing.now_s () -. t0) *. 1e9)

(* One part's tables, carved from the file's views in section-table
   order ([section_names], checked at open), with the geometry the
   evaluator assumes. *)
let carve schema ~where (fview : Poly.fbuf) (iview : Poly.ibuf) p =
  let sections = Array.of_list p.pm_sections in
  let slice view is_float i =
    let s = sections.(i) in
    if s.sec_float <> is_float then
      fail "%ssection %s has the wrong element kind" where s.sec_name;
    A1.sub view (s.sec_off / 8) s.sec_len
  in
  let fslice = slice fview true and islice = slice iview false in
  let m = Schema.arity schema in
  let marginals = ref 0 in
  for i = 0 to m - 1 do
    marginals := !marginals + Schema.domain_size schema i
  done;
  let alpha = fslice 0 and attr_sums = fslice 1 and prefix = fslice 2 in
  if A1.dim attr_sums <> m then fail "%ssection attr_sums length mismatch" where;
  if A1.dim prefix <> !marginals + m then
    fail "%ssection prefix length mismatch" where;
  if A1.dim alpha <> !marginals + List.length p.pm_joints then
    fail "%ssection alpha length mismatch" where;
  let groups =
    Array.mapi
      (fun gi gm ->
        let at k = 3 + (9 * gi) + k in
        let g =
          {
            Poly.g_attrs = gm.gm_attrs;
            n_terms = gm.gm_terms;
            fa_off = islice (at 0);
            fa_attr = islice (at 1);
            factors = fslice (at 2);
            iv_off = islice (at 3);
            iv_lo = islice (at 4);
            iv_hi = islice (at 5);
            t_mask = islice (at 6);
            dprod = fslice (at 7);
            mask_bits = islice (at 8);
          }
        in
        if
          A1.dim g.fa_off <> g.n_terms + 1
          || A1.dim g.t_mask <> g.n_terms
          || A1.dim g.dprod <> g.n_terms
          || A1.dim g.fa_attr <> A1.dim g.factors
          || A1.dim g.iv_off <> A1.dim g.factors + 1
          || A1.dim g.iv_lo <> A1.dim g.iv_hi
          || A1.dim g.mask_bits < 1
        then fail "%sgroup %d table geometry mismatch" where gi;
        g)
      p.pm_groups
  in
  {
    Poly.tb_alpha = alpha;
    tb_attr_sums = attr_sums;
    tb_prefix = prefix;
    tb_p = p.pm_p;
    tb_free_attrs = p.pm_free_attrs;
    tb_group_of_attr = p.pm_group_of_attr;
    tb_groups = groups;
  }

let load path =
  Edb_obs.Obs.with_span "serialize.load" ~cat:"io"
    ~attrs:(fun () -> [ ("path", path) ])
  @@ fun () ->
  Edb_obs.Registry.Counter.incr opens_counter;
  let size, m, (cview, fview, iview) =
    with_fd path (fun fd ->
        let size = (Unix.fstat fd).Unix.st_size in
        let _, m = read_manifest fd ~size in
        (size, m, map_views fd size))
  in
  let schema = m.m_schema in
  let k = Array.length m.m_parts in
  let parts =
    Array.mapi
      (fun i p ->
        let where = if k = 1 then "" else Printf.sprintf "part %d " i in
        let tables = carve schema ~where fview iview p in
        let phi () =
          Phi.of_targets schema ~n:p.pm_n
            ~marginal_targets:p.pm_marginal_targets ~joints:p.pm_joints
        in
        let poly =
          Poly.of_tables schema ~n:p.pm_n tables ~phi
            ~verify:(verify_part path schema ~where cview p tables)
        in
        Summary.of_solved_poly ~journal:p.pm_journal ~poly ~report:p.pm_report
          ())
      m.m_parts
  in
  Summary.of_file ~bytes:size
    ~release:(fun () -> release cview)
    (Summary.of_parts ~strategy:m.m_strategy parts)
