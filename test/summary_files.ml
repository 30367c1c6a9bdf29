(* Summary files for tests: writers of the formats the current one
   replaced, and a helper that edits a current-format file and recomputes
   its checksums.

   The legacy writers reproduce those formats byte for byte where their
   readers look: Marshal is structural, so local copies of the records
   the old writers marshaled give the same payloads.  The version-3
   writer stores only the sections any version-3 reader used (alpha and
   the evaluator tables); the solver-only sections and manifest fields
   it leaves out were never read. *)

open Edb_storage
open Entropydb_core

(* ------------------------------------------------------------------ *)
(* v1 and v2 flat files                                                *)
(* ------------------------------------------------------------------ *)

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

let marginal_targets phi =
  let schema = Phi.schema phi in
  Array.init (Schema.arity schema) (fun i ->
      Array.init (Schema.domain_size schema i) (fun v ->
          Phi.target phi (Phi.marginal_id phi ~attr:i ~value:v)))

let joints phi =
  List.map
    (fun j ->
      let s = Phi.stat phi j in
      (Statistic.pred s, Statistic.target s))
    (Phi.joint_ids phi)

let write_flat ~version payload path =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "ENTROPYDB\x01";
      output_binary_int oc version;
      Marshal.to_channel oc payload [])

let write_v1 summary path =
  let poly = Summary.poly summary in
  let phi = Poly.phi poly in
  write_flat ~version:1
    {
      v1_schema = Phi.schema phi;
      v1_n = Phi.n phi;
      v1_marginal_targets = marginal_targets phi;
      v1_joints = joints phi;
      v1_alpha = Poly.alphas poly;
      v1_report = Summary.solver_report summary;
    }
    path

let write_v2 summary path =
  let poly = Summary.poly summary in
  let phi = Poly.phi poly in
  write_flat ~version:2
    {
      p_schema = Phi.schema phi;
      p_n = Phi.n phi;
      p_marginal_targets = marginal_targets phi;
      p_joints = joints phi;
      p_alpha = Poly.alphas poly;
      p_report = Summary.solver_report summary;
      p_journal = Summary.journal summary;
    }
    path

(* ------------------------------------------------------------------ *)
(* The ENTROPYDB\x02 manifest                                          *)
(* ------------------------------------------------------------------ *)

(* One v2 file per part, named [<base>.shard<i>] next to [path], then
   the manifest: magic, version 1, strategy, k and the part names, each
   int a 4-byte big-endian word and each string length-prefixed. *)
let write_manifest summary path =
  let names =
    Array.mapi
      (fun i part ->
        let name = Printf.sprintf "%s.shard%d" (Filename.basename path) i in
        write_v2 part (Filename.concat (Filename.dirname path) name);
        name)
      (Summary.parts summary)
  in
  Out_channel.with_open_bin path (fun oc ->
      let str s =
        output_binary_int oc (String.length s);
        output_string oc s
      in
      output_string oc "ENTROPYDB\x02";
      output_binary_int oc 1;
      str (Summary.strategy summary);
      output_binary_int oc (Array.length names);
      Array.iter str names)

(* ------------------------------------------------------------------ *)
(* The page-aligned version-3 file                                     *)
(* ------------------------------------------------------------------ *)

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

let page = 4096
let round_page n = (n + page - 1) / page * page

(* Header page (magic, version 3, int size, byte order, page size,
   manifest offset/length/CRC, file size, section count, header CRC),
   page-aligned sections, the marshaled manifest, zero padding to a
   page.  Like the version-3 writer, it refreshes the polynomial first,
   so the stored tables are canonical. *)
let write_v3 summary path =
  let poly = Summary.poly summary in
  Poly.refresh poly;
  let tb = Poly.tables poly and phi = Poly.phi poly in
  let sections = ref [] and blobs = ref [] and off = ref page in
  let add name is_float len elt =
    let b = Bytes.create (8 * len) in
    for i = 0 to len - 1 do
      Bytes.set_int64_le b (8 * i) (elt i)
    done;
    sections :=
      {
        Serialize.sec_name = name;
        sec_float = is_float;
        sec_off = !off;
        sec_len = len;
        sec_crc = Edb_util.Crc32.bytes b;
      }
      :: !sections;
    blobs := (!off, b) :: !blobs;
    off := round_page (!off + Bytes.length b)
  in
  let module A1 = Bigarray.Array1 in
  let floats name (a : Poly.fbuf) =
    add name true (A1.dim a) (fun i -> Int64.bits_of_float a.{i})
  and ints name (a : Poly.ibuf) =
    add name false (A1.dim a) (fun i -> Int64.of_int a.{i})
  in
  floats "alpha" tb.tb_alpha;
  floats "attr_sums" tb.tb_attr_sums;
  floats "prefix" tb.tb_prefix;
  Array.iteri
    (fun gi (g : Poly.group) ->
      let nm s = Printf.sprintf "g%d.%s" gi s in
      ints (nm "fa_off") g.fa_off;
      ints (nm "fa_attr") g.fa_attr;
      floats (nm "factors") g.factors;
      ints (nm "iv_off") g.iv_off;
      ints (nm "iv_lo") g.iv_lo;
      ints (nm "iv_hi") g.iv_hi;
      ints (nm "t_mask") g.t_mask;
      floats (nm "dprod") g.dprod;
      ints (nm "mask_bits") g.mask_bits)
    tb.tb_groups;
  let manifest =
    {
      v3_schema = Phi.schema phi;
      v3_n = Phi.n phi;
      v3_p = tb.tb_p;
      v3_marginal_targets = marginal_targets phi;
      v3_joints = joints phi;
      v3_report = Summary.solver_report summary;
      v3_journal = Summary.journal summary;
      v3_free_attrs = tb.tb_free_attrs;
      v3_group_of_attr = tb.tb_group_of_attr;
      v3_groups =
        Array.map
          (fun (g : Poly.group) ->
            {
              v3g_attrs = g.g_attrs;
              v3g_stats = [||];
              v3g_n_terms = g.n_terms;
              v3g_q = 0.;
            })
          tb.tb_groups;
      v3_sections = List.rev !sections;
    }
  in
  let mstr = Marshal.to_string manifest [] in
  let moff = !off in
  let size = round_page (moff + String.length mstr) in
  let file = Bytes.make size '\000' in
  Bytes.blit_string "ENTROPYDB\x03" 0 file 0 10;
  let put o v = Bytes.set_int64_le file o (Int64.of_int v) in
  put 16 3;
  put 24 Sys.int_size;
  put 32 (if Sys.big_endian then 0 else 1);
  put 40 page;
  put 48 moff;
  put 56 (String.length mstr);
  put 64 (Edb_util.Crc32.string mstr);
  put 72 size;
  put 80 (List.length !sections);
  put 88 (Edb_util.Crc32.bytes (Bytes.sub file 0 88));
  List.iter (fun (o, b) -> Bytes.blit b 0 file o (Bytes.length b)) !blobs;
  Bytes.blit_string mstr 0 file moff (String.length mstr);
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc file)

(* ------------------------------------------------------------------ *)
(* Crafting current-format files                                       *)
(* ------------------------------------------------------------------ *)

(* Rewrite the file at [path] through [edit], which may change body
   bytes in place and returns the new manifest; the manifest, its CRC,
   the file size and the header CRC are recomputed, so only the reader's
   semantic checks stand between the edit and the evaluator. *)
let reseal path ~edit =
  let b = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
  let get o = Int64.to_int (Bytes.get_int64_le b o) in
  let moff = get 48 in
  let m : Serialize.manifest = Marshal.from_bytes b moff in
  let m = edit b m in
  let mstr = Marshal.to_string m [] in
  let out = Bytes.cat (Bytes.sub b 0 moff) (Bytes.of_string mstr) in
  let put o v = Bytes.set_int64_le out o (Int64.of_int v) in
  put 56 (String.length mstr);
  put 64 (Edb_util.Crc32.string mstr);
  put 72 (Bytes.length out);
  put 80
    (Array.fold_left
       (fun n p -> n + List.length p.Serialize.pm_sections)
       0 m.Serialize.m_parts);
  put 88 (Edb_util.Crc32.bytes (Bytes.sub out 0 88));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc out)

(* Overwrite element [index] of part 0's section [name] with [v], and
   recompute that section's CRC and every checksum after it. *)
let poke path ~name ~index v =
  reseal path ~edit:(fun b m ->
      let p = m.m_parts.(0) in
      let sections =
        List.map
          (fun (s : Serialize.section) ->
            if s.sec_name <> name then s
            else begin
              Bytes.set_int64_le b (s.sec_off + (8 * index)) (Int64.of_int v);
              {
                s with
                sec_crc =
                  Edb_util.Crc32.bytes (Bytes.sub b s.sec_off (8 * s.sec_len));
              }
            end)
          p.pm_sections
      in
      let parts = Array.copy m.m_parts in
      parts.(0) <- { p with pm_sections = sections };
      { m with m_parts = parts })
