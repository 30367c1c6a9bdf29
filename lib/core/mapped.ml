(* Zero-copy mapped summaries: a format-v3 file opened as an ordinary,
   read-only [Summary.t] whose kernel tables are views of the file.

   [open_file] opens the file once, validates the header and manifest
   ([Serialize.with_v3_file], O(header + manifest) I/O), maps the whole
   file once and wraps the mapping three times — char for checksumming,
   float64 and native-int for the tables — with one shared Bigarray proxy
   (mapped_stubs.c), then carves the evaluator's section views with
   [Bigarray.Array1.sub].  One map per file (not per section or per view)
   keeps the per-summary mapping count at one, so a thousand-summary
   catalog stays far from vm.max_map_count; the region is unmapped when
   the last view, section views included, is finalized.  The views go to
   [Poly.of_tables]: the one evaluator answers a mapped summary exactly as
   it answers the heap summary that wrote the file (the writer refreshes
   the polynomial before exporting, so the stored tables are the ones any
   loader rebuilds).

   Integrity: the body is NOT verified at open (that would break the
   O(1) open).  Instead the polynomial carries a once-only latch that
   checksums every section before its first answer or table read, so
   corruption surfaces as [Serialize.Format_error "section %s checksum
   mismatch"] — never a crash, never a silently wrong answer.  The
   evaluator's unsafe accesses are sound because they only ever run on
   verified bytes, which are exactly the bytes a valid polynomial
   exported.

   Residency: [Summary.release_pages] gives the mapping's pages back to
   the kernel (one madvise, see mapped_stubs.c) without unmapping it; the
   catalog calls it on eviction, since the GC neither sees a mapping's
   size nor unmaps it before finalizing its Bigarray. *)

open Edb_util
open Edb_storage
module A1 = Bigarray.Array1

let opens_counter = Edb_obs.Registry.counter "mapped.opens"

(* Time of one section-checksum pass, in nanoseconds (observed through
   the microsecond API, like catalog_open_ns): with it, STATS splits a
   reopen's cost into the open and the verify. *)
let verify_ns_hist = Edb_obs.Registry.histogram "mapped_verify_ns"

external map_views :
  Unix.file_descr -> int -> Crc32.bigchar * Poly.fbuf * Poly.ibuf
  = "edb_mapped_map"

external release : (_, _, Bigarray.c_layout) A1.t -> unit = "edb_mapped_release"

let find_section manifest name =
  let rec go = function
    | [] -> raise (Serialize.Format_error ("missing section " ^ name))
    | s :: rest -> if s.Serialize.sec_name = name then s else go rest
  in
  go manifest.Serialize.v3_sections

let fail fmt =
  Printf.ksprintf (fun msg -> raise (Serialize.Format_error msg)) fmt

let verify_sections path manifest (cview : Crc32.bigchar) () =
  Edb_obs.Obs.with_span "mapped.verify" ~cat:"io"
    ~attrs:(fun () -> [ ("path", path) ])
  @@ fun () ->
  let t0 = Timing.now_s () in
  List.iter
    (fun s ->
      let sub = A1.sub cview s.Serialize.sec_off (8 * s.Serialize.sec_len) in
      if Crc32.bigchar sub <> s.Serialize.sec_crc then
        fail "section %s checksum mismatch" s.Serialize.sec_name)
    manifest.Serialize.v3_sections;
  Edb_obs.Registry.Hist.observe_us verify_ns_hist
    ((Timing.now_s () -. t0) *. 1e9)

let open_file path =
  Edb_obs.Obs.with_span "mapped.open" ~cat:"io"
    ~attrs:(fun () -> [ ("path", path) ])
  @@ fun () ->
  Edb_obs.Registry.Counter.incr opens_counter;
  let size, manifest, (cview, fview, iview) =
    Serialize.with_v3_file path (fun fd ~size manifest ->
        (size, manifest, map_views fd size))
  in
  let slice view is_float name =
    let s = find_section manifest name in
    if s.Serialize.sec_float <> is_float then
      fail "section %s has the wrong element kind" name;
    A1.sub view (s.Serialize.sec_off / 8) s.Serialize.sec_len
  in
  let fslice = slice fview true and islice = slice iview false in
  let schema = manifest.Serialize.v3_schema in
  let m = Schema.arity schema in
  let marginals = ref 0 and prefix_len = ref 0 in
  for i = 0 to m - 1 do
    marginals := !marginals + Schema.domain_size schema i;
    prefix_len := !prefix_len + Schema.domain_size schema i + 1
  done;
  let alpha = fslice "alpha"
  and attr_sums = fslice "attr_sums"
  and prefix = fslice "prefix" in
  if A1.dim attr_sums <> m then fail "section attr_sums length mismatch";
  if A1.dim prefix <> !prefix_len then fail "section prefix length mismatch";
  if A1.dim alpha <> !marginals + List.length manifest.Serialize.v3_joints
  then fail "section alpha length mismatch";
  if Array.length manifest.Serialize.v3_group_of_attr <> m then
    fail "corrupt v3 attribute-group map";
  let groups =
    Array.mapi
      (fun gi (gm : Serialize.v3_group_meta) ->
        let nm name = Printf.sprintf "g%d.%s" gi name in
        let g =
          {
            Poly.g_attrs = gm.Serialize.v3g_attrs;
            n_terms = gm.Serialize.v3g_n_terms;
            fa_off = islice (nm "fa_off");
            fa_attr = islice (nm "fa_attr");
            factors = fslice (nm "factors");
            iv_off = islice (nm "iv_off");
            iv_lo = islice (nm "iv_lo");
            iv_hi = islice (nm "iv_hi");
            t_mask = islice (nm "t_mask");
            dprod = fslice (nm "dprod");
            mask_bits = islice (nm "mask_bits");
          }
        in
        if
          A1.dim g.fa_off <> g.n_terms + 1
          || A1.dim g.t_mask <> g.n_terms
          || A1.dim g.dprod <> g.n_terms
          || A1.dim g.fa_attr <> A1.dim g.factors
          || A1.dim g.iv_off <> A1.dim g.factors + 1
          || A1.dim g.iv_lo <> A1.dim g.iv_hi
        then fail "group %d table geometry mismatch" gi;
        g)
      manifest.Serialize.v3_groups
  in
  let n = manifest.Serialize.v3_n in
  let tables =
    {
      Poly.tb_alpha = alpha;
      tb_attr_sums = attr_sums;
      tb_prefix = prefix;
      tb_p = manifest.Serialize.v3_p;
      tb_free_attrs = manifest.Serialize.v3_free_attrs;
      tb_group_of_attr = manifest.Serialize.v3_group_of_attr;
      tb_groups = groups;
    }
  in
  let phi () =
    Phi.of_targets schema ~n
      ~marginal_targets:manifest.Serialize.v3_marginal_targets
      ~joints:manifest.Serialize.v3_joints
  in
  let poly =
    Poly.of_tables schema ~n tables ~phi
      ~verify:(verify_sections path manifest cview)
      ~release:(fun () -> release cview)
      ~footprint_bytes:size
  in
  Summary.of_solved_poly ~journal:manifest.Serialize.v3_journal ~poly
    ~report:manifest.Serialize.v3_report ()
