(** Summary persistence: one versioned binary file per one-part summary,
    sized O(#statistics), plus a versioned manifest format for
    partitioned summaries (one manifest referencing k flat per-part
    files).  The compressed polynomial is rebuilt on load. *)

exception Format_error of string

val version : int
(** Current flat-file format version (2: v1 payload + the ingest
    {!Journal}).  {!load} accepts every version up to this one — v1 files
    load with a fresh base journal — and rejects unknown future versions
    with {!Format_error}. *)

val save : Summary.t -> string -> unit
(** Always writes the current {!version}.  Raises [Invalid_argument] on
    a summary of more than one part (see {!save_sharded}). *)

val load : ?term_cap:int -> string -> Summary.t
(** Load any summary file, sniffed by magic ({!detect}) — v1, v2, v3
    (heap rebuild; see {!v3_load}) or a manifest ({!load_sharded}).
    Raises {!Format_error} on bad magic, an unsupported (future)
    version, or a corrupt payload, and like {!Poly.create} if a rebuilt
    polynomial exceeds [term_cap]. *)

(** {2 Sharded manifests}

    A partitioned summary persists as one manifest file (magic, version,
    partitioning-strategy tag, part count, per-part file names) next to
    one flat summary file per part, named [<base>.shard<i>].  Part
    files are referenced relative to the manifest's directory, so the
    whole group moves together. *)

type format = Flat | Sharded | MappedV3

val detect : string -> format
(** Classify a summary file by magic; {!Format_error} when it is none of
    the known formats.  Reads only the 10-byte magic, through a file
    descriptor (no channel buffer). *)

val save_sharded : Summary.t -> string -> unit
(** Write one flat file per part and then the manifest at [path], at
    any part count.  The summary's {!Summary.strategy} tag (e.g.
    ["rows"] or ["attr:origin"]) is stored for provenance. *)

val load_sharded : ?term_cap:int -> string -> Summary.t
(** Load a manifest and all its parts, in manifest order and with the
    stored strategy tag.  Raises {!Format_error} on bad magic,
    unsupported version, truncated fields, a part count that disagrees
    with the name list or the files on disk, per-part corruption, or a
    schema mismatch between parts — never a crash. *)

(** {2 Summary format v3 — page-aligned, mmap-able}

    v3 stores the polynomial's flat SoA kernel tables verbatim as
    page-aligned body sections, preceded by a fixed header and followed
    by a marshaled manifest (small metadata + per-section checksums), so
    a summary can be opened in O(header + manifest) and queried directly
    off a file mapping ({!Mapped}).  The element encoding is the host's
    Bigarray representation (IEEE-754 doubles, untagged native ints,
    little-endian); files from hosts with a different int size or byte
    order are rejected with {!Format_error}. *)

val v3_page : int
(** Section alignment (4096 bytes). *)

type v3_section = {
  sec_name : string;  (** e.g. ["alpha"], ["g0.ts_off"] *)
  sec_float : bool;  (** float64 elements; untagged ints otherwise *)
  sec_off : int;  (** byte offset, page-aligned *)
  sec_len : int;  (** element count (8 bytes each) *)
  sec_crc : int;  (** CRC-32 of the raw section bytes *)
}

type v3_group_meta = {
  v3g_attrs : int array;
  v3g_stats : int array;
  v3g_n_terms : int;
  v3g_q : float;
}

type v3_manifest = {
  v3_schema : Edb_storage.Schema.t;
  v3_n : int;
  v3_p : float;
  v3_marginal_targets : float array array;
  v3_joints : (Edb_storage.Predicate.t * float) list;
  v3_report : Solver.report;
  v3_journal : Journal.t;
  v3_free_attrs : int array;
  v3_group_of_attr : int array;
  v3_groups : v3_group_meta array;
  v3_sections : v3_section list;
}

val save_v3 : Summary.t -> string -> unit
(** Write the summary in format v3.  Refreshes the polynomial's cached
    tables first (semantically the identity), so the stored tables are
    bitwise what any loader rebuilds from the variable vector. *)

val v3_manifest_of : string -> v3_manifest
(** Validated header + manifest read in O(header + manifest) I/O.
    Raises {!Format_error} on bad magic, version/geometry mismatches, a
    header or manifest checksum failure, truncation, or an inconsistent
    section table.  Body sections are {e not} read or verified here. *)

val with_v3_file :
  string -> (Unix.file_descr -> size:int -> v3_manifest -> 'a) -> 'a
(** [with_v3_file path f] opens [path] once, validates its header and
    manifest exactly as {!v3_manifest_of} does, and calls [f] with the
    open descriptor, the file size and the manifest; the descriptor is
    closed when [f] returns or raises.  The low-level entry
    {!v3_manifest_of}, {!v3_load} and {!Mapped.open_file} share. *)

val v3_sections : string -> v3_section list
(** The section table of a v3 file (used by corruption tests and
    [entropydb info]). *)

val v3_load : ?term_cap:int -> string -> Summary.t
(** Heap-load a v3 file: verify {e every} section checksum, then rebuild
    the polynomial from the stored targets and alpha vector exactly like
    a v2 load.  Raises {!Format_error} as {!v3_manifest_of}, plus on any
    body-section checksum mismatch. *)
