(** Summary persistence: one file per summary, flat or partitioned.

    A file holds, per part, the statistic set (schema, n, every target),
    the solver report and ingest journal, and the tables the evaluator
    reads, stored verbatim as packed sections after a 128-byte header and
    followed by a checksummed manifest.  {!load} maps the file once and
    answers from those tables directly, so opening costs O(header +
    manifest) whatever the body size or part count.

    The element encoding is the host's Bigarray representation (IEEE-754
    doubles, untagged native ints, little-endian); files from hosts with
    a different int size or byte order are rejected with
    {!Format_error}. *)

exception Format_error of string

val version : int
(** The file format version (4).  Version 3 (page-aligned, one part per
    file), the v1/v2 Marshal files and the [ENTROPYDB\x02] manifest of
    per-part files are the formats it replaced; {!Legacy} reads them for
    [entropydb upgrade]. *)

val save : Summary.t -> string -> unit
(** Write any summary, of any part count.  A built polynomial's cached
    tables are refreshed first (semantically the identity), so the stored
    tables are bitwise what a rebuild from the variable vector gives; a
    read-only summary ({!load}) is written with its tables as they are. *)

val save_v3 : Summary.t -> string -> unit
(** Alias of {!save}, kept for the serving benchmark's workload writer. *)

val load : string -> Summary.t
(** Map a summary file: validate the header and manifest, map the file
    once, and carve every part's tables out of the mapping.  The result
    is {!Summary.read_only}, its {!Summary.footprint_bytes} is the file
    size, and its {!Summary.release_pages} is one [madvise] of the
    mapping.

    Integrity: body sections are not read here.  Each part checksums its
    sections, and range-checks its index tables, once, before its first
    answer or table read ({!Summary.verify} forces it eagerly); a
    failure raises {!Format_error} naming the section.

    Raises {!Format_error} on bad magic, an unsupported version, a
    header or manifest checksum failure, truncation, or an inconsistent
    manifest.  A file in a replaced format is refused with a message
    naming the format and [entropydb upgrade], decided from its header
    bytes: nothing of it is unmarshaled.  I/O failures raise [Sys_error]
    naming [path]. *)

(** {2 The manifest}

    Exposed for [entropydb info] and for tests that craft files. *)

type section = {
  sec_name : string;  (** e.g. ["alpha"], ["g0.fa_off"] *)
  sec_float : bool;  (** float64 elements; untagged ints otherwise *)
  sec_off : int;  (** byte offset, 64-byte aligned *)
  sec_len : int;  (** element count (8 bytes each) *)
  sec_crc : int;  (** CRC-32 of the raw section bytes *)
}

type group_meta = {
  gm_attrs : int array;  (** the group's attributes, ascending *)
  gm_terms : int;
}

type part_meta = {
  pm_n : int;
  pm_p : float;
  pm_marginal_targets : float array array;
  pm_joints : (Edb_storage.Predicate.t * float) list;
  pm_report : Solver.report;
  pm_journal : Journal.t;
  pm_free_attrs : int array;
  pm_group_of_attr : int array;
  pm_groups : group_meta array;
  pm_sections : section list;
}

type manifest = {
  m_schema : Edb_storage.Schema.t;
  m_strategy : string;
  m_parts : part_meta array;
}

val manifest : string -> manifest
(** The validated manifest of a file, read in O(header + manifest) I/O;
    raises like {!load}.  Body sections are not read. *)
