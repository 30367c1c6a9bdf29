(** Zero-copy mapped summaries: a format-v3 file opened as an ordinary
    read-only {!Summary.t} over Bigarray views of the [mmap]ed file.

    {!open_file} costs O(header + manifest) — the body sections are
    mapped, not read, no term is enumerated and no statistic set is
    built — so a catalog can keep thousands of summaries "open" for the
    price of their metadata.  The views are the kernel tables
    themselves ({!Poly.of_tables}), so every estimator of {!Summary}
    and {!Cache} answers a mapped summary with the same evaluator,
    bitwise as the heap summary that wrote the file, at any
    {!Poly.set_parallelism}.

    Integrity: body-section checksums are verified lazily, once, before
    the first answer or table read ({!Summary.verify} forces it
    eagerly).  A corrupt section raises {!Serialize.Format_error} naming
    the section — a flipped or truncated byte can never produce a
    silently wrong answer. *)

val open_file : string -> Summary.t
(** Map a v3 summary file.  O(header + manifest) I/O: opens the file
    once, validates the header and manifest ({!Serialize.with_v3_file}),
    maps the file once and carves the section views.  Raises
    {!Serialize.Format_error} on any format or integrity problem it can
    see without reading the body.  The result is {!Summary.read_only}; its
    {!Summary.footprint_bytes} is the file size. *)
