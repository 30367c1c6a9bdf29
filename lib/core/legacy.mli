(** Readers of the summary formats {!Serialize} replaced: v1 and v2
    Marshal files, the [ENTROPYDB\x02] manifest of per-part files, and
    the page-aligned version-3 file.  [entropydb upgrade] is their only
    user ([Edb_ingest.Ingest.upgrade]). *)

val load : string -> Summary.t
(** Decode a summary file of any format this library has written.  A
    replaced format becomes an in-memory summary rebuilt from its stored
    targets and variable vector, exactly as its own loader rebuilt it, so
    it answers bitwise as the original file did; a current-format file
    is {!Serialize.load}ed.  Raises {!Serialize.Format_error} on
    anything it can see is malformed.

    A v1/v2 payload carries no checksum and Marshal trusts its input, so
    a corrupt legacy file can crash this function: run it offline, never
    in a server. *)
