(** CRC-32 (IEEE 802.3, reflected polynomial [0xEDB88320]) over strings,
    bytes, and bigarray byte views.

    Used by the summary file format to checksum its header, manifest, and
    every body section, so any flipped or truncated byte surfaces as a
    detectable [Format_error] instead of a silently wrong answer.  Digests
    are returned as non-negative ints in [\[0, 2^32)]. *)

type bigchar =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

val string : string -> int
val bytes : Bytes.t -> int

val bigchar : bigchar -> int
(** Digest of a byte view — typically an [Array1.sub] slice of a mapped
    file, so sections are checksummed in place without copying. *)
