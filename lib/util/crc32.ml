(* CRC-32 (IEEE), slicing-by-8 (Kounavis & Berry): eight 256-entry tables
   fold eight input bytes per step, with a bytewise tail.  Table k maps a
   byte to the CRC of that byte followed by k zero bytes, so XOR-ing the
   eight lookups equals eight bytewise steps.  Arithmetic is done on plain
   ints (the polynomial is 32 bits, so no boxing) with a final mask
   keeping digests in [0, 2^32). *)

type bigchar =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

let mask = 0xFFFF_FFFF
let poly = 0xEDB8_8320

(* One flat array: table k occupies [256k, 256k + 256). *)
let tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 = 1 then poly lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let prev = t.((256 * (k - 1)) + n) in
         t.((256 * k) + n) <- t.(prev land 0xff) lxor (prev lsr 8)
       done
     done;
     t)

let[@inline] get t k i = Array.unsafe_get t ((256 * k) + i)

let[@inline] step t crc byte =
  get t 0 ((crc lxor byte) land 0xff) lxor (crc lsr 8)

(* Fold the eight bytes whose little-endian 32-bit words are [lo] and
   [hi] into [crc]. *)
let[@inline] step8 t crc lo hi =
  let a = (crc lxor lo) land mask and b = hi land mask in
  get t 7 (a land 0xff)
  lxor get t 6 ((a lsr 8) land 0xff)
  lxor get t 5 ((a lsr 16) land 0xff)
  lxor get t 4 (a lsr 24)
  lxor get t 3 (b land 0xff)
  lxor get t 2 ((b lsr 8) land 0xff)
  lxor get t 1 ((b lsr 16) land 0xff)
  lxor get t 0 (b lsr 24)

(* Each getter unboxes its load in place: an int32 passed to a helper
   would be boxed, one allocation per word. *)
external swap32 : int32 -> int32 = "%bswap_int32"
external string_get32 : string -> int -> int32 = "%caml_string_get32u"
external bigchar_get32 : bigchar -> int -> int32 = "%caml_bigstring_get32u"

let[@inline] string_le32 s i =
  if Sys.big_endian then Int32.to_int (swap32 (string_get32 s i))
  else Int32.to_int (string_get32 s i)

let[@inline] bigchar_le32 b i =
  if Sys.big_endian then Int32.to_int (swap32 (bigchar_get32 b i))
  else Int32.to_int (bigchar_get32 b i)

let string s =
  let t = Lazy.force tables in
  let n = String.length s in
  let crc = ref mask and i = ref 0 in
  while !i + 8 <= n do
    crc := step8 t !crc (string_le32 s !i) (string_le32 s (!i + 4));
    i := !i + 8
  done;
  for j = !i to n - 1 do
    crc := step t !crc (Char.code (String.unsafe_get s j))
  done;
  !crc lxor mask

let bytes b = string (Bytes.unsafe_to_string b)

let bigchar (buf : bigchar) =
  let t = Lazy.force tables in
  let n = Bigarray.Array1.dim buf in
  let crc = ref mask and i = ref 0 in
  while !i + 8 <= n do
    crc := step8 t !crc (bigchar_le32 buf !i) (bigchar_le32 buf (!i + 4));
    i := !i + 8
  done;
  for j = !i to n - 1 do
    crc := step t !crc (Char.code (Bigarray.Array1.unsafe_get buf j))
  done;
  !crc lxor mask
