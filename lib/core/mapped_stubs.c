/* Residency control for the Bigarray views of a mapped summary file. */

#include <sys/mman.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

/* Give a read-only file mapping's resident pages back to the kernel
   without unmapping it: the mapping stays valid, and a later read faults
   its page in again from the file.  OCaml unmaps a mapping only when the
   GC finalizes its Bigarray, which can be long after the last use. */
value edb_mapped_release(value ba)
{
  struct caml_ba_array *b = Caml_ba_array_val(ba);
  madvise(b->data, caml_ba_byte_size(b), MADV_DONTNEED);
  return Val_unit;
}
