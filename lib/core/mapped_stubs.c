/* One mapping per summary file, and residency control for it.

   A summary file is read through three Bigarray views — bytes for the
   checksums, float64 and native ints for the kernel tables of every
   part.  Mapping it once and sharing one proxy among the views keeps one
   VMA per open file, whatever its part count, and lets one madvise
   release every view. */

#define CAML_NAME_SPACE
#include <stdlib.h>
#include <sys/mman.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/bigarray.h>
#include <caml/unixsupport.h>

/* The unix library allocates its mapped-file Bigarrays with this
   function, whose custom finalizer unmaps the region (through the proxy,
   once its reference count drops to zero).  The library exports the
   symbol but its installed headers do not declare it. */
extern value caml_unix_mapped_alloc(int flags, int num_dims, void *data,
                                    intnat *dim);

/* Wrap [data] as a one-dimensional mapped view of [dim] elements and
   attach it to [proxy], counting it as one more reference. */
static value view(int kind, void *data, intnat dim,
                  struct caml_ba_proxy *proxy)
{
  value v = caml_unix_mapped_alloc(kind | CAML_BA_C_LAYOUT, 1, data, &dim);
  Caml_ba_array_val(v)->proxy = proxy;
  atomic_fetch_add(&proxy->refcount, 1);
  return v;
}

/* Map the first [size] bytes of [fd] once, with the flags Unix.map_file
   uses for a non-shared map (MAP_PRIVATE, PROT_READ|PROT_WRITE: nothing
   reaches the file), and return (char, float64, int) views of it.  The
   region is unmapped when the last view, sub-views included, is
   finalized. */
value edb_mapped_map(value vfd, value vsize)
{
  CAMLparam2(vfd, vsize);
  CAMLlocal4(res, c, f, i);
  intnat size = Long_val(vsize);
  struct caml_ba_proxy *proxy;
  void *addr;

  addr = mmap(NULL, size, PROT_READ | PROT_WRITE, MAP_PRIVATE, Int_val(vfd),
              0);
  if (addr == MAP_FAILED) caml_uerror("mmap", Nothing);
  proxy = malloc(sizeof *proxy);
  if (proxy == NULL) {
    munmap(addr, size);
    caml_raise_out_of_memory();
  }
  atomic_store(&proxy->refcount, 0);
  proxy->data = addr;
  proxy->size = size;
  c = view(CAML_BA_UINT8, addr, size, proxy);
  f = view(CAML_BA_FLOAT64, addr, size / 8, proxy);
  i = view(CAML_BA_CAML_INT, addr, size / 8, proxy);
  res = caml_alloc_tuple(3);
  Store_field(res, 0, c);
  Store_field(res, 1, f);
  Store_field(res, 2, i);
  CAMLreturn(res);
}

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
