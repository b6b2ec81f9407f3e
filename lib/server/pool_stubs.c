/* glibc gives every thread that calls malloc an arena of its own, up to
   eight per core, and an arena keeps the memory freed into it. OCaml
   allocates every block over 1 KiB with malloc, so once the pool's
   domains run in parallel each of their threads grows its own arena.
   [mrpa_cap_malloc_arenas n] caps the process at [n] arenas. A no-op
   where the C library is not glibc. */

#include <caml/mlvalues.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

value mrpa_cap_malloc_arenas(value n)
{
#ifdef __GLIBC__
  mallopt(M_ARENA_MAX, Int_val(n));
#else
  (void)n;
#endif
  return Val_unit;
}
