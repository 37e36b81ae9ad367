// Replacement global allocation functions for campaignbench_traced and the
// tests: each allocation bumps the calling thread's counter (trace.hpp
// t_allocs), which spans read on open and close to attribute heap
// allocations to the layer call that made them. Only the two basic forms
// are replaced: libstdc++'s array and nothrow forms call them, and its
// default deletes free() what malloc / aligned_alloc return.

#include <cstdlib>
#include <new>

#include "trace.hpp"

void* operator new(std::size_t size) {
  ++campaignbench::t_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  ++campaignbench::t_allocs;
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = size == 0 ? a : (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}
