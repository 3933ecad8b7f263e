#include "alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<uint64_t> g_allocations{0};
std::atomic<uint64_t> g_allocated_bytes{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace hipec::alloc_counter {

uint64_t AllocationCount() { return g_allocations.load(std::memory_order_relaxed); }
uint64_t AllocatedBytes() { return g_allocated_bytes.load(std::memory_order_relaxed); }

}  // namespace hipec::alloc_counter
