// Replacement global allocation functions for the benchmark binary: every operator new
// variant bumps a process-wide counter while counting is switched on (the traced run), so
// allocations per fault are an exact count rather than an estimate. With counting off the
// cost is one relaxed load per allocation.
#include "alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocations{0};

void* Allocate(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  std::size_t alignment = static_cast<std::size_t>(align);
  if (alignment < sizeof(void*)) {
    alignment = sizeof(void*);
  }
  void* p = nullptr;
  return posix_memalign(&p, alignment, size == 0 ? 1 : size) == 0 ? p : nullptr;
}

}  // namespace

void SetAllocCounting(bool on) { g_counting.store(on, std::memory_order_relaxed); }

uint64_t AllocCount() { return g_allocations.load(std::memory_order_relaxed); }

}  // namespace perfbench

void* operator new(std::size_t size) {
  void* p = perfbench::Allocate(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::Allocate(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::Allocate(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  void* p = perfbench::AllocateAligned(size, align);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return perfbench::AllocateAligned(size, align);
}

void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return perfbench::AllocateAligned(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
