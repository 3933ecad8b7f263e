// Interned counters for experiments and tests.
//
// Concurrency: everything here is single-threaded by default and pays no synchronization —
// the deterministic execution mode stays exactly as fast and as reproducible as before. A
// component running under ExecMode::kRealThreads calls EnableConcurrent() on its sets at
// construction time (before worker threads exist); from then on Add() is a relaxed atomic
// into a per-thread slab (no cross-core cache-line ping-pong on hot counters) and readers
// sum the slabs. The name table itself is always thread-safe: interning is rare and cold.
#ifndef HIPEC_SIM_STATS_H_
#define HIPEC_SIM_STATS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "sim/clock.h"
#include "sim/name_table.h"

namespace hipec::sim {

// A dense counter index. Names are interned into small integers exactly once (normally by a
// namespace-scope initializer in the subsystem's .cc file), and every CounterSet stores its
// values in a plain array indexed by id — the fault path never touches a string or a tree.
using CounterId = uint32_t;

// The process-wide counter name table, shared by every CounterSet. Leaked, so it stays valid
// in static destructors.
NameTable& CounterNames();

// Call-site shorthand for static-initializer interning:
//   const sim::CounterId kFaults = sim::InternCounter("kernel.page_faults");
inline CounterId InternCounter(const char* name) {
  return CounterNames().Intern(name);
}

// A named bag of monotonically increasing counters. Every subsystem exposes one so tests can
// assert on event counts (faults taken, commands decoded, pages flushed, ...).
//
// The hot path is Add(CounterId): one bounds check (taken only when the registry grew since
// this set last resized, or never for sets touched after static init) plus an indexed add.
// The string-keyed API is a thin wrapper kept for tests, ad-hoc probes and ToString().
//
// Concurrent mode (EnableConcurrent, flipped before worker threads exist): values live in
// kSlabs thread-striped copies of the counter array, each slab cacheline-padded from its
// neighbours; Add() is one relaxed fetch_add into the caller's slab and readers sum across
// slabs. Counters interned after the arrays were sized fall back to a mutex-protected
// overflow map — correctness for the rare case, zero cost for the common one.
class CounterSet {
 public:
  void Add(CounterId id, int64_t delta = 1) {
    if (id >= capacity_) [[unlikely]] {
      AddSlow(id, delta);
      return;
    }
    std::atomic<int64_t>& slot = values_[slab_base() + id];
    if (!concurrent_) {
      // Single-threaded: plain load/add/store, same codegen as the pre-atomic int64 add.
      slot.store(slot.load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
    } else {
      slot.fetch_add(delta, std::memory_order_relaxed);
    }
  }

  // Switches this set to thread-striped storage. Must be called before any thread other than
  // the caller touches the set (kernel construction time in real-threads mode).
  void EnableConcurrent();
  bool concurrent() const { return concurrent_; }

  // Sums across slabs (exact once writers quiesce; monotonic-approximate while they run).
  int64_t Get(CounterId id) const;

  // String-keyed wrappers over the interned fast path.
  void Add(const std::string& name, int64_t delta = 1) {
    Add(CounterNames().Intern(name), delta);
  }
  int64_t Get(const std::string& name) const {
    CounterId id = CounterNames().Find(name);
    return id == NameTable::kInvalid ? 0 : Get(id);
  }

  // Materializes the non-zero counters, keyed by name (sorted). Zero-valued counters are
  // indistinguishable from never-touched ones in the dense representation, so they do not
  // appear — Get() still reports 0 for both.
  std::map<std::string, int64_t> all() const;
  void Clear();
  // Renders "name=value" lines, sorted by name (non-zero counters only).
  std::string ToString() const;

 private:
  static constexpr size_t kSlabs = 8;

  // Round the per-slab stride up to a full 64-byte cache line of int64s so hot counters in
  // different slabs never share a line.
  static size_t PadStride(size_t n) { return (n + 7) & ~size_t{7}; }
  // Inline because Add() runs several times per fault; the thread-striping arithmetic only
  // matters once EnableConcurrent has switched the set over.
  size_t slab_base() const {
    if (!concurrent_) [[likely]] {
      return 0;
    }
    return ConcurrentSlabBase();
  }
  size_t ConcurrentSlabBase() const;
  void AddSlow(CounterId id, int64_t delta);
  void Grow(CounterId id);

  std::unique_ptr<std::atomic<int64_t>[]> values_;
  size_t capacity_ = 0;  // ids [0, capacity_) hit the dense arrays
  size_t stride_ = 0;    // padded distance between slabs
  size_t slabs_ = 1;
  bool concurrent_ = false;
  // Ids interned after EnableConcurrent sized the slabs (growth would race with writers).
  mutable std::mutex overflow_mu_;
  std::map<CounterId, int64_t> overflow_;
};

// Formats virtual nanoseconds as a human-readable duration ("4016.5 ms", "19.0 us").
std::string FormatNanos(Nanos ns);

}  // namespace hipec::sim

#endif  // HIPEC_SIM_STATS_H_
