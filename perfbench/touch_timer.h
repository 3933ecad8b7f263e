// Times Kernel::Touch calls one by one and sorts each by what the fault path did, read from
// deltas of the public counters through interned CounterIds: a fault is an
// engine.faults_handled step, and a fault is further split into dirty (an
// engine.dirty_evictions step), fill (a kernel.disk_fills step without a dirty eviction)
// and clean (neither). The counters are read outside the timed region.
#ifndef PERFBENCH_TOUCH_TIMER_H_
#define PERFBENCH_TOUCH_TIMER_H_

#include <cstdint>

#include "harness.h"
#include "hipec/engine.h"
#include "mach/kernel.h"
#include "spans.h"

namespace perfbench {

struct TouchStats {
  LogHistogram fault_ns;
  LogHistogram hit_ns;
  LogHistogram clean_ns;
  LogHistogram dirty_ns;
  LogHistogram fill_ns;
  uint64_t touches = 0;
  uint64_t faults = 0;

  void Clear();
  void Merge(const TouchStats& other);
};

class TouchTimer {
 public:
  TouchTimer(hipec::mach::Kernel* kernel, hipec::core::HipecEngine* engine);

  // One timed, classified touch. When `spans` is non-null it is also recorded as a span
  // named `span_name` under `parent` with request id `request`. Returns false if the task
  // is terminated.
  bool Touch(hipec::mach::Task* task, uint64_t addr, bool is_write, TouchStats* stats,
             SpanBuffer* spans, uint32_t span_name, uint32_t parent, uint64_t request);

 private:
  hipec::mach::Kernel* kernel_;
  hipec::core::HipecEngine* engine_;
  hipec::sim::CounterId faults_id_;
  hipec::sim::CounterId dirty_id_;
  hipec::sim::CounterId fills_id_;
  int64_t last_faults_ = 0;
  int64_t last_dirty_ = 0;
  int64_t last_fills_ = 0;
};

// The public counters behind the per-layer ratios, read from the kernel, the engine and the
// engine's executor and frame manager. Subtract two reads to get a phase's deltas.
struct LayerCounters {
  int64_t faults = 0;
  int64_t dirty_evictions = 0;
  int64_t reused_frames = 0;
  int64_t commands = 0;
  int64_t events = 0;
  int64_t jit_fallbacks = 0;
  int64_t flushes_async = 0;
  int64_t flushes_sync = 0;
  int64_t disk_fills = 0;
  int64_t zero_fills = 0;
  int64_t pageouts = 0;
  int64_t disk_reads = 0;
  int64_t disk_writes_queued = 0;

  static LayerCounters Read(hipec::mach::Kernel& kernel, hipec::core::HipecEngine& engine);
  LayerCounters operator-(const LayerCounters& before) const;
  LayerCounters& operator+=(const LayerCounters& other);
};

// Sets the counter-derived mach/hipec/disk per-layer metrics from a phase's deltas.
void ReportLayerCounters(const LayerCounters& delta, uint64_t accesses, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_TOUCH_TIMER_H_
