#include "touch_timer.h"

namespace perfbench {

void TouchStats::Clear() {
  fault_ns.Clear();
  hit_ns.Clear();
  clean_ns.Clear();
  dirty_ns.Clear();
  fill_ns.Clear();
  touches = 0;
  faults = 0;
}

void TouchStats::Merge(const TouchStats& other) {
  fault_ns.Merge(other.fault_ns);
  hit_ns.Merge(other.hit_ns);
  clean_ns.Merge(other.clean_ns);
  dirty_ns.Merge(other.dirty_ns);
  fill_ns.Merge(other.fill_ns);
  touches += other.touches;
  faults += other.faults;
}

TouchTimer::TouchTimer(hipec::mach::Kernel* kernel, hipec::core::HipecEngine* engine)
    : kernel_(kernel),
      engine_(engine),
      faults_id_(hipec::sim::InternCounter("engine.faults_handled")),
      dirty_id_(hipec::sim::InternCounter("engine.dirty_evictions")),
      fills_id_(hipec::sim::InternCounter("kernel.disk_fills")) {
  last_faults_ = engine_->counters().Get(faults_id_);
  last_dirty_ = engine_->counters().Get(dirty_id_);
  last_fills_ = kernel_->counters().Get(fills_id_);
}

bool TouchTimer::Touch(hipec::mach::Task* task, uint64_t addr, bool is_write, TouchStats* stats,
                       SpanBuffer* spans, uint32_t span_name, uint32_t parent,
                       uint64_t request) {
  const int64_t t0 = NowNs();
  const bool ok = kernel_->Touch(task, addr, is_write);
  const int64_t t1 = NowNs();
  const int64_t ns = t1 - t0;
  const int64_t faults = engine_->counters().Get(faults_id_);
  const int64_t dirty = engine_->counters().Get(dirty_id_);
  const int64_t fills = kernel_->counters().Get(fills_id_);
  ++stats->touches;
  if (faults != last_faults_) {
    ++stats->faults;
    stats->fault_ns.Record(ns);
    if (dirty != last_dirty_) {
      stats->dirty_ns.Record(ns);
    } else if (fills != last_fills_) {
      stats->fill_ns.Record(ns);
    } else {
      stats->clean_ns.Record(ns);
    }
  } else {
    stats->hit_ns.Record(ns);
  }
  last_faults_ = faults;
  last_dirty_ = dirty;
  last_fills_ = fills;
  if (spans != nullptr) {
    spans->Add(span_name, parent, request, t0, t1);
  }
  return ok;
}

LayerCounters LayerCounters::Read(hipec::mach::Kernel& kernel, hipec::core::HipecEngine& engine) {
  const hipec::sim::CounterSet& k = kernel.counters();
  const hipec::sim::CounterSet& e = engine.counters();
  const hipec::sim::CounterSet& x = engine.executor().counters();
  const hipec::sim::CounterSet& m = engine.manager().counters();
  const hipec::sim::CounterSet& d = kernel.disk().counters();
  LayerCounters c;
  c.faults = e.Get("engine.faults_handled");
  c.dirty_evictions = e.Get("engine.dirty_evictions");
  c.reused_frames = e.Get("engine.reused_frames");
  c.commands = x.Get("executor.commands");
  c.events = x.Get("executor.events");
  c.jit_fallbacks = x.Get("executor.jit_fallbacks");
  c.flushes_async = m.Get("manager.flushes_async");
  c.flushes_sync = m.Get("manager.flushes_sync");
  c.disk_fills = k.Get("kernel.disk_fills");
  c.zero_fills = k.Get("kernel.zero_fills");
  c.pageouts = k.Get("kernel.pageouts");
  c.disk_reads = d.Get("disk.reads");
  c.disk_writes_queued = d.Get("disk.writes_queued");
  return c;
}

// Applies `op` to every field of `out` with the matching fields of `a` and `b`.
template <typename Op>
void ForEachField(LayerCounters* out, const LayerCounters& a, const LayerCounters& b, Op op) {
  int64_t LayerCounters::*const fields[] = {
      &LayerCounters::faults,        &LayerCounters::dirty_evictions,
      &LayerCounters::reused_frames, &LayerCounters::commands,
      &LayerCounters::events,        &LayerCounters::jit_fallbacks,
      &LayerCounters::flushes_async, &LayerCounters::flushes_sync,
      &LayerCounters::disk_fills,    &LayerCounters::zero_fills,
      &LayerCounters::pageouts,      &LayerCounters::disk_reads,
      &LayerCounters::disk_writes_queued,
  };
  for (int64_t LayerCounters::*field : fields) {
    out->*field = op(a.*field, b.*field);
  }
}

LayerCounters LayerCounters::operator-(const LayerCounters& before) const {
  LayerCounters c;
  ForEachField(&c, *this, before, [](int64_t x, int64_t y) { return x - y; });
  return c;
}

LayerCounters& LayerCounters::operator+=(const LayerCounters& other) {
  ForEachField(this, *this, other, [](int64_t x, int64_t y) { return x + y; });
  return *this;
}

void ReportLayerCounters(const LayerCounters& delta, uint64_t accesses, Report* report) {
  const double faults = delta.faults > 0 ? static_cast<double>(delta.faults) : 1.0;
  auto per_fault = [&](int64_t n) { return static_cast<double>(n) / faults; };
  report->Set("mach.disk_fills_per_fault", per_fault(delta.disk_fills));
  report->Set("mach.zero_fills_per_fault", per_fault(delta.zero_fills));
  report->Set("mach.pageouts_per_kaccess",
              accesses == 0 ? 0.0 : 1000.0 * static_cast<double>(delta.pageouts) /
                                        static_cast<double>(accesses));
  report->Set("hipec.engine.dirty_evictions_per_fault", per_fault(delta.dirty_evictions));
  report->Set("hipec.engine.reused_frames_per_fault", per_fault(delta.reused_frames));
  report->Set("hipec.executor.commands_per_fault", per_fault(delta.commands));
  report->Set("hipec.executor.events_per_fault", per_fault(delta.events));
  report->Set("hipec.executor.jit_fallbacks", static_cast<double>(delta.jit_fallbacks));
  report->Set("hipec.frame_manager.flushes_async_per_fault", per_fault(delta.flushes_async));
  report->Set("hipec.frame_manager.flushes_sync_per_fault", per_fault(delta.flushes_sync));
  report->Set("disk.reads_per_fault", per_fault(delta.disk_reads));
  report->Set("disk.writes_queued_per_fault", per_fault(delta.disk_writes_queued));
}

}  // namespace perfbench
