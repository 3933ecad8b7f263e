// fault_storm: one task runs the paper's Table 2 FIFO-with-second-chance program over a
// region four times its private pool, sweeping the pages in a fixed seed-chosen order, so
// after warm-up every touch faults; every third touch writes. The mach fault path (map
// lookup, object and pmap install, eviction, flush, disk/event queue) does most of the work
// and the policy executor little of it.
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "hipec/engine.h"
#include "mach/kernel.h"
#include "obs/probe.h"
#include "policies/policies.h"
#include "touch_timer.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace hipec;  // NOLINT: benchmark code
using mach::kPageSize;

constexpr uint64_t kRegionPages = 64;
constexpr size_t kPoolFrames = 16;
constexpr int kWarmupSweeps = 50;
constexpr int kWindows = 40;
constexpr uint64_t kSpanStride = 64;  // one mach.touch span per this many touches
constexpr uint64_t kRssCheckpointTouches = 2'000'000;

// The reference storm: seed 1's sweep order, kWarmupSweeps + kReferenceSweeps sweeps on a
// fresh world. Its fault count and final virtual clock are this workload's correctness
// check: the paper policy's virtual time must stay bit-for-bit.
constexpr uint64_t kReferenceSeed = 1;
constexpr int kReferenceSweeps = 2000;
constexpr int64_t kReferenceFaults = 131200;
constexpr int64_t kReferenceVirtualNs = 913504168460;

struct StormWorld {
  std::unique_ptr<mach::Kernel> kernel;
  std::unique_ptr<core::HipecEngine> engine;
  mach::Task* task = nullptr;
  core::HipecRegion region;
};

// Kernel boot, engine, task, and the policy install (validate, decode, JIT when enabled).
std::unique_ptr<StormWorld> BuildStorm(double* register_us) {
  mach::KernelParams params;
  params.total_frames = 512;
  params.kernel_reserved_frames = 64;
  params.pageout.free_target = 16;
  params.pageout.free_min = 4;
  params.hipec_build = true;
  auto world = std::make_unique<StormWorld>();
  world->kernel = std::make_unique<mach::Kernel>(params);
  world->engine = std::make_unique<core::HipecEngine>(world->kernel.get());
  world->task = world->kernel->CreateTask("storm");
  core::HipecOptions options;
  options.min_frames = kPoolFrames;
  options.free_target = 4;
  options.inactive_target = 8;
  const core::PolicyProgram program = policies::FifoSecondChancePolicy();
  const int64_t t0 = NowNs();
  world->region = world->engine->VmAllocateHipec(world->task, kRegionPages * kPageSize, program,
                                                 options);
  *register_us = static_cast<double>(NowNs() - t0) * 1e-3;
  return world;
}

std::vector<uint64_t> SweepOrder(uint64_t seed) {
  std::vector<uint64_t> order(kRegionPages);
  std::iota(order.begin(), order.end(), 0);
  SplitMix64 rng(seed);
  for (size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.Below(i + 1)]);
  }
  return order;
}

// The storm's reference string: the sweep order repeated, every third touch a write.
class Storm {
 public:
  Storm(StormWorld* world, uint64_t seed) : world_(world), order_(SweepOrder(seed)) {}

  // One sweep; `touch(addr, is_write, index)` performs each access.
  template <typename TouchFn>
  bool Sweep(TouchFn&& touch) {
    for (uint64_t page : order_) {
      const uint64_t index = touch_count_;
      if (!touch(Addr(page), NextIsWrite(), index)) {
        return false;
      }
    }
    return true;
  }

  // An untimed sweep (warm-up and the reference check).
  bool Sweep() {
    return Sweep([this](uint64_t addr, bool is_write, uint64_t) {
      return world_->kernel->Touch(world_->task, addr, is_write);
    });
  }

  uint64_t touches() const { return touch_count_; }

 private:
  uint64_t Addr(uint64_t page) const { return world_->region.addr + page * kPageSize; }
  bool NextIsWrite() { return touch_count_++ % 3 == 0; }

  StormWorld* world_;
  std::vector<uint64_t> order_;
  uint64_t touch_count_ = 0;
};

// Per-window values are host-normalized (harness.h, HostSlowdown).
struct PhaseResult {
  std::vector<double> slowdown;
  std::vector<double> ops_per_s;
  std::vector<double> p50_ns;
  std::vector<double> p90_ns;
  std::vector<double> p99_ns;
  TouchStats total;
  int64_t virtual_ns = 0;
  uint64_t allocations = 0;
  LayerCounters counters;
  bool ok = true;
};

// Runs `windows` windows of `window_s` seconds each. With `spans` non-null the phase is the
// traced one: touches are classified, sampled touches become spans, allocations counted.
PhaseResult Measure(StormWorld* world, Storm* storm, int windows, double window_s,
                    SpanBuffer* spans, RssCheckpoint* rss) {
  PhaseResult result;
  TouchTimer timer(world->kernel.get(), world->engine.get());
  TouchStats window;
  const uint32_t window_name = spans != nullptr ? spans->Name("fault_storm.window") : 0;
  const uint32_t touch_name = spans != nullptr ? spans->Name("mach.touch") : 0;
  const LayerCounters before = LayerCounters::Read(*world->kernel, *world->engine);
  const int64_t vclock_before = world->kernel->clock().now();
  const uint64_t allocs_before = AllocCount();
  SetAllocCounting(spans != nullptr);
  for (int w = 0; w < windows && result.ok; ++w) {
    const double slow = HostSlowdown();
    window.Clear();
    const int64_t t0 = NowNs();
    const int64_t deadline = t0 + static_cast<int64_t>(window_s * 1e9);
    int64_t now = t0;
    const uint32_t parent =
        spans != nullptr ? spans->Begin(window_name, kNoSpan, 0, t0) : kNoSpan;
    auto touch = [&](uint64_t addr, bool is_write, uint64_t index) {
      SpanBuffer* sampled = index % kSpanStride == 0 ? spans : nullptr;
      return timer.Touch(world->task, addr, is_write, &window, sampled, touch_name, parent,
                         index);
    };
    while (now < deadline && result.ok) {
      result.ok = storm->Sweep(touch);
      rss->Observe(storm->touches());
      now = NowNs();
    }
    if (spans != nullptr) {
      spans->End(parent, now);
    }
    result.slowdown.push_back(slow);
    result.ops_per_s.push_back(slow * static_cast<double>(window.touches) * 1e9 /
                               static_cast<double>(now - t0));
    result.p50_ns.push_back(window.fault_ns.At(0.50).value / slow);
    result.p90_ns.push_back(window.fault_ns.At(0.90).value / slow);
    result.p99_ns.push_back(window.fault_ns.At(0.99).value / slow);
    result.total.Merge(window);
  }
  SetAllocCounting(false);
  result.allocations = AllocCount() - allocs_before;
  result.virtual_ns = world->kernel->clock().now() - vclock_before;
  result.counters = LayerCounters::Read(*world->kernel, *world->engine) - before;
  return result;
}

// The pinned reference storm; returns false (and says why) if it disagrees.
bool ReferenceStormMatches(std::string* why) {
  double register_us = 0;
  std::unique_ptr<StormWorld> world = BuildStorm(&register_us);
  if (!world->region.ok) {
    *why = "reference storm: registration failed: " + world->region.error;
    return false;
  }
  Storm storm(world.get(), kReferenceSeed);
  for (int i = 0; i < kWarmupSweeps + kReferenceSweeps; ++i) {
    if (!storm.Sweep()) {
      *why = "reference storm: task terminated: " + world->task->termination_reason();
      return false;
    }
  }
  const int64_t faults = world->engine->counters().Get("engine.faults_handled");
  const int64_t virtual_ns = world->kernel->clock().now();
  if (faults != kReferenceFaults || virtual_ns != kReferenceVirtualNs) {
    *why = "reference storm: faults " + std::to_string(faults) + " (pinned " +
           std::to_string(kReferenceFaults) + "), virtual clock " + std::to_string(virtual_ns) +
           " ns (pinned " + std::to_string(kReferenceVirtualNs) + ")";
    return false;
  }
  return true;
}

}  // namespace

void RunFaultStorm(const RunConfig& config, Report* report) {
  const int64_t start = config.start_ns;
  std::unique_ptr<SpanBuffer> spans =
      config.trace ? std::make_unique<SpanBuffer>(kSpanCapacity) : nullptr;
  std::vector<double> register_us;
  SetupTiming setup;
  std::unique_ptr<StormWorld> world = RepeatSetup<std::unique_ptr<StormWorld>>(
      kSetupReps, config,
      [&] {
        double us = 0;
        auto built = BuildStorm(&us);
        register_us.push_back(us);
        return built;
      },
      &setup);
  const double setup_slowdown = HostSlowdown();
  report->Check(world->region.ok, "registration failed: " + world->region.error);
  if (!world->region.ok) {
    return;
  }

  Storm storm(world.get(), config.seed);
  RssCheckpoint rss(kRssCheckpointTouches);
  const int64_t warmup_end = start + static_cast<int64_t>(kWarmupShare * config.seconds * 1e9);
  for (int i = 0; i < kWarmupSweeps || NowNs() < warmup_end; ++i) {
    if (!storm.Sweep()) {
      report->Check(false, "task terminated in warm-up: " + world->task->termination_reason());
      return;
    }
    rss.Observe(storm.touches());
  }

  // Windows fill the budget up to kMeasureEndShare. A traced run measures half its windows
  // untraced and half traced, with probes on.
  const double window_s =
      static_cast<double>(start + static_cast<int64_t>(kMeasureEndShare * config.seconds * 1e9) -
                          NowNs()) *
      1e-9 / kWindows;
  const int untraced_windows = config.trace ? kWindows / 2 : kWindows;
  PhaseResult plain = Measure(world.get(), &storm, untraced_windows, window_s, nullptr, &rss);
  PhaseResult traced;
  if (config.trace) {
    hipec::obs::ScopedProbes probes(true);
    traced = Measure(world.get(), &storm, kWindows - untraced_windows, window_s, spans.get(),
                     &rss);
  }
  const PhaseResult& last = config.trace ? traced : plain;

  const bool ran = plain.ok && last.ok;
  report->Check(ran, "task terminated while measured: " + world->task->termination_reason());
  const uint64_t touches = plain.total.touches + (config.trace ? traced.total.touches : 0);
  const uint64_t faults = plain.total.faults + (config.trace ? traced.total.faults : 0);
  if (ran) {
    report->outcome.Ok(touches);
  } else {
    report->outcome.Fail(1);
  }
  report->Check(faults == touches, "a measured touch did not fault (" + std::to_string(faults) +
                                       " faults over " + std::to_string(touches) + " touches)");
  std::string why;
  report->Check(ReferenceStormMatches(&why), why);

  const double miss_ratio =
      touches == 0 ? 0.0 : static_cast<double>(faults) / static_cast<double>(touches);
  const double virtual_ms_per_kaccess =
      last.total.touches == 0 ? 0.0
                              : static_cast<double>(last.virtual_ns) * 1e-6 /
                                    (static_cast<double>(last.total.touches) * 1e-3);

  ReportSetup(setup, setup_slowdown, report);
  const double ops = QuietQuartile(plain.ops_per_s, true);
  const double p50 = QuietQuartile(plain.p50_ns, false);
  const double p90 = QuietQuartile(plain.p90_ns, false);
  report->Set("ops_per_s", ops);
  report->Set("op_ns_p50", p50);
  report->Set("op_ns_p90", p90);
  report->Set("miss_ratio", miss_ratio);
  report->Set("peak_rss_mb", rss.Mb());
  report->Note("accesses_per_s = " + FormatDouble(ops) + " 1/s");
  report->Note("fault_ns_p50 = " + FormatDouble(p50) + " ns");
  report->Note("fault_ns_p90 = " + FormatDouble(p90) + " ns");
  report->Note("fault_ns_p99 = " + FormatDouble(QuietQuartile(plain.p99_ns, false)) + " ns (" +
               std::to_string(plain.total.fault_ns.count()) + " faults timed)");
  report->Note("hit_ratio = " + FormatDouble(1.0 - miss_ratio));
  report->Note("host slowdown (median over windows; times above are divided by each "
               "window's) = " + FormatDouble(Median(plain.slowdown)));
  report->Note("virtual_ms_per_kaccess = " + FormatDouble(virtual_ms_per_kaccess) + " ms");

  if (!config.trace) {
    return;
  }
  const TouchStats& t = traced.total;
  const double traced_faults = t.faults == 0 ? 1.0 : static_cast<double>(t.faults);
  report->Set("mach.touch_hit_ns_p50", t.hit_ns.At(0.50).value);
  report->Set("mach.fault_clean_ns_p50", t.clean_ns.At(0.50).value);
  report->Set("mach.fault_dirty_ns_p50", t.dirty_ns.At(0.50).value);
  report->Set("mach.fault_dirty_ns_p99", t.dirty_ns.At(0.99).value);
  report->Set("mach.fault_fill_ns_p50", t.fill_ns.At(0.50).value);
  report->Set("mach.allocs_per_fault", static_cast<double>(traced.allocations) / traced_faults);
  report->Set("mach.virtual_ms_per_kaccess", virtual_ms_per_kaccess);
  report->Set("hipec.engine.register_us", Median(register_us) / setup_slowdown);
  ReportLayerCounters(traced.counters, t.touches, report);
  report->Set("tracing.overhead_pct",
              100.0 * (QuietQuartile(traced.p50_ns, false) / p50 - 1.0));
  if (!config.trace_out.empty()) {
    report->Check(spans->WriteJson(config.trace_out), "cannot write " + config.trace_out);
  }
}

}  // namespace perfbench
