// Whole-fault-path microbenchmark (host time, not virtual time): drives real page faults
// through the full stack — kernel entry, HiPEC engine, policy executor, frame manager, disk
// model — for the Table 2 policy set, and reports faults/sec plus an ns/fault breakdown as
// one JSON object per line (grep for lines starting with '{').
//
// Two dispatch configurations are compared:
//   production   decoded IR, superinstruction fusion, computed-goto dispatch (the default)
//   jit          install-time template JIT (native code per event, jit.h); on hosts where
//                the JIT is unavailable this layer silently measures the IR fallback, and
//                the jit_* metrics are emitted with available=0 so CI skips them
//
// The breakdown attributes the production ns/fault to layers by measuring each layer in
// isolation (policy execution via a bare ExecuteEvent on the free-list path, frame manager
// via a Request/Release cycle, I/O via direct disk-model reads scaled by the storm's
// disk-fill rate) and charging the remainder to kernel entry/page installation.
//
// A calibration score (arith-loop commands/sec on the production interpreter) is emitted so
// CI can compare runs across machines of different speeds: faults/sec divided by the
// calibration score is roughly machine-independent.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "disk/disk_model.h"
#include "hipec/builder.h"
#include "hipec/engine.h"
#include "hipec/executor.h"
#include "hipec/jit.h"
#include "mach/kernel.h"
#include "obs/probe.h"
#include "policies/policies.h"

namespace {

using namespace hipec;  // NOLINT: bench driver
using mach::kPageSize;
namespace ops = core::std_ops;

// One dispatch configuration under test.
struct PathConfig {
  const char* name;
  core::DispatchMode mode;
};

constexpr PathConfig kConfigs[] = {
    {"production", core::DispatchMode::kDecodedIr},
    {"jit", core::DispatchMode::kJit},
};
constexpr size_t kProductionIdx = 0;
constexpr size_t kJitIdx = 1;

struct PolicyCase {
  const char* name;
  std::function<core::PolicyProgram()> make_program;
  std::function<core::HipecOptions()> make_options;
};

core::HipecOptions StandardOptions() {
  core::HipecOptions options;
  options.min_frames = 16;
  options.free_target = 4;
  options.inactive_target = 8;
  return options;
}

std::vector<PolicyCase> Table2Policies() {
  return {
      {"fifo", [] { return policies::FifoPolicy(policies::CommandStyle::kSimple); },
       StandardOptions},
      {"fifo_second_chance", [] { return policies::FifoSecondChancePolicy(); },
       StandardOptions},
      {"lru", [] { return policies::LruPolicy(policies::CommandStyle::kComplex); },
       StandardOptions},
      {"mru", [] { return policies::MruPolicy(policies::CommandStyle::kSimple); },
       StandardOptions},
      {"clock", [] { return policies::ClockPolicy(); }, StandardOptions},
      {"two_queue", [] { return policies::TwoQueuePolicy(); },
       [] {
         core::HipecOptions options = policies::TwoQueueOptions();
         options.min_frames = 16;
         return options;
       }},
  };
}

mach::KernelParams BenchParams() {
  mach::KernelParams params;
  params.total_frames = 512;
  params.kernel_reserved_frames = 64;
  params.pageout.free_target = 16;
  params.pageout.free_min = 4;
  params.hipec_build = true;
  return params;
}

double Seconds(std::chrono::steady_clock::time_point start) {
  std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

struct StormResult {
  double faults_per_sec = 0;
  double ns_per_fault = 0;
  int64_t faults = 0;
  double disk_fills_per_fault = 0;
};

// Cyclic sweep over a 64-page region backed by 16 private frames: every policy replaces
// continuously, so nearly every touch is a whole fault (TLB-hit touches cost ~ns and are
// excluded by dividing elapsed time by the fault count).
StormResult RunFaultStorm(const PolicyCase& policy, const PathConfig& config) {
  constexpr uint64_t kRegionPages = 64;
  constexpr int kWarmupSweeps = 50;
  constexpr int kMeasureSweeps = 1000;

  mach::Kernel kernel(BenchParams());
  core::HipecEngine engine(&kernel);
  mach::Task* task = kernel.CreateTask("bench");
  core::HipecRegion region = engine.VmAllocateHipec(task, kRegionPages * kPageSize,
                                                    policy.make_program(),
                                                    policy.make_options());
  if (!region.ok) {
    std::fprintf(stderr, "bench_faultpath: %s registration failed: %s\n", policy.name,
                 region.error.c_str());
    std::exit(1);
  }
  engine.executor().set_dispatch_mode(config.mode);

  auto sweep = [&](int rounds) {
    for (int round = 0; round < rounds; ++round) {
      for (uint64_t i = 0; i < kRegionPages; ++i) {
        kernel.Touch(task, region.addr + i * kPageSize, (i + static_cast<uint64_t>(round)) % 3 == 0);
      }
    }
  };

  sweep(kWarmupSweeps);

  // Best of three measurement windows over the same steady-state storm: the shared machines
  // CI runs on jitter by tens of percent, and the fastest window is the least-perturbed one.
  constexpr int kWindows = 3;
  StormResult result;
  for (int window = 0; window < kWindows; ++window) {
    int64_t faults_before = engine.counters().Get("engine.faults_handled");
    int64_t fills_before = kernel.counters().Get("kernel.disk_fills");
    auto start = std::chrono::steady_clock::now();
    sweep(kMeasureSweeps);
    double elapsed = Seconds(start);
    if (task->terminated()) {
      std::fprintf(stderr, "bench_faultpath: %s/%s terminated: %s\n", policy.name, config.name,
                   task->termination_reason().c_str());
      std::exit(1);
    }
    int64_t faults = engine.counters().Get("engine.faults_handled") - faults_before;
    if (faults <= 0) {
      std::fprintf(stderr, "bench_faultpath: %s/%s took no faults\n", policy.name, config.name);
      std::exit(1);
    }
    double faults_per_sec = static_cast<double>(faults) / elapsed;
    if (faults_per_sec > result.faults_per_sec) {
      result.faults = faults;
      result.faults_per_sec = faults_per_sec;
      result.ns_per_fault = 1e9 * elapsed / static_cast<double>(faults);
      result.disk_fills_per_fault =
          static_cast<double>(kernel.counters().Get("kernel.disk_fills") - fills_before) /
          static_cast<double>(faults);
    }
  }
  return result;
}

// Isolated policy execution on the free-list fast path: the ns the executor itself
// contributes to a fault, without kernel entry, page installation or I/O.
double MeasurePolicyNs(const PolicyCase& policy, const PathConfig& config) {
  mach::Kernel kernel(BenchParams());
  core::HipecEngine engine(&kernel);
  mach::Task* task = kernel.CreateTask("bench");
  core::HipecRegion region =
      engine.VmAllocateHipec(task, 32 * kPageSize, policy.make_program(),
                             policy.make_options());
  if (!region.ok) {
    return 0;
  }
  engine.executor().set_dispatch_mode(config.mode);
  core::Container* container = region.container;
  core::PolicyExecutor& executor = engine.executor();

  auto run_one = [&]() -> bool {
    core::ExecResult result = executor.ExecuteEvent(container, core::kEventPageFault);
    if (!result.ok() ||
        container->operands().TypeOf(result.return_operand) != core::OperandType::kPage) {
      return false;
    }
    mach::VmPage* page = container->operands().ReadPageOrNull(result.return_operand);
    if (page == nullptr) {
      return false;
    }
    container->free_q().EnqueueTail(page, 0);
    container->operands().WritePage(result.return_operand, nullptr);
    return true;
  };

  for (int i = 0; i < 2'000; ++i) {
    if (!run_one()) {
      return 0;
    }
  }
  // Best of five windows (more than the storm's three): the jit_policy_speedup gate divides
  // two of these numbers, so scheduler noise on either side shows up directly in the gated
  // ratio, and the windows are short enough (~0.5 ms) that extra ones are nearly free.
  constexpr int kEvents = 20'000;
  constexpr int kWindows = 5;
  double best_ns = 0;
  for (int window = 0; window < kWindows; ++window) {
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kEvents; ++i) {
      run_one();
    }
    const double ns = 1e9 * Seconds(start) / kEvents;
    if (best_ns == 0 || ns < best_ns) {
      best_ns = ns;
    }
  }
  return best_ns;
}

// Frame-manager Request/Release cycle cost (global pool bookkeeping, queue moves).
double MeasureFrameManagerNs() {
  mach::Kernel kernel(BenchParams());
  core::HipecEngine engine(&kernel);
  mach::Task* task = kernel.CreateTask("bench");
  core::HipecRegion region =
      engine.VmAllocateHipec(task, 32 * kPageSize,
                             policies::FifoPolicy(policies::CommandStyle::kSimple),
                             StandardOptions());
  if (!region.ok) {
    return 0;
  }
  core::Container* c = region.container;
  core::GlobalFrameManager& manager = engine.manager();

  auto cycle = [&]() {
    if (!manager.RequestFrames(c, 1, &c->free_q())) {
      return;
    }
    mach::VmPage* page = c->free_q().DequeueTail();
    if (page != nullptr) {
      manager.ReleaseFrame(c, page);
    }
  };
  for (int i = 0; i < 2'000; ++i) {
    cycle();
  }
  constexpr int kCycles = 20'000;
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kCycles; ++i) {
    cycle();
  }
  return 1e9 * Seconds(start) / kCycles;
}

// Host cost of one disk-model page read (the virtual service-time computation).
double MeasureIoNs() {
  sim::VirtualClock clock;
  disk::DiskModel disk_model(&clock, disk::DiskParams::Era1994(), /*seed=*/42);
  for (int i = 0; i < 1'000; ++i) {
    disk_model.ReadPage(static_cast<uint64_t>(i) * 37 % 4096);
  }
  constexpr int kReads = 20'000;
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kReads; ++i) {
    disk_model.ReadPage(static_cast<uint64_t>(i) * 37 % 4096);
  }
  return 1e9 * Seconds(start) / kReads;
}

// Machine-speed score for cross-run comparisons: arith-loop commands/sec on the production
// interpreter (same workload as bench_interpreter's JSON summary).
double MeasureCalibrationScore() {
  core::EventBuilder b;
  auto loop = b.NewLabel();
  auto done = b.NewLabel();
  b.LoadImm(ops::kScratch0, 100);
  b.LoadImm(ops::kScratch1, 1);
  b.Bind(loop);
  b.Comp(ops::kScratch0, ops::kScratch1, core::CompOp::kGt);
  b.JumpIfFalse(done);
  b.Arith(ops::kScratch0, ops::kScratch1, core::ArithOp::kSub);
  b.JumpIfFalse(loop);
  b.Bind(done);
  b.Return(0);
  core::PolicyProgram program;
  program.SetEvent(core::kEventPageFault, b.Build());
  core::EventBuilder reclaim;
  reclaim.Return(0);
  program.SetEvent(core::kEventReclaimFrame, reclaim.Build());

  mach::KernelParams params;
  params.hipec_build = true;
  mach::Kernel kernel(params);
  core::GlobalFrameManager manager(&kernel, {});
  core::PolicyExecutor executor(&kernel, &manager);
  mach::Task* task = kernel.CreateTask("bench");
  mach::VmObject* object = kernel.CreateAnonObject(4 * kPageSize);
  core::Container container(1, task, object, std::move(program), 0, sim::kSecond);
  core::SetupStandardOperands(&container, {});

  for (int i = 0; i < 2'000; ++i) {
    executor.ExecuteEvent(&container, core::kEventPageFault);
  }
  constexpr int kEvents = 20'000;
  int64_t commands = 0;
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kEvents; ++i) {
    commands += executor.ExecuteEvent(&container, core::kEventPageFault).commands_executed;
  }
  return static_cast<double>(commands) / Seconds(start);
}

}  // namespace

int main() {
  bench::Title("bench_faultpath: whole-fault microbenchmark (host time)");
  bench::Note("configs: production (fused IR, computed-goto), jit (template JIT)");
  bench::Rule();

  const double io_ns = MeasureIoNs();
  const double frame_manager_ns = MeasureFrameManagerNs();

  bench::JsonLine json;
  json.Str("bench", "faultpath").Str("metric", "calibration_commands_per_sec")
      .Num("value", MeasureCalibrationScore(), 0).Emit();

  double log_jit_speedup_sum = 0;
  int policy_count = 0;
  for (const PolicyCase& policy : Table2Policies()) {
    for (const PathConfig& config : kConfigs) {
      // Calibrate adjacent in time to the storm it normalizes: shared machines drift by tens
      // of percent over the run, and a single up-front score would bake that drift into the
      // normalized numbers CI compares.
      const double calibration = MeasureCalibrationScore();
      StormResult storm = RunFaultStorm(policy, config);
      std::printf("%-20s %-12s %9.0f faults/sec  %8.0f ns/fault  (%lld faults)\n",
                  policy.name, config.name, storm.faults_per_sec, storm.ns_per_fault,
                  static_cast<long long>(storm.faults));
      json.Str("bench", "faultpath")
          .Str("policy", policy.name)
          .Str("config", config.name)
          .Int("faults", storm.faults)
          .Num("faults_per_sec", storm.faults_per_sec, 0)
          .Num("ns_per_fault", storm.ns_per_fault, 1)
          .Num("normalized_score", storm.faults_per_sec / calibration, 6)
          .Emit();

      if (&config == &kConfigs[kProductionIdx]) {
        // ns/fault breakdown for the production path.
        double policy_ns = MeasurePolicyNs(policy, config);
        double io_share_ns = io_ns * storm.disk_fills_per_fault;
        double kernel_entry_ns =
            std::max(0.0, storm.ns_per_fault - policy_ns - frame_manager_ns - io_share_ns);
        json.Str("bench", "faultpath_breakdown")
            .Str("policy", policy.name)
            .Num("ns_per_fault", storm.ns_per_fault, 1)
            .Num("kernel_entry_ns", kernel_entry_ns, 1)
            .Num("policy_ns", policy_ns, 1)
            .Num("frame_manager_ns", frame_manager_ns, 1)
            .Num("io_ns", io_share_ns, 1)
            .Emit();
      }
    }
    ++policy_count;

    // Policy-layer JIT speedup: isolated ExecuteEvent (free-list fast path), compiled code
    // vs the production computed-goto IR loop. This is the number the JIT work is gated on —
    // a whole-fault ratio would dilute it with kernel entry, page installation and I/O,
    // which the JIT does not touch. On non-x86-64 hosts the jit config runs the IR fallback,
    // so the ratio is ~1.0 and meaningless; available=0 tells the regression gate to skip it.
    const double ir_policy_ns = MeasurePolicyNs(policy, kConfigs[kProductionIdx]);
    const double jit_policy_ns = MeasurePolicyNs(policy, kConfigs[kJitIdx]);
    const double jit_speedup =
        jit_policy_ns > 0 ? ir_policy_ns / jit_policy_ns : 0.0;
    if (jit_speedup > 0) {
      log_jit_speedup_sum += std::log(jit_speedup);
    }
    std::printf("%-20s jit policy layer: %.0f -> %.0f ns/event (%.2fx)\n", policy.name,
                ir_policy_ns, jit_policy_ns, jit_speedup);
    json.Str("bench", "faultpath")
        .Str("policy", policy.name)
        .Str("metric", "jit_policy_speedup")
        .Num("value", jit_speedup)
        .Num("ir_policy_ns", ir_policy_ns, 1)
        .Num("jit_policy_ns", jit_policy_ns, 1)
        .Int("available", core::jit::Available() ? 1 : 0)
        .Emit();
  }

  double jit_geomean = std::exp(log_jit_speedup_sum / policy_count);
  bench::Rule();
  std::printf("geomean jit policy-layer speedup (jit vs production): %.2fx\n", jit_geomean);
  json.Str("bench", "faultpath").Str("metric", "jit_speedup")
      .Num("value", jit_geomean)
      .Int("available", core::jit::Available() ? 1 : 0)
      .Emit();

  // Observability-probe overhead on the production path: the storms above ran with probes
  // compiled in but runtime-disabled (the default, gated by the CI regression check against
  // bench/baseline.json); here the same storm runs once in each mode so the cost of turning
  // observability *on* is a first-class metric rather than folklore.
  {
    const PolicyCase probe_policy = Table2Policies().front();
    StormResult probes_off;
    StormResult probes_on;
    {
      obs::ScopedProbes scoped(false);
      probes_off = RunFaultStorm(probe_policy, kConfigs[kProductionIdx]);
    }
    {
      obs::ScopedProbes scoped(true);
      probes_on = RunFaultStorm(probe_policy, kConfigs[kProductionIdx]);
    }
    double overhead_pct =
        probes_off.ns_per_fault > 0
            ? 100.0 * (probes_on.ns_per_fault - probes_off.ns_per_fault) / probes_off.ns_per_fault
            : 0.0;
    std::printf("probe overhead (%s, production): off %.0f ns/fault, on %.0f ns/fault "
                "(%+.2f%%, compiled %s)\n",
                probe_policy.name, probes_off.ns_per_fault, probes_on.ns_per_fault,
                overhead_pct, obs::ProbesCompiledIn() ? "in" : "out");
    json.Str("bench", "faultpath")
        .Str("metric", "probe_overhead_pct")
        .Str("policy", probe_policy.name)
        .Num("value", overhead_pct, 3)
        .Num("ns_per_fault_probes_off", probes_off.ns_per_fault, 1)
        .Num("ns_per_fault_probes_on", probes_on.ns_per_fault, 1)
        .Int("probes_compiled_in", obs::ProbesCompiledIn() ? 1 : 0)
        .Emit();
  }
  return 0;
}
