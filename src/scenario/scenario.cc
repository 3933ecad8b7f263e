#include "scenario/scenario.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "hipec/engine.h"
#include "mach/kernel.h"
#include "obs/chrome_trace.h"
#include "obs/flight_recorder.h"
#include "obs/probe.h"
#include "policies/policies.h"
#include "scenario/invariants.h"
#include "scenario/tenant_policies.h"
#include "sim/lock.h"
#include "workloads/workload_source.h"

namespace hipec::scenario {

using mach::kPageSize;

namespace {

// Stable per-tenant stream seed: mixes the scenario seed with the tenant's ordinal so traces
// are independent of each other but fully determined by the spec.
uint64_t TenantSeed(uint64_t scenario_seed, uint64_t ordinal) {
  uint64_t x = scenario_seed * 0x9E3779B97F4A7C15ULL + (ordinal + 1) * 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 31;
  return x;
}

// Probe id: virtual time consumed by each tenant scheduling slice.
const obs::ProbeId kPrbSliceNs = obs::InternProbe("scenario.slice_ns");

}  // namespace

void LiveTenant::Admit(mach::Kernel& kernel, core::HipecEngine& engine) {
  const uint64_t bytes = std::max(spec.pages, source->region_pages()) * kPageSize;
  task = kernel.CreateTask(spec.name);
  core::HipecOptions options;
  options.min_frames = spec.min_frames;
  options.timeout_ns = spec.timeout_ns;
  options.request_size = spec.request_size;
  options.free_target = 4;
  options.inactive_target = 8;
  options.reserved_target = 0;
  if (spec.policy == PolicyKind::kTwoQueue) {
    options.user_queue_count = 2;
  }
  core::HipecRegion region =
      engine.VmAllocateHipec(task, bytes, MakePolicy(spec.policy), options);
  result.admitted = region.ok;
  if (region.ok) {
    addr = region.addr;
    container = region.container;
    container_id = container->id();
  } else {
    addr = kernel.VmAllocate(task, bytes);
  }
}

void LiveTenant::Snapshot() {
  if (container == nullptr || task->terminated()) {
    return;
  }
  sim::ScopedLock lock(task->mutex());
  if (task->terminated()) {
    return;
  }
  result.faults_handled = container->faults_handled;
  result.commands_executed = container->commands_executed;
  result.requests_made = container->requests_made;
  result.requests_rejected = container->requests_rejected;
  result.frames_force_reclaimed = container->frames_force_reclaimed;
  result.frames_reclaimed_from = container->frames_reclaimed_from;
  result.frames_peak = std::max(result.frames_peak, container->allocated_frames);
}

TenantSpec InjectedTenantSpec(const InjectionSpec& inj, int ordinal) {
  TenantSpec spec;
  workloads::SyntheticSpec stream;
  if (inj.kind == InjectionKind::kPolicyLoop) {
    spec.name = "inject-loop-" + std::to_string(ordinal);
    spec.policy = PolicyKind::kLooping;
    stream.kind = workloads::PatternKind::kSequential;
  } else {
    spec.name = "inject-flusher-" + std::to_string(ordinal);
    spec.policy = PolicyKind::kGreedy;
    stream.kind = workloads::PatternKind::kBursty;
    stream.write_fraction = 0.95;
  }
  stream.pages = inj.pages;
  stream.accesses = inj.accesses;
  spec.workload = workloads::Workload::Pattern(stream);
  spec.min_frames = inj.min_frames;
  spec.arrival_step = inj.at_step;
  return spec;
}

core::PolicyProgram MakePolicy(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kFifoSecondChance:
      return policies::FifoSecondChancePolicy();
    case PolicyKind::kFifo:
      return policies::FifoPolicy();
    case PolicyKind::kLru:
      return policies::LruPolicy();
    case PolicyKind::kMru:
      return policies::MruPolicy();
    case PolicyKind::kClock:
      return policies::ClockPolicy();
    case PolicyKind::kTwoQueue:
      return policies::TwoQueuePolicy();
    case PolicyKind::kGreedy:
      return GreedyPolicy();
    case PolicyKind::kStubborn:
      return StubbornPolicy();
    case PolicyKind::kLooping:
      return LoopingPolicy();
  }
  return GreedyPolicy();
}

namespace {

// Runtime state for one tenant (specific application).
struct TenantState : LiveTenant {
  bool arrived = false;
  bool done = false;  // no further slices (completed, terminated, departed, or torn down)
};

struct BackgroundState {
  BackgroundSpec spec;
  BackgroundResult result;
  std::unique_ptr<workloads::WorkloadSource> source;
  mach::Task* task = nullptr;
  uint64_t addr = 0;
  bool done = false;
};

class ScenarioRun {
 public:
  explicit ScenarioRun(const ScenarioSpec& spec) : spec_(spec) {
    mach::KernelParams params;
    params.total_frames = spec.total_frames;
    params.kernel_reserved_frames = spec.kernel_reserved_frames;
    params.hipec_build = true;
    params.seed = spec.seed;
    if (spec.command_decode_ns > 0) {
      params.costs.command_decode_ns = spec.command_decode_ns;
    }
    kernel_ = std::make_unique<mach::Kernel>(params);
    if (spec.trace) {
      kernel_->tracer().Enable();
    }
    engine_ = std::make_unique<core::HipecEngine>(kernel_.get(), spec.manager);
    auditor_ = std::make_unique<InvariantAuditor>(engine_.get());

    if (spec.flight_recorder_window > 0) {
      recorder_ = std::make_unique<obs::FlightRecorder>(&kernel_->tracer(),
                                                        spec.flight_recorder_window);
      recorder_->AddProbeSource("executor", &engine_->executor().probes());
      recorder_->AddProbeSource("manager", &engine_->manager().probes());
      recorder_->AddProbeSource("checker", &engine_->checker().probes());
      recorder_->AddProbeSource("disk", &kernel_->disk().probes());
      recorder_->AddProbeSource("scenario", &probes_);
      recorder_->AddCounterSource("manager", &engine_->manager().counters());
      recorder_->AddCounterSource("checker", &engine_->checker().counters());
      recorder_->AddCounterSource("executor", &engine_->executor().counters());
      if (spec.flight_recorder_sink) {
        recorder_->SetSink(spec.flight_recorder_sink);
      }
      auditor_->SetFlightRecorder(recorder_.get());
    }

    engine_->manager().SetDecisionHook([this](const char* decision) {
      ++result_.decisions[decision];
      if (spec_.audit) {
        auditor_->AuditNow(decision);
      }
    });
    engine_->checker().SetTimeoutObserver([this](uint64_t container_id) {
      // One dump per distinct victim: the checker can re-detect the same runaway policy on
      // consecutive wakeups before the executor reaches its next command fetch.
      if (killed_.insert(container_id).second && recorder_ != nullptr) {
        recorder_->Dump("checker-kill: container " + std::to_string(container_id));
      }
    });
  }

  ScenarioResult Run() {
    result_.name = spec_.name;
    SetUpTenants();
    for (int step = 0; step < spec_.steps; ++step) {
      ApplyInjections(step);
      for (TenantState& t : tenants_) {
        if (!t.arrived && t.spec.arrival_step == step) {
          Spawn(t);
        }
        if (t.arrived && !t.done && t.spec.departure_step == step) {
          Depart(t);
        }
      }
      for (TenantState& t : tenants_) {
        RunTenantSlice(t);
      }
      for (BackgroundState& b : background_) {
        RunBackgroundSlice(b);
      }
    }
    Finish();
    return std::move(result_);
  }

 private:
  void SetUpTenants() {
    uint64_t ordinal = 0;
    auto add = [&](const TenantSpec& spec, bool injected) {
      TenantState t;
      t.spec = spec;
      t.result.name = spec.name;
      t.result.injected = injected;
      t.source = MaterializeSource(spec, spec_.seed, ordinal++);
      tenants_.push_back(std::move(t));
    };
    for (const TenantSpec& spec : spec_.tenants) {
      add(spec, false);
    }
    // The fault-injection layer materializes its loop/flusher tenants up front so the
    // schedule (and therefore the fingerprint) is fixed by the spec alone.
    int injected = 0;
    for (const InjectionSpec& inj : spec_.injections) {
      if (InjectsTenant(inj)) {
        add(InjectedTenantSpec(inj, injected++), true);
      }
    }
    for (const BackgroundSpec& spec : spec_.background) {
      BackgroundState b;
      b.spec = spec;
      b.result.name = spec.name;
      uint64_t seed = TenantSeed(spec_.seed, ordinal++);
      if (spec.workload.set()) {
        b.source = spec.workload.Instantiate(seed);
      } else {
        workloads::SyntheticSpec synth;
        synth.kind = workloads::PatternKind::kUniform;
        synth.pages = spec.pages;
        synth.accesses = spec.accesses;
        synth.write_fraction = spec.write_fraction;
        b.source = workloads::MakePatternSource(synth, seed, spec.name);
      }
      b.task = kernel_->CreateTask(spec.name);
      uint64_t region_pages = std::max(spec.pages, b.source->region_pages());
      b.addr = kernel_->VmAllocate(b.task, region_pages * kPageSize);
      background_.push_back(std::move(b));
    }
  }

  void Spawn(TenantState& t) {
    t.arrived = true;
    t.Admit(*kernel_, *engine_);
  }

  void Depart(TenantState& t) {
    t.Snapshot();
    kernel_->TerminateTask(t.task, "scenario departure");
    t.result.terminated = true;
    t.done = true;
  }

  void RunTenantSlice(TenantState& t) {
    if (!t.arrived || t.done) {
      return;
    }
    const sim::Nanos slice_start_ns = kernel_->clock().now();
    workloads::Access access;
    for (size_t i = 0; i < spec_.slice_accesses && t.source->pos() < t.source->size(); ++i) {
      if (t.task->terminated()) {
        break;
      }
      t.source->Next(&access);
      if (!kernel_->Touch(t.task, t.addr + access.vpage * kPageSize, access.is_write())) {
        // Terminated mid-access (checker kill or policy error); rewind so the counter
        // semantics match the pre-source engine (the failed access was never issued).
        t.source->Seek(t.source->pos() - 1);
        break;
      }
      ++t.result.accesses_done;
      t.Snapshot();
    }
    if (obs::ProbesEnabled()) {
      probes_.Record(kPrbSliceNs, kernel_->clock().now() - slice_start_ns);
    }
    if (t.task->terminated()) {
      t.result.terminated = true;
      t.done = true;
    } else if (t.source->pos() == t.source->size()) {
      t.result.completed = true;
      t.done = true;
    }
  }

  void RunBackgroundSlice(BackgroundState& b) {
    if (b.done) {
      return;
    }
    workloads::Access access;
    for (size_t i = 0; i < spec_.slice_accesses && b.source->pos() < b.source->size(); ++i) {
      b.source->Next(&access);
      if (!kernel_->Touch(b.task, b.addr + access.vpage * kPageSize, access.is_write())) {
        b.source->Seek(b.source->pos() - 1);
        break;
      }
      ++b.result.accesses_done;
    }
    if (b.task->terminated()) {
      b.done = true;
    } else if (b.source->pos() == b.source->size()) {
      b.result.completed = true;
      b.done = true;
    }
  }

  void ApplyInjections(int step) {
    // Clears first, so a spike re-applied at its own clear step wins.
    if (spike_clear_step_ == step) {
      kernel_->disk().InjectReadLatency(0);
      spike_clear_step_ = -1;
    }
    for (const InjectionSpec& inj : spec_.injections) {
      if (inj.at_step != step) {
        continue;
      }
      switch (inj.kind) {
        case InjectionKind::kDiskLatencySpike:
          kernel_->disk().InjectReadLatency(inj.extra_latency_ns);
          spike_clear_step_ = step + inj.duration_steps;
          break;
        case InjectionKind::kTeardown:
          if (inj.tenant_index < tenants_.size()) {
            TenantState& t = tenants_[inj.tenant_index];
            if (t.arrived && !t.done && t.container != nullptr && !t.task->terminated()) {
              t.Snapshot();
              kernel_->VmDeallocate(t.task, t.addr);
              t.container = nullptr;
              t.result.torn_down = true;
              t.done = true;
            }
          }
          break;
        case InjectionKind::kPolicyLoop:
        case InjectionKind::kReserveStarvation:
          break;  // materialized as tenants in SetUpTenants
      }
    }
  }

  void Finish() {
    for (TenantState& t : tenants_) {
      if (t.arrived && t.task != nullptr && !t.task->terminated()) {
        t.Snapshot();
        kernel_->TerminateTask(t.task, "scenario end");
      }
      t.result.killed_by_checker = killed_.contains(t.container_id) && t.container_id != 0;
      result_.tenants.push_back(t.result);
    }
    for (BackgroundState& b : background_) {
      if (!b.task->terminated()) {
        kernel_->TerminateTask(b.task, "scenario end");
      }
      result_.background.push_back(b.result);
    }
    kernel_->disk().DrainWrites();
    if (spec_.audit) {
      auditor_->AuditNow("scenario-end");
    }
    result_.virtual_ns = kernel_->clock().now();
    result_.audits_run = auditor_->audits_run();
    result_.checker_kills = static_cast<int64_t>(killed_.size());
    result_.burst_watermark_final = engine_->manager().partition_burst();
    result_.trace_dropped = kernel_->tracer().dropped();
    result_.flight_recorder_dumps = recorder_ != nullptr ? recorder_->dumps() : 0;
    if (!spec_.chrome_trace_path.empty()) {
      std::vector<obs::ChromeTraceTrack> tracks;
      for (const TenantState& t : tenants_) {
        if (t.task != nullptr) {
          tracks.push_back(obs::ChromeTraceTrack{t.task->id(), t.container_id, t.spec.name});
        }
      }
      for (const BackgroundState& b : background_) {
        tracks.push_back(obs::ChromeTraceTrack{b.task->id(), 0, b.spec.name});
      }
      std::string error;
      if (!obs::WriteChromeTraceFile(spec_.chrome_trace_path, kernel_->tracer().Snapshot(),
                                     tracks, spec_.name, &error)) {
        std::fprintf(stderr, "[scenario] chrome trace export failed: %s\n", error.c_str());
      }
    }
  }

  ScenarioSpec spec_;
  std::unique_ptr<mach::Kernel> kernel_;
  std::unique_ptr<core::HipecEngine> engine_;
  std::unique_ptr<InvariantAuditor> auditor_;
  std::unique_ptr<obs::FlightRecorder> recorder_;
  obs::ProbeSet probes_;
  std::vector<TenantState> tenants_;
  std::vector<BackgroundState> background_;
  std::unordered_set<uint64_t> killed_;
  int spike_clear_step_ = -1;
  ScenarioResult result_;
};

}  // namespace

std::unique_ptr<workloads::WorkloadSource> MaterializeSource(const TenantSpec& tenant,
                                                             uint64_t scenario_seed,
                                                             uint64_t tenant_ordinal) {
  return tenant.workload.Instantiate(TenantSeed(scenario_seed, tenant_ordinal));
}

std::vector<std::pair<uint64_t, bool>> MaterializeTrace(const TenantSpec& tenant,
                                                        uint64_t scenario_seed,
                                                        uint64_t tenant_ordinal) {
  std::unique_ptr<workloads::WorkloadSource> source =
      MaterializeSource(tenant, scenario_seed, tenant_ordinal);
  std::vector<std::pair<uint64_t, bool>> trace;
  trace.reserve(source->size());
  workloads::Access access;
  while (source->Next(&access)) {
    trace.emplace_back(access.vpage, access.is_write());
  }
  return trace;
}

std::string ScenarioResult::Fingerprint() const {
  std::ostringstream os;
  os << name << "|vt=" << virtual_ns << "|kills=" << checker_kills
     << "|burst=" << burst_watermark_final;
  for (const TenantResult& t : tenants) {
    os << "|" << t.name << ":adm=" << t.admitted << ",done=" << t.completed
       << ",term=" << t.terminated << ",kill=" << t.killed_by_checker
       << ",torn=" << t.torn_down << ",acc=" << t.accesses_done << ",flt=" << t.faults_handled
       << ",cmd=" << t.commands_executed << ",req=" << t.requests_made
       << ",rej=" << t.requests_rejected << ",forced=" << t.frames_force_reclaimed
       << ",recl=" << t.frames_reclaimed_from << ",peak=" << t.frames_peak;
  }
  for (const BackgroundResult& b : background) {
    os << "|" << b.name << ":acc=" << b.accesses_done << ",done=" << b.completed;
  }
  for (const auto& [decision, count] : decisions) {
    os << "|" << decision << "=" << count;
  }
  return os.str();
}

ScenarioResult RunScenario(const ScenarioSpec& spec) {
  ScenarioRun run(spec);
  return run.Run();
}

}  // namespace hipec::scenario
