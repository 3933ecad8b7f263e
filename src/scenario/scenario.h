// The multi-tenant scenario engine: runs N specific applications (each with its own
// container, policy program, and access pattern) plus M non-specific Mach tasks against one
// kernel on the shared virtual clock, in deterministic round-robin time slices. Real
// contention flows through the real mechanisms: the global frame manager grants and rejects
// Requests against the burst watermark, normal and forced reclamation claw frames back, Flush
// drains the clean reserve, and the security checker kills runaway policies mid-scenario.
//
// A fault-injection layer perturbs a running scenario at step boundaries (disk latency
// spikes, injected infinite-loop policies, mid-scenario region teardown, reserve starvation),
// and an always-on invariant auditor (invariants.h) re-proves frame conservation after every
// manager decision.
//
// Determinism: all randomness is pre-materialized into per-tenant access traces from seeds
// derived from ScenarioSpec::seed, the schedule is a fixed round-robin, and the kernel's own
// stochastic pieces (disk rotation) derive from the same seed — two runs of the same spec
// produce byte-identical ScenarioResult::Fingerprint() strings.
#ifndef HIPEC_SCENARIO_SCENARIO_H_
#define HIPEC_SCENARIO_SCENARIO_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hipec/frame_manager.h"
#include "hipec/program.h"
#include "sim/clock.h"
#include "workloads/workload_source.h"

namespace hipec::mach {
class Kernel;
class Task;
}  // namespace hipec::mach

namespace hipec::core {
class Container;
class HipecEngine;
}  // namespace hipec::core

namespace hipec::scenario {

// Which policy program a tenant registers with.
enum class PolicyKind {
  kFifoSecondChance,  // the paper's Table 2 program
  kFifo,
  kLru,
  kMru,
  kClock,
  kTwoQueue,
  kGreedy,    // scenario policy: Requests more frames before evicting (tenant_policies.h)
  kStubborn,  // greedy + refuses cooperative reclamation (forces ForcedReclaim)
  kLooping,   // PageFault never returns; only the security checker ends it
};

// One specific (HiPEC-controlled) application. Its reference stream is `workload`: a
// synthetic pattern (the default, Pattern({}), is 2000 hot/cold references over 128 pages) or
// a shared pre-built source such as a loaded trace. Its region is the stream's own, widened
// to `pages` when a spec asks for more.
struct TenantSpec {
  std::string name;
  PolicyKind policy = PolicyKind::kGreedy;
  workloads::Workload workload = workloads::Workload::Pattern({});
  uint64_t pages = 0;          // floor on the region size in pages
  size_t min_frames = 16;      // minFrame admission grant
  int arrival_step = 0;        // scheduling round at which the tenant registers
  int departure_step = -1;     // round at which it is terminated (-1: runs to completion)
  sim::Nanos timeout_ns = 0;   // security-checker TimeOut (0: cost-model default)
  int64_t request_size = 16;   // frames per Request command
};

// One non-specific Mach task (paged by the default daemon; generates global pressure).
struct BackgroundSpec {
  std::string name;
  workloads::Workload workload;  // when set, overrides the uniform default below
  uint64_t pages = 256;
  size_t accesses = 2000;
  double write_fraction = 0.0;
};

enum class InjectionKind {
  kDiskLatencySpike,    // every disk read pays extra_latency_ns for duration_steps rounds
  kPolicyLoop,          // a tenant with LoopingPolicy arrives (checker must kill it)
  kTeardown,            // tenant_index's region is deallocated mid-scenario
  kReserveStarvation,   // a write-heavy flusher tenant arrives to drain the clean reserve
};

struct InjectionSpec {
  InjectionKind kind = InjectionKind::kDiskLatencySpike;
  int at_step = 0;
  // kDiskLatencySpike:
  int duration_steps = 4;
  sim::Nanos extra_latency_ns = 20 * sim::kMillisecond;
  // kTeardown: index into ScenarioSpec::tenants.
  size_t tenant_index = 0;
  // kPolicyLoop / kReserveStarvation: shape of the injected tenant.
  uint64_t pages = 64;
  size_t min_frames = 8;
  size_t accesses = 512;
};

struct ScenarioSpec {
  std::string name;
  // Kernel shape.
  uint64_t total_frames = 2048;
  uint64_t kernel_reserved_frames = 256;
  uint64_t seed = 0x5CE11A0;
  // Per-command fetch/decode cost override (0: cost-model default). Raised in checker-kill
  // scenarios so a runaway policy crosses its virtual-time TimeOut within few commands.
  sim::Nanos command_decode_ns = 0;
  core::FrameManagerConfig manager;
  // Schedule: `steps` rounds; each round gives every live tenant and background task a slice
  // of `slice_accesses` references in fixed arrival order.
  int steps = 64;
  size_t slice_accesses = 64;
  bool audit = true;  // run the invariant auditor after every manager decision
  bool trace = true;  // enable the kernel trace ring (dumped on audit failure)
  // Observability (src/obs/). When non-empty, the finished run is exported to this path as
  // Chrome trace-event JSON (loadable in ui.perfetto.dev / chrome://tracing) with one
  // timeline track per tenant; requires trace = true to have events to export.
  std::string chrome_trace_path;
  // Trace events included in each flight-recorder crash dump (auditor violation or checker
  // kill). 0 disables the recorder entirely.
  size_t flight_recorder_window = 64;
  // Test hook: flight-recorder dumps go here instead of stderr when set.
  std::function<void(const std::string& json)> flight_recorder_sink;
  std::vector<TenantSpec> tenants;
  std::vector<BackgroundSpec> background;
  std::vector<InjectionSpec> injections;
};

// Per-tenant outcome, snapshotted continuously while the container is alive (the container
// is freed at termination, so counters survive kills and teardowns).
struct TenantResult {
  std::string name;
  bool injected = false;          // materialized by the fault-injection layer
  bool admitted = false;          // registration succeeded (else ran non-specific, §4.3.1)
  bool completed = false;         // issued every access in its trace
  bool terminated = false;        // task ended before completing (kill, policy error, departure)
  bool killed_by_checker = false;
  bool torn_down = false;         // region removed by a kTeardown injection
  size_t accesses_done = 0;
  int64_t faults_handled = 0;
  int64_t commands_executed = 0;
  int64_t requests_made = 0;
  int64_t requests_rejected = 0;
  int64_t frames_force_reclaimed = 0;
  int64_t frames_reclaimed_from = 0;
  size_t frames_peak = 0;         // high-water allocated_frames
};

struct BackgroundResult {
  std::string name;
  size_t accesses_done = 0;
  bool completed = false;
};

struct ScenarioResult {
  std::string name;
  sim::Nanos virtual_ns = 0;      // virtual time consumed by the whole scenario
  int64_t audits_run = 0;
  int64_t checker_kills = 0;      // distinct containers killed by the security checker
  size_t burst_watermark_final = 0;
  // Trace events overwritten because the ring wrapped (exported timelines are missing that
  // many events). Deliberately not part of Fingerprint(): ring capacity is an observer
  // setting, not simulation state.
  uint64_t trace_dropped = 0;
  int64_t flight_recorder_dumps = 0;
  // Manager decisions by name ("request", "request-reject", "flush-sync", ...), counted by
  // the same hook that drives the auditor.
  std::map<std::string, int64_t> decisions;
  std::vector<TenantResult> tenants;
  std::vector<BackgroundResult> background;

  int64_t Decision(const std::string& name) const {
    auto it = decisions.find(name);
    return it == decisions.end() ? 0 : it->second;
  }
  // Deterministic serialization of every counter above; byte-identical across same-seed runs.
  std::string Fingerprint() const;
};

// Builds the world, runs the schedule, tears everything down, and returns the outcome.
// Throws sim::CheckFailure if the invariant auditor finds a violation.
ScenarioResult RunScenario(const ScenarioSpec& spec);

// The reference stream a tenant spec names, as a pull source with its own cursor, seeded from
// the scenario seed and the tenant's ordinal. Both drivers build tenant streams through this
// one function.
std::unique_ptr<workloads::WorkloadSource> MaterializeSource(const TenantSpec& tenant,
                                                             uint64_t scenario_seed,
                                                             uint64_t tenant_ordinal);

// The same stream flattened into (page index, is_write) pairs. Exposed for tests that want
// to reason about a tenant's reference string.
std::vector<std::pair<uint64_t, bool>> MaterializeTrace(const TenantSpec& tenant,
                                                        uint64_t scenario_seed,
                                                        uint64_t tenant_ordinal);

// The policy program a PolicyKind names.
core::PolicyProgram MakePolicy(PolicyKind kind);

// --- Shared by RunScenario and RunScheduledScenario (scheduler.h) ---------------------------

// A tenant's live registration: the stream it replays, its task, and its container. The
// container is null when admission was denied (the tenant runs non-specific) and once its
// region has been torn down.
struct LiveTenant {
  TenantSpec spec;
  TenantResult result;
  std::unique_ptr<workloads::WorkloadSource> source;
  mach::Task* task = nullptr;
  core::Container* container = nullptr;
  uint64_t container_id = 0;  // outlives the container, to match checker kills
  uint64_t addr = 0;

  // Creates the task and its region, sized to cover both spec.pages and the (already
  // materialized) source: a specific region holding min_frames if the frame manager admits
  // it, else a non-specific one (§4.3.1: a refused application "can either run as a
  // non-specific application or terminate and retry later" — the tenant keeps running).
  void Admit(mach::Kernel& kernel, core::HipecEngine& engine);
  // Copies the container's live counters into `result`, so they survive the container
  // being freed by a kill, a teardown or the end of the run. Taken under the task's lock: in
  // real-threads mode a reclaimer may hold it (manager -> victim task is a try-lock edge,
  // DESIGN.md §10) while bumping frames_reclaimed_from, and termination frees the container
  // under it, so the re-check inside the lock makes the pointer safe to chase. The lock is a
  // no-op in deterministic mode.
  void Snapshot();
};

// True for the injections that arrive as an extra tenant: a looping policy the checker must
// kill (kPolicyLoop) or a write-heavy flusher (kReserveStarvation).
inline bool InjectsTenant(const InjectionSpec& inj) {
  return inj.kind == InjectionKind::kPolicyLoop || inj.kind == InjectionKind::kReserveStarvation;
}

// The tenant such an injection arrives as; `ordinal` numbers the injected tenants of a run.
TenantSpec InjectedTenantSpec(const InjectionSpec& inj, int ordinal);

}  // namespace hipec::scenario

#endif  // HIPEC_SCENARIO_SCENARIO_H_
