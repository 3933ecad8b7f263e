// The M:N tenant scheduler, the one real-threads scenario driver: tenants multiplexed over a
// fixed pool of worker threads against one kernel built in sim::ExecMode::kRealThreads — real
// std::threads, the lock hierarchy armed (DESIGN.md §10), the security checker running as an
// actual thread, and host time instead of the virtual clock. It is the concurrency
// counterpart of scenario.h's deterministic round-robin driver and shares its tenant code
// (scenario::LiveTenant). A 10,000-tenant churn cannot afford 10,000 OS threads, and the
// interesting contention (admission, reclamation, checker kills, daemon balancing) needs only
// as many runnable tenants as there are cores; with workers = max_live_tenants = tenants,
// every tenant gets a thread of its own for the whole run.
//
// Nothing here is deterministic except the per-tenant streams (materialized from the spec
// seed exactly as the deterministic driver does) and the first wave's admission verdicts:
// interleaving, grant/reject outcomes after the first wave, and checker kills depend on the
// host scheduler.
//
// Architecture (DESIGN.md §11):
//   * Each worker owns a run queue of tenant runs behind a rank-kRunQueue lock — terminal
//     by construction: a worker pops/pushes under it and never calls into the kernel while
//     holding it. The first wave, min(workers, max_live_tenants, tenants), is admitted from
//     the calling thread in spec order before any worker starts, one tenant per queue. After
//     that an idle worker first drains its own queue, then admits the next un-started tenant
//     from the shared spec list (bounded by max_live_tenants), then work-steals from a
//     sibling's queue tail via try-lock.
//   * A tenant runs in slices of slice_accesses references; between slices it sits in a run
//     queue and can migrate between workers freely (all per-tenant state is touched only by
//     the worker currently running it — the run-queue lock is the handoff fence).
//   * Each worker attaches a FrameMagazine (mach/frame_pool.h) as its thread-local frame
//     cache, so tenant churn — every departure frees a task's frames, every admission
//     faults them back in — batches its free-pool traffic instead of hammering shard locks.
//   * Tenant traces are materialized lazily at admission and freed at retirement, so memory
//     scales with max_live_tenants, not the total population.
//   * A control thread replays the injection schedule (disk latency spikes, looping-policy
//     arrivals, reserve-starvation flushers, mid-run teardown) and periodically stops the
//     world to run the frame-invariant auditor; any violation triggers a FlightRecorder
//     dump and fails the run after the workers join.
#ifndef HIPEC_SCENARIO_SCHEDULER_H_
#define HIPEC_SCENARIO_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "hipec/frame_manager.h"
#include "scenario/scenario.h"

namespace hipec::scenario {

struct SchedulerSpec {
  std::string name;
  // Kernel shape.
  uint64_t total_frames = 4096;
  uint64_t kernel_reserved_frames = 256;
  uint64_t seed = 0x5C4ED;
  core::FrameManagerConfig manager;
  // 0 = the respective subsystem default (free pool: kDefaultShards; daemon queues:
  // hardware_concurrency clamped).
  size_t free_pool_shards = 0;
  size_t daemon_shards = 0;
  // The worker pool (the N of M:N).
  size_t workers = 8;
  // References a tenant issues per scheduling slice before re-queueing.
  size_t slice_accesses = 64;
  // Admission window: at most this many tenants are registered (task + region + container)
  // at once; the rest wait un-started. Bounds both memory and kernel population.
  size_t max_live_tenants = 64;
  // Per-worker frame-magazine capacity; 0 runs without magazines.
  size_t magazine_capacity = 32;
  // Stop-the-world audits while the workers run; a final audit always runs after joining.
  bool audit = true;
  int audit_interval_ms = 10;
  // Trace events per flight-recorder dump; 0 disables the recorder.
  size_t flight_recorder_window = 64;
  // Test hook: dumps go here instead of stderr when set.
  std::function<void(const std::string& json)> flight_recorder_sink;
  // The tenant population, admitted strictly in order as live slots free up. The
  // deterministic driver's scheduling fields are reinterpreted for wall-clock execution:
  // arrival_step is ignored (admission order is list order); departure_step >= 0 means the
  // tenant departs (is terminated) after that many slices.
  std::vector<TenantSpec> tenants;
  // Fault injections, reinterpreted for wall-clock execution: at_step and duration_steps
  // are milliseconds since scenario start.
  std::vector<InjectionSpec> injections;
};

struct SchedulerResult {
  std::string name;
  size_t workers = 0;
  size_t tenants_total = 0;
  // Outcome tallies over the whole population.
  size_t admitted = 0;   // registration granted a container
  size_t denied = 0;     // ran non-specific after admission rejection
  size_t completed = 0;  // issued every access in the trace
  size_t departed = 0;   // left via departure_step
  size_t terminated = 0; // ended early (checker kill, policy error)
  size_t torn_down = 0;  // region removed by a kTeardown injection
  int64_t checker_kills = 0;
  int64_t audits_run = 0;
  int64_t flight_recorder_dumps = 0;
  // Scheduler mechanics.
  int64_t slices = 0;
  int64_t steals = 0;
  uint64_t total_accesses = 0;
  int64_t total_faults = 0;
  double wall_seconds = 0.0;
  // Tenants retired (completed + departed + terminated + torn down) per wall second — the
  // churn metric bench_parallel reports as scheduler.tenants_per_sec.
  double tenants_per_sec = 0.0;
  double faults_per_sec = 0.0;
  std::vector<TenantResult> tenants;
};

// Builds a real-threads kernel, runs the population over the worker pool to completion, and
// tears down. Throws sim::CheckFailure if any stop-the-world audit finds a violation (after
// dumping the flight recorder and joining the workers).
SchedulerResult RunScheduledScenario(const SchedulerSpec& spec);

}  // namespace hipec::scenario

#endif  // HIPEC_SCENARIO_SCHEDULER_H_
