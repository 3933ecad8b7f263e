// The M:N tenant scheduler (src/scenario/scheduler.h), the one real-threads scenario driver:
// churn populations multiplexed over a fixed worker pool against one real-threads kernel,
// one-thread-per-tenant contention (workers = tenants) under stop-the-world auditing, the
// wall-clock injection schedule, spec-ordered admission of the first wave, and the
// reclaim-debt fix for the victim-skip starvation in HipecEngine::RunReclaim.
//
// These runs are nondeterministic by design (host scheduling decides interleavings and
// steal counts); the assertions are conservation-style — every tenant retires exactly once,
// audits stay green, injected tenants are accounted — not golden outputs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "hipec/engine.h"
#include "mach/kernel.h"
#include "policies/policies.h"
#include "scenario/scheduler.h"
#include "sim/lock.h"
#include "sim/stats.h"

namespace hipec::scenario {
namespace {

using mach::kPageSize;
using workloads::PatternKind;
using workloads::SyntheticSpec;
using workloads::Workload;

// Why a tenant stopped short of its trace, for the shaped-contention tests' messages.
std::string EndedBecause(const TenantResult& t) {
  return " (killed_by_checker=" + std::to_string(t.killed_by_checker) + ", reason \"" +
         t.termination_reason + "\", " + std::to_string(t.ended_early_at_ns / 1'000'000) +
         " ms into the run)";
}

// A small mixed population: every policy/pattern family, some writers, some departures.
// `accesses` overrides the stream length.
TenantSpec ChurnTenant(int i, size_t accesses = 160) {
  TenantSpec t;
  t.name = "churn." + std::to_string(i);
  SyntheticSpec stream;
  switch (i % 5) {
    case 0:
      t.policy = PolicyKind::kFifoSecondChance;
      stream.kind = PatternKind::kHotCold;
      break;
    case 1:
      t.policy = PolicyKind::kLru;
      stream.kind = PatternKind::kZipf;
      break;
    case 2:
      t.policy = PolicyKind::kGreedy;
      stream.kind = PatternKind::kBursty;
      break;
    case 3:
      t.policy = PolicyKind::kFifo;
      stream.kind = PatternKind::kSequential;
      break;
    default:
      t.policy = PolicyKind::kClock;
      stream.kind = PatternKind::kUniform;
      break;
  }
  stream.pages = 48 + (i % 3) * 16;
  stream.accesses = accesses;
  stream.write_fraction = (i % 4 == 0) ? 0.3 : 0.0;
  t.workload = Workload::Pattern(stream);
  t.min_frames = 8;
  if (i % 7 == 3) {
    t.departure_step = 1;  // departs after one scheduling slice
  }
  return t;
}

// One worker and one live slot per tenant: every tenant runs on a thread of its own for its
// whole stream, and all of them are admitted, in spec order, before any worker starts.
SchedulerSpec ThreadPerTenant(std::string name, std::vector<TenantSpec> tenants) {
  SchedulerSpec spec;
  spec.name = std::move(name);
  spec.workers = tenants.size();
  spec.max_live_tenants = tenants.size();
  spec.tenants = std::move(tenants);
  return spec;
}

TEST(SchedulerTest, ChurnPopulationRetiresEveryTenantWithAuditsGreen) {
  SchedulerSpec spec;
  spec.name = "sched_churn_small";
  spec.total_frames = 2048;
  spec.kernel_reserved_frames = 256;
  spec.workers = 4;
  spec.slice_accesses = 64;
  spec.max_live_tenants = 24;
  spec.audit_interval_ms = 5;
  for (int i = 0; i < 300; ++i) {
    spec.tenants.push_back(ChurnTenant(i));
  }

  SchedulerResult result = RunScheduledScenario(spec);  // throws on audit violation

  EXPECT_EQ(result.tenants_total, 300u);
  // Every tenant was started (admitted or fell back to non-specific) and retired exactly
  // once, through exactly one of the four exits.
  EXPECT_EQ(result.admitted + result.denied, 300u);
  EXPECT_EQ(result.completed + result.departed + result.terminated + result.torn_down, 300u);
  EXPECT_GT(result.departed, 0u);  // the i%7==3 cohort left early
  EXPECT_GT(result.slices, 0);
  EXPECT_GT(result.total_accesses, 0u);
  EXPECT_GT(result.total_faults, 0);
  EXPECT_GT(result.audits_run, 0);
  EXPECT_EQ(result.flight_recorder_dumps, 0);
  EXPECT_EQ(result.tenants.size(), 300u);
  EXPECT_GT(result.tenants_per_sec, 0.0);
}

TEST(SchedulerTest, MagazinesOffAndSingleWorkerStillRetireEveryone) {
  // Degenerate pool shapes: one worker (pure serial admission) and no per-worker frame
  // magazines — both must still drain the population.
  SchedulerSpec spec;
  spec.name = "sched_one_worker";
  spec.total_frames = 1024;
  spec.kernel_reserved_frames = 128;
  spec.workers = 1;
  spec.magazine_capacity = 0;
  spec.max_live_tenants = 8;
  for (int i = 0; i < 40; ++i) {
    spec.tenants.push_back(ChurnTenant(i));
  }
  SchedulerResult result = RunScheduledScenario(spec);
  EXPECT_EQ(result.admitted + result.denied, 40u);
  EXPECT_EQ(result.completed + result.departed + result.terminated + result.torn_down, 40u);
  EXPECT_EQ(result.steals, 0);  // nobody to steal from
}

TEST(SchedulerTest, InjectionsFireUnderTheWorkerPool) {
  SchedulerSpec spec;
  spec.name = "sched_injections";
  spec.total_frames = 2048;
  spec.kernel_reserved_frames = 256;
  spec.workers = 4;
  spec.slice_accesses = 32;
  spec.max_live_tenants = 16;
  for (int i = 0; i < 40; ++i) {
    // Tenant 0 runs (nominally) forever so the mid-run teardown finds it live; the teardown
    // is also what ends it.
    TenantSpec t = ChurnTenant(i, i == 0 ? 2'000'000 : 160);
    t.departure_step = -1;
    spec.tenants.push_back(t);
  }

  InjectionSpec spike;
  spike.kind = InjectionKind::kDiskLatencySpike;
  spike.at_step = 5;  // ms since start
  spike.duration_steps = 20;
  spike.extra_latency_ns = 2 * sim::kMillisecond;
  InjectionSpec loop;
  loop.kind = InjectionKind::kPolicyLoop;
  loop.at_step = 10;
  InjectionSpec flusher;
  flusher.kind = InjectionKind::kReserveStarvation;
  flusher.at_step = 15;
  flusher.accesses = 256;
  InjectionSpec teardown;
  teardown.kind = InjectionKind::kTeardown;
  teardown.at_step = 30;
  teardown.tenant_index = 0;
  spec.injections = {spike, loop, flusher, teardown};

  SchedulerResult result = RunScheduledScenario(spec);

  EXPECT_EQ(result.tenants_total, 42u);  // 40 listed + looping + flusher arrivals
  EXPECT_EQ(result.completed + result.departed + result.terminated + result.torn_down,
            result.admitted + result.denied);
  // The security checker killed the looping policy (its 50 ms TimeOut fuse).
  EXPECT_GE(result.checker_kills, 1);
  // The teardown removed tenant 0's region mid-run.
  EXPECT_EQ(result.torn_down, 1u);
  EXPECT_EQ(result.flight_recorder_dumps, 0);
}

TEST(SchedulerTest, ThunderingHerdShapedContentionHoldsInvariants) {
  // 8 greedy tenants hammering concurrently with Request sizes that overshoot the burst
  // watermark: grants, rejections, and reclamation all race across threads while the
  // stop-the-world auditor re-proves conservation/FAFR/solvency mid-flight.
  std::vector<TenantSpec> herd;
  for (int i = 0; i < 8; ++i) {
    TenantSpec t;
    t.name = "herd-" + std::to_string(i);
    t.policy = PolicyKind::kGreedy;
    t.workload = Workload::Pattern(
        {.kind = PatternKind::kUniform, .pages = 192, .accesses = 2000, .write_fraction = 0.15});
    t.min_frames = 80;
    t.request_size = 32;
    herd.push_back(t);
  }
  SchedulerSpec spec = ThreadPerTenant("threaded-herd", std::move(herd));
  spec.total_frames = 2048;
  spec.kernel_reserved_frames = 256;
  spec.manager.partition_burst_fraction = 0.49;
  spec.audit_interval_ms = 2;

  // RunScheduledScenario throws sim::CheckFailure if any audit finds a violation.
  SchedulerResult r = RunScheduledScenario(spec);
  EXPECT_EQ(r.workers, 8u);
  EXPECT_GE(r.audits_run, 1);  // the final audit always runs
  EXPECT_GT(r.total_faults, 0);
  for (const TenantResult& t : r.tenants) {
    EXPECT_TRUE(t.admitted) << t.name;
    EXPECT_TRUE(t.completed) << t.name << " terminated early" << EndedBecause(t);
    EXPECT_EQ(t.accesses_done, 2000u) << t.name << EndedBecause(t);
  }
  EXPECT_EQ(r.total_accesses, 8u * 2000u);
}

TEST(SchedulerTest, HogVsManyShapedContentionHoldsInvariants) {
  // One stubborn hog (refuses cooperative reclamation, so only ForcedReclaim can take its
  // frames) against 6 small greedy tenants, all racing from the start. Outcomes — who gets
  // forced-reclaimed from, who gets rejected — depend on the scheduler; the invariants may
  // not.
  std::vector<TenantSpec> tenants;
  TenantSpec hog;
  hog.name = "hog";
  hog.policy = PolicyKind::kStubborn;
  hog.workload = Workload::Pattern(
      {.kind = PatternKind::kUniform, .pages = 700, .accesses = 4000, .write_fraction = 0.1});
  hog.min_frames = 64;
  hog.request_size = 48;
  tenants.push_back(hog);
  for (int i = 0; i < 6; ++i) {
    TenantSpec t;
    t.name = "small-" + std::to_string(i);
    t.policy = PolicyKind::kGreedy;
    t.workload = Workload::Pattern(
        {.kind = PatternKind::kHotCold, .pages = 48, .accesses = 1500, .write_fraction = 0.1});
    t.min_frames = 48;
    tenants.push_back(t);
  }
  SchedulerSpec spec = ThreadPerTenant("threaded-hog", std::move(tenants));
  spec.total_frames = 2048;
  spec.kernel_reserved_frames = 256;
  spec.manager.partition_burst_fraction = 0.45;
  spec.audit_interval_ms = 2;

  SchedulerResult r = RunScheduledScenario(spec);
  EXPECT_EQ(r.workers, 7u);
  EXPECT_GE(r.audits_run, 1);
  EXPECT_GT(r.total_faults, 0);
  for (const TenantResult& t : r.tenants) {
    EXPECT_TRUE(t.admitted) << t.name;
    // Under real contention a tenant either finishes its trace or is legitimately
    // terminated; silently stalling (neither flag) would hang the join, so reaching here
    // with both false means the driver mis-reported.
    EXPECT_TRUE(t.completed || t.terminated) << t.name;
    if (!t.completed) {
      std::printf("%s ended early after %zu accesses:%s\n", t.name.c_str(), t.accesses_done,
                  EndedBecause(t).c_str());
    }
  }
}

TEST(SchedulerTest, FinalAuditRunsEvenWithPeriodicAuditingOff) {
  TenantSpec t;
  t.name = "solo";
  t.policy = PolicyKind::kFifoSecondChance;
  t.workload = Workload::Pattern({.kind = PatternKind::kHotCold, .pages = 128, .accesses = 1000});
  t.min_frames = 32;
  SchedulerSpec spec = ThreadPerTenant("threaded-minimal", {t});
  spec.total_frames = 1024;
  spec.kernel_reserved_frames = 128;
  spec.audit = false;

  SchedulerResult r = RunScheduledScenario(spec);
  EXPECT_EQ(r.audits_run, 1);  // exactly the always-on final audit
  ASSERT_EQ(r.tenants.size(), 1u);
  EXPECT_TRUE(r.tenants[0].completed);
  EXPECT_GT(r.tenants[0].faults_handled, 0);
  EXPECT_GT(r.faults_per_sec, 0.0);
}

TEST(SchedulerTest, AdmissionIsSpecOrderedEvenThoughExecutionIsNot) {
  // The first wave is registered sequentially before the worker threads start, so
  // admission verdicts are reproducible: with min_frames sized to exhaust the burst
  // watermark, the early tenants are admitted and the last is denied — every run.
  std::vector<TenantSpec> claims;
  for (int i = 0; i < 4; ++i) {
    TenantSpec t;
    t.name = "claim-" + std::to_string(i);
    t.policy = PolicyKind::kFifo;
    t.workload =
        Workload::Pattern({.kind = PatternKind::kSequential, .pages = 160, .accesses = 300});
    t.min_frames = 120;  // 3 x 120 fits under the watermark; the 4th claim cannot
    claims.push_back(t);
  }
  SchedulerSpec spec = ThreadPerTenant("threaded-admission", std::move(claims));
  spec.total_frames = 1024;
  spec.kernel_reserved_frames = 128;
  spec.manager.partition_burst_fraction = 0.5;  // watermark ~ 0.5 * boot-free (~440)

  SchedulerResult r = RunScheduledScenario(spec);
  ASSERT_EQ(r.tenants.size(), 4u);
  EXPECT_TRUE(r.tenants[0].admitted);
  EXPECT_TRUE(r.tenants[1].admitted);
  EXPECT_TRUE(r.tenants[2].admitted);
  EXPECT_FALSE(r.tenants[3].admitted);  // runs non-specific (§4.3.1) but still completes
  for (const TenantResult& t : r.tenants) {
    EXPECT_TRUE(t.completed) << t.name;
  }
}

// Regression test for the RunReclaim victim-skip starvation: when the manager's reclamation
// pass cannot take a victim's task lock (bounded backoff try-lock), the skipped ask must
// accrue as reclaim debt on the container and be repaid — added to the next successful
// pass's ask — instead of being dropped on the floor forever.
TEST(ReclaimDebtTest, SkippedVictimAccruesDebtAndRepaysOnNextPass) {
  mach::KernelParams params;
  params.exec_mode = sim::ExecMode::kRealThreads;
  params.total_frames = 512;
  params.kernel_reserved_frames = 64;
  mach::Kernel kernel(params);
  core::FrameManagerConfig config;
  config.partition_burst_fraction = 0.3;  // burst ~134 of 448 post-boot frames
  config.reserve_frames = 16;
  core::HipecEngine engine(&kernel, config);

  // Victim A: admitted small, then granted a surplus (NormalReclaim only asks containers
  // holding more than their minFrame guarantee).
  mach::Task* task_a = kernel.CreateTask("victim");
  core::HipecOptions opt_a;
  opt_a.min_frames = 16;
  core::HipecRegion region_a =
      engine.VmAllocateHipec(task_a, 128 * kPageSize,
                             policies::FifoPolicy(policies::CommandStyle::kSimple), opt_a);
  ASSERT_TRUE(region_a.ok) << region_a.error;
  ASSERT_TRUE(engine.manager().RequestFrames(region_a.container, 48,
                                             &region_a.container->free_q()));

  mach::Task* task_b = kernel.CreateTask("requester");
  core::HipecOptions opt_b;
  opt_b.min_frames = 16;
  core::HipecRegion region_b =
      engine.VmAllocateHipec(task_b, 128 * kPageSize,
                             policies::FifoPolicy(policies::CommandStyle::kSimple), opt_b);
  ASSERT_TRUE(region_b.ok) << region_b.error;

  const sim::CounterId skips = sim::InternCounter("engine.reclaim_lock_skips");
  const sim::CounterId repaid = sim::InternCounter("engine.reclaim_debt_repaid");
  ASSERT_EQ(engine.counters().Get(skips), 0);

  // Hold A's task lock from another thread for the whole first request.
  std::atomic<bool> locked{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    sim::ScopedLock lock(task_a->mutex());
    locked.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  while (!locked.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }

  // total_specific (16+48+16) + 60 exceeds the burst, so the request must reclaim from A —
  // whose lock is unavailable. The pass skips A, records the skip, and banks the ask.
  engine.manager().RequestFrames(region_b.container, 60, &region_b.container->free_q());
  EXPECT_GT(engine.counters().Get(skips), 0);
  EXPECT_GT(region_a.container->reclaim_debt.load(std::memory_order_relaxed), 0u);

  release.store(true, std::memory_order_release);
  holder.join();

  // Lock released: the next reclamation pass reaches A, repays the banked debt (its ask is
  // inflated by it), and clears the container's debt.
  engine.manager().RequestFrames(region_b.container, 60, &region_b.container->free_q());
  EXPECT_GT(engine.counters().Get(repaid), 0);
  EXPECT_EQ(region_a.container->reclaim_debt.load(std::memory_order_relaxed), 0u);

  kernel.TerminateTask(task_a, "done");
  kernel.TerminateTask(task_b, "done");
  mach::FrameAccounting acc = kernel.ComputeFrameAccounting();
  EXPECT_EQ(acc.unaccounted, 0u);
  EXPECT_EQ(acc.Sum(), acc.total);
}

}  // namespace
}  // namespace hipec::scenario
