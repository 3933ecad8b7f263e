// Integration tests: the full HiPEC stack (kernel + engine + manager + checker + bytecode
// policies) driven through real memory accesses, compared against oracle replacement
// simulations, plus security/termination behaviour and frame-conservation invariants.
#include <gtest/gtest.h>

#include <vector>

#include "hipec/builder.h"
#include "hipec/engine.h"
#include "mach/kernel.h"
#include "policies/oracle.h"
#include "policies/policies.h"
#include "sim/random.h"

namespace hipec::core {
namespace {

namespace ops = std_ops;
using mach::kPageSize;
using policies::CommandStyle;
using policies::OraclePolicy;

mach::KernelParams SmallParams() {
  mach::KernelParams params;
  params.total_frames = 1024;
  params.kernel_reserved_frames = 128;  // 896 free after boot
  params.pageout.free_target = 32;
  params.pageout.free_min = 8;
  params.pageout.inactive_target = 64;
  params.hipec_build = true;
  return params;
}

HipecOptions DefaultOptions(size_t min_frames) {
  HipecOptions options;
  options.min_frames = min_frames;
  options.free_target = 8;
  options.inactive_target = 16;
  options.reserved_target = 0;
  return options;
}

// Checks the frame-conservation invariant including manager-owned frames.
void ExpectConservation(mach::Kernel& kernel) {
  mach::FrameAccounting acc = kernel.ComputeFrameAccounting();
  EXPECT_EQ(acc.unaccounted, 0u);
  EXPECT_EQ(acc.Sum(), acc.total);
}

TEST(EngineTest, RegistrationHappyPath) {
  mach::Kernel kernel(SmallParams());
  HipecEngine engine(&kernel);
  mach::Task* task = kernel.CreateTask("app");
  HipecRegion region = engine.VmAllocateHipec(task, 64 * kPageSize,
                                              policies::FifoSecondChancePolicy(),
                                              DefaultOptions(32));
  ASSERT_TRUE(region.ok) << region.error;
  ASSERT_NE(region.container, nullptr);
  EXPECT_EQ(region.container->allocated_frames, 32u);
  EXPECT_EQ(region.container->free_q().count(), 32u);
  EXPECT_EQ(engine.manager().total_specific(), 32u);
  EXPECT_GT(region.container->buffer_vaddr, 0u);
  ExpectConservation(kernel);
}

// A reused clean victim comes back with its frame's old score word; the engine must hand
// the next page word 0, exactly as a Flush exchange's zeroed reserve frame would.
TEST(EngineTest, InstalledPageStartsWithWordZero) {
  mach::Kernel kernel(SmallParams());
  HipecEngine engine(&kernel);
  mach::Task* task = kernel.CreateTask("app");
  HipecRegion region = engine.VmAllocateHipec(
      task, 16 * kPageSize, policies::FifoPolicy(CommandStyle::kSimple), DefaultOptions(4));
  ASSERT_TRUE(region.ok) << region.error;
  for (uint64_t page = 0; page < 4; ++page) {
    ASSERT_TRUE(kernel.Touch(task, region.addr + page * kPageSize, /*is_write=*/false));
  }
  mach::PageQueue& active = region.container->active_q();
  ASSERT_EQ(active.count(), 4u);
  for (mach::VmPage* p = active.head(); p != nullptr; p = p->q_next) {
    p->user_word = 42;
  }
  // Pool full: this fault reuses the (clean) head as the victim's frame.
  ASSERT_TRUE(kernel.Touch(task, region.addr + 4 * kPageSize, /*is_write=*/false));
  EXPECT_EQ(engine.counters().Get("engine.reused_frames"), 1);
  ASSERT_EQ(active.tail()->offset, 4 * kPageSize);
  EXPECT_EQ(active.tail()->user_word, 0);
  EXPECT_EQ(active.head()->user_word, 42);  // resident pages keep their words
}

TEST(EngineTest, RegistrationRejectsInvalidProgram) {
  mach::Kernel kernel(SmallParams());
  HipecEngine engine(&kernel);
  mach::Task* task = kernel.CreateTask("app");
  PolicyProgram bad;  // missing both required events
  HipecRegion region = engine.VmAllocateHipec(task, 16 * kPageSize, bad, DefaultOptions(8));
  EXPECT_FALSE(region.ok);
  EXPECT_NE(region.error.find("PageFault"), std::string::npos);
  EXPECT_EQ(engine.manager().total_specific(), 0u);
  ExpectConservation(kernel);
}

TEST(EngineTest, RegistrationRejectsUnsatisfiableMinFrame) {
  mach::Kernel kernel(SmallParams());
  HipecEngine engine(&kernel);
  mach::Task* task = kernel.CreateTask("app");
  // partition_burst = 448 (50% of 896); a minFrame beyond it must be rejected.
  HipecRegion region = engine.VmAllocateHipec(task, 1024 * kPageSize,
                                              policies::FifoSecondChancePolicy(),
                                              DefaultOptions(800));
  EXPECT_FALSE(region.ok);
  EXPECT_NE(region.error.find("minFrame"), std::string::npos);
  EXPECT_FALSE(task->terminated());  // app may continue as a non-specific application
  ExpectConservation(kernel);
}

TEST(EngineTest, FaultsServedFromPrivateFreeList) {
  mach::Kernel kernel(SmallParams());
  HipecEngine engine(&kernel);
  mach::Task* task = kernel.CreateTask("app");
  HipecRegion region = engine.VmAllocateHipec(task, 32 * kPageSize,
                                              policies::FifoSecondChancePolicy(),
                                              DefaultOptions(32));
  ASSERT_TRUE(region.ok) << region.error;
  EXPECT_TRUE(kernel.TouchRange(task, region.addr, 32 * kPageSize, true));
  EXPECT_EQ(engine.counters().Get("engine.faults_handled"), 32);
  EXPECT_EQ(region.container->free_q().count(), 0u);
  EXPECT_EQ(region.container->active_q().count(), 32u);
  // Re-touching is all TLB hits.
  EXPECT_TRUE(kernel.TouchRange(task, region.addr, 32 * kPageSize, false));
  EXPECT_EQ(engine.counters().Get("engine.faults_handled"), 32);
  ExpectConservation(kernel);
}

TEST(EngineTest, SecondChancePolicyRecyclesUnderPressure) {
  mach::Kernel kernel(SmallParams());
  HipecEngine engine(&kernel);
  mach::Task* task = kernel.CreateTask("app");
  HipecRegion region = engine.VmAllocateHipec(task, 128 * kPageSize,
                                              policies::FifoSecondChancePolicy(),
                                              DefaultOptions(64));
  ASSERT_TRUE(region.ok) << region.error;
  // 128 pages through 64 frames: the Lack_free_frame event must run and recycle.
  EXPECT_TRUE(kernel.TouchRange(task, region.addr, 128 * kPageSize, true));
  EXPECT_FALSE(task->terminated()) << task->termination_reason();
  EXPECT_EQ(engine.counters().Get("engine.faults_handled"), 128);
  EXPECT_EQ(region.container->allocated_frames, 64u);
  // Dirty victims were flushed through the manager's asynchronous exchange.
  EXPECT_GT(engine.manager().counters().Get("manager.flushes_async"), 0);
  ExpectConservation(kernel);
}

// The interned-counter fast path and the retained string-keyed API must observe the same
// values — across a real fault storm that exercises the converted call sites in the kernel,
// engine, manager and executor.
TEST(EngineTest, CounterApisAgreeAcrossFaultStorm) {
  mach::Kernel kernel(SmallParams());
  HipecEngine engine(&kernel);
  mach::Task* task = kernel.CreateTask("app");
  HipecRegion region = engine.VmAllocateHipec(task, 128 * kPageSize,
                                              policies::FifoSecondChancePolicy(),
                                              DefaultOptions(64));
  ASSERT_TRUE(region.ok) << region.error;
  EXPECT_TRUE(kernel.TouchRange(task, region.addr, 128 * kPageSize, true));

  // String-keyed Get resolves through the registry onto the same slots the interned-id adds
  // hit on the fault path.
  EXPECT_EQ(engine.counters().Get("engine.faults_handled"), 128);
  EXPECT_EQ(engine.counters().Get(sim::InternCounter("engine.faults_handled")), 128);
  EXPECT_EQ(kernel.counters().Get("kernel.page_faults"),
            kernel.counters().Get(sim::InternCounter("kernel.page_faults")));
  EXPECT_GT(kernel.counters().Get("kernel.hipec_faults"), 0);
  EXPECT_GT(engine.executor().counters().Get("executor.events"), 0);
  EXPECT_EQ(engine.executor().counters().Get("executor.events"),
            engine.executor().counters().Get(sim::InternCounter("executor.events")));

  // The materialized view lists exactly what Get reports.
  auto all = engine.counters().all();
  EXPECT_EQ(all.at("engine.faults_handled"), 128);
  EXPECT_NE(engine.counters().ToString().find("engine.faults_handled=128"),
            std::string::npos);
  ExpectConservation(kernel);
}

TEST(EngineTest, WriteToCommandBufferTerminatesApplication) {
  mach::Kernel kernel(SmallParams());
  HipecEngine engine(&kernel);
  mach::Task* task = kernel.CreateTask("app");
  HipecRegion region = engine.VmAllocateHipec(task, 16 * kPageSize,
                                              policies::FifoSecondChancePolicy(),
                                              DefaultOptions(16));
  ASSERT_TRUE(region.ok) << region.error;
  EXPECT_TRUE(kernel.Touch(task, region.container->buffer_vaddr, false));  // reads fine
  EXPECT_FALSE(kernel.Touch(task, region.container->buffer_vaddr, true));  // writes kill
  EXPECT_TRUE(task->terminated());
  EXPECT_NE(task->termination_reason().find("write-protected"), std::string::npos);
  // Termination returned every private frame.
  EXPECT_EQ(engine.manager().total_specific(), 0u);
  ExpectConservation(kernel);
}

TEST(EngineTest, PolicyRuntimeErrorTerminatesApplication) {
  mach::Kernel kernel(SmallParams());
  HipecEngine engine(&kernel);
  mach::Task* task = kernel.CreateTask("app");
  // A policy that dequeues from the (empty) inactive queue on every fault.
  PolicyProgram bad;
  EventBuilder fault;
  fault.DeQueueHead(ops::kPage, ops::kInactiveQueue).Return(ops::kPage);
  bad.SetEvent(kEventPageFault, fault.Build());
  bad.SetEvent(kEventReclaimFrame, policies::StandardReclaimEvent());
  HipecRegion region = engine.VmAllocateHipec(task, 16 * kPageSize, bad, DefaultOptions(8));
  ASSERT_TRUE(region.ok) << region.error;
  EXPECT_FALSE(kernel.Touch(task, region.addr, false));
  EXPECT_TRUE(task->terminated());
  EXPECT_NE(task->termination_reason().find("empty queue"), std::string::npos);
  EXPECT_EQ(engine.manager().total_specific(), 0u);
  ExpectConservation(kernel);
}

TEST(EngineTest, RunawayPolicyKilledBySecurityChecker) {
  mach::KernelParams params = SmallParams();
  mach::Kernel kernel(params);
  HipecEngine engine(&kernel);
  mach::Task* task = kernel.CreateTask("app");
  PolicyProgram runaway;
  EventBuilder fault;
  auto loop = fault.NewLabel();
  fault.Bind(loop);
  fault.ClearCondition();
  fault.JumpIfFalse(loop);
  fault.Return(0);
  runaway.SetEvent(kEventPageFault, fault.Build());
  runaway.SetEvent(kEventReclaimFrame, policies::StandardReclaimEvent());
  HipecOptions options = DefaultOptions(8);
  options.timeout_ns = 100 * sim::kMillisecond;  // TimeOut period (privileged-user setting)
  HipecRegion region = engine.VmAllocateHipec(task, 16 * kPageSize, runaway, options);
  ASSERT_TRUE(region.ok) << region.error;

  EXPECT_FALSE(kernel.Touch(task, region.addr, false));
  EXPECT_TRUE(task->terminated());
  EXPECT_NE(task->termination_reason().find("timed out"), std::string::npos);
  EXPECT_GE(engine.checker().timeouts_detected(), 1);
  EXPECT_EQ(engine.manager().total_specific(), 0u);
  ExpectConservation(kernel);
}

TEST(EngineTest, CheckerIntervalDoublesWhenQuiet) {
  mach::Kernel kernel(SmallParams());
  HipecEngine engine(&kernel);
  sim::Nanos initial = engine.checker().current_wakeup_interval();
  EXPECT_GE(initial, kernel.costs().checker_wakeup_min_ns);
  // Quiet system: interval doubles up to the 8 s cap, so the checker "sleeps most of the
  // time and does not create enormous overhead" (§4.3.3).
  kernel.clock().Advance(60 * sim::kSecond);
  EXPECT_EQ(engine.checker().current_wakeup_interval(), kernel.costs().checker_wakeup_max_ns);
  EXPECT_GE(engine.checker().wakeups(), 5);
}

TEST(EngineTest, CheckerIntervalHalvesOnTimeoutDetection) {
  mach::Kernel kernel(SmallParams());
  HipecEngine engine(&kernel);
  // Let the interval grow to 1 s first (wakeups at 0.25 s and 0.75 s).
  kernel.clock().Advance(800 * sim::kMillisecond);
  ASSERT_EQ(engine.checker().current_wakeup_interval(), sim::kSecond);

  // A runaway execution detected at the next wakeup halves the interval.
  mach::Task* task = kernel.CreateTask("app");
  PolicyProgram runaway;
  EventBuilder fault;
  auto loop = fault.NewLabel();
  fault.Bind(loop);
  fault.ClearCondition();
  fault.JumpIfFalse(loop);
  fault.Return(0);
  runaway.SetEvent(kEventPageFault, fault.Build());
  runaway.SetEvent(kEventReclaimFrame, policies::StandardReclaimEvent());
  HipecOptions options = DefaultOptions(8);
  options.timeout_ns = 50 * sim::kMillisecond;
  HipecRegion region = engine.VmAllocateHipec(task, 16 * kPageSize, runaway, options);
  ASSERT_TRUE(region.ok) << region.error;
  kernel.Touch(task, region.addr, false);
  EXPECT_TRUE(task->terminated());
  EXPECT_EQ(engine.checker().timeouts_detected(), 1);
  EXPECT_EQ(engine.checker().current_wakeup_interval(), 500 * sim::kMillisecond);
}

TEST(EngineTest, RequestReclaimsFromEarlierContainerFafr) {
  mach::KernelParams params = SmallParams();
  params.total_frames = 640;
  params.kernel_reserved_frames = 64;  // 576 free after boot; burst = 288
  mach::Kernel kernel(params);
  HipecEngine engine(&kernel, FrameManagerConfig{0.9, 32});  // burst = 518
  mach::Task* a = kernel.CreateTask("a");
  mach::Task* b = kernel.CreateTask("b");

  HipecRegion ra = engine.VmAllocateHipec(a, 400 * kPageSize,
                                          policies::FifoSecondChancePolicy(),
                                          DefaultOptions(64));
  ASSERT_TRUE(ra.ok) << ra.error;
  // A grows far beyond its minimum.
  ASSERT_TRUE(engine.manager().RequestFrames(ra.container, 300, &ra.container->free_q()));
  EXPECT_EQ(ra.container->allocated_frames, 364u);

  // B's admission cannot be met from free memory alone (576 boot-free - 32 reserve - 364
  // held by A leaves ~180); the manager must run A's ReclaimFrame event (normal
  // reclamation, First-Allocated-First-Reclaimed).
  HipecRegion rb = engine.VmAllocateHipec(b, 250 * kPageSize,
                                          policies::FifoSecondChancePolicy(),
                                          DefaultOptions(200));
  ASSERT_TRUE(rb.ok) << rb.error;
  EXPECT_EQ(rb.container->allocated_frames, 200u);
  EXPECT_LT(ra.container->allocated_frames, 364u);
  EXPECT_GE(ra.container->allocated_frames, 64u);  // never below minFrame
  EXPECT_GT(engine.manager().counters().Get("manager.normal_reclaims"), 0);
  ExpectConservation(kernel);
}

TEST(EngineTest, ForcedReclaimWhenPolicyRefusesToRelease) {
  mach::KernelParams params = SmallParams();
  params.total_frames = 640;
  params.kernel_reserved_frames = 64;
  mach::Kernel kernel(params);
  HipecEngine engine(&kernel, FrameManagerConfig{0.9, 32});
  mach::Task* a = kernel.CreateTask("a");
  mach::Task* b = kernel.CreateTask("b");

  // A's ReclaimFrame event returns immediately without releasing anything.
  PolicyProgram selfish = policies::FifoSecondChancePolicy();
  EventBuilder noop;
  noop.Return(0);
  selfish.SetEvent(kEventReclaimFrame, noop.Build());

  HipecRegion ra = engine.VmAllocateHipec(a, 400 * kPageSize, selfish, DefaultOptions(64));
  ASSERT_TRUE(ra.ok) << ra.error;
  ASSERT_TRUE(engine.manager().RequestFrames(ra.container, 300, &ra.container->free_q()));

  HipecRegion rb = engine.VmAllocateHipec(b, 250 * kPageSize,
                                          policies::FifoSecondChancePolicy(),
                                          DefaultOptions(200));
  ASSERT_TRUE(rb.ok) << rb.error;
  EXPECT_GT(engine.manager().counters().Get("manager.forced_reclaims"), 0);
  EXPECT_GE(ra.container->allocated_frames, 64u);
  ExpectConservation(kernel);
}

TEST(EngineTest, PartitionBurstBoundsSpecificAllocations) {
  mach::Kernel kernel(SmallParams());  // 896 free; burst = 448
  HipecEngine engine(&kernel);
  mach::Task* a = kernel.CreateTask("a");
  HipecRegion ra = engine.VmAllocateHipec(a, 600 * kPageSize,
                                          policies::FifoSecondChancePolicy(),
                                          DefaultOptions(200));
  ASSERT_TRUE(ra.ok) << ra.error;
  // Requests up to the burst succeed; beyond it they are rejected (no other app has surplus).
  EXPECT_TRUE(engine.manager().RequestFrames(ra.container, 248, &ra.container->free_q()));
  EXPECT_EQ(engine.manager().total_specific(), 448u);
  EXPECT_FALSE(engine.manager().RequestFrames(ra.container, 1, &ra.container->free_q()));
  EXPECT_LE(engine.manager().total_specific(), engine.manager().partition_burst());
  ExpectConservation(kernel);
}

TEST(EngineTest, TeardownReturnsEverything) {
  mach::Kernel kernel(SmallParams());
  HipecEngine engine(&kernel);
  mach::Task* task = kernel.CreateTask("app");
  HipecRegion region = engine.VmAllocateHipec(task, 64 * kPageSize,
                                              policies::FifoSecondChancePolicy(),
                                              DefaultOptions(48));
  ASSERT_TRUE(region.ok) << region.error;
  EXPECT_TRUE(kernel.TouchRange(task, region.addr, 64 * kPageSize, true));
  kernel.TerminateTask(task, "done");
  EXPECT_EQ(engine.manager().total_specific(), 0u);
  EXPECT_EQ(engine.manager().containers().size(), 0u);
  EXPECT_EQ(engine.counters().Get("engine.teardowns"), 1);
  ExpectConservation(kernel);
  // Only the manager's own reserve/laundry frames remain hipec-owned.
  mach::FrameAccounting acc = kernel.ComputeFrameAccounting();
  EXPECT_EQ(acc.container_owned, engine.manager().manager_owned());
}

TEST(EngineTest, VmMapHipecControlsFileBackedRegion) {
  mach::Kernel kernel(SmallParams());
  HipecEngine engine(&kernel);
  mach::Task* task = kernel.CreateTask("db");
  mach::VmObject* table = kernel.CreateFileObject("table", 64 * kPageSize);
  HipecRegion region = engine.VmMapHipec(task, table, policies::MruPolicy(),
                                         DefaultOptions(32));
  ASSERT_TRUE(region.ok) << region.error;
  EXPECT_TRUE(kernel.TouchRange(task, region.addr, 64 * kPageSize, false));
  // File-backed: every fill came from disk.
  EXPECT_EQ(kernel.counters().Get("kernel.disk_fills"), 64);
  EXPECT_FALSE(task->terminated());
  ExpectConservation(kernel);
}

// ---------------------------------------------------------------- oracle equivalence

// Runs `trace` (region page numbers) through the engine with `program` and a pool of
// `min_frames` frames; returns the number of HiPEC faults taken.
int64_t RunTrace(const std::vector<uint64_t>& trace, size_t min_frames,
                 const PolicyProgram& program) {
  mach::Kernel kernel(SmallParams());
  HipecEngine engine(&kernel);
  mach::Task* task = kernel.CreateTask("app");
  HipecOptions options = DefaultOptions(min_frames);
  HipecRegion region = engine.VmAllocateHipec(task, 512 * kPageSize, program, options);
  EXPECT_TRUE(region.ok) << region.error;
  for (uint64_t page : trace) {
    EXPECT_TRUE(kernel.Touch(task, region.addr + page * kPageSize, true))
        << task->termination_reason();
    if (task->terminated()) {
      break;
    }
  }
  return engine.counters().Get("engine.faults_handled");
}

struct OracleCase {
  OraclePolicy oracle;
  CommandStyle style;
  const char* name;
};

class OracleEquivalenceTest : public ::testing::TestWithParam<OracleCase> {};

PolicyProgram ProgramFor(const OracleCase& param) {
  switch (param.oracle) {
    case OraclePolicy::kFifo:
      return policies::FifoPolicy(param.style);
    case OraclePolicy::kLru:
      return policies::LruPolicy(param.style);
    case OraclePolicy::kMru:
      return policies::MruPolicy(param.style);
    case OraclePolicy::kClock:
      return policies::ClockPolicy();
  }
  return {};
}

TEST_P(OracleEquivalenceTest, SequentialCyclicScan) {
  // The join-like pattern: repeated sequential scans over more pages than frames. For this
  // access pattern queue order equals recency order, so simple and complex styles agree.
  std::vector<uint64_t> trace;
  for (int loop = 0; loop < 4; ++loop) {
    for (uint64_t p = 0; p < 48; ++p) {
      trace.push_back(p);
    }
  }
  int64_t engine_faults = RunTrace(trace, 32, ProgramFor(GetParam()));
  policies::OracleResult oracle = policies::SimulateReplacement(trace, 32, GetParam().oracle);
  if (GetParam().oracle == OraclePolicy::kMru && GetParam().style == CommandStyle::kSimple) {
    // The DeQueue-tail expression of MRU uses *fault* order, which trails exact recency by
    // at most one page per scan (see policies.h); here: 4 scans.
    EXPECT_NEAR(static_cast<double>(engine_faults), static_cast<double>(oracle.faults), 4.0);
  } else {
    EXPECT_EQ(engine_faults, static_cast<int64_t>(oracle.faults));
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndStyles, OracleEquivalenceTest,
    ::testing::Values(OracleCase{OraclePolicy::kFifo, CommandStyle::kComplex, "fifo_complex"},
                      OracleCase{OraclePolicy::kFifo, CommandStyle::kSimple, "fifo_simple"},
                      OracleCase{OraclePolicy::kLru, CommandStyle::kComplex, "lru_complex"},
                      OracleCase{OraclePolicy::kMru, CommandStyle::kComplex, "mru_complex"},
                      OracleCase{OraclePolicy::kMru, CommandStyle::kSimple, "mru_simple"}),
    [](const ::testing::TestParamInfo<OracleCase>& info) { return info.param.name; });

class RandomTraceTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomTraceTest, LruAndMruMatchOracleOnRandomTraces) {
  sim::Rng rng(static_cast<uint64_t>(GetParam()));
  std::vector<uint64_t> trace;
  for (int i = 0; i < 600; ++i) {
    trace.push_back(rng.Below(60));
  }
  for (auto oracle_kind : {OraclePolicy::kLru, OraclePolicy::kMru}) {
    PolicyProgram program = oracle_kind == OraclePolicy::kLru
                                ? policies::LruPolicy(CommandStyle::kComplex)
                                : policies::MruPolicy(CommandStyle::kComplex);
    int64_t engine_faults = RunTrace(trace, 24, program);
    policies::OracleResult oracle = policies::SimulateReplacement(trace, 24, oracle_kind);
    EXPECT_EQ(engine_faults, static_cast<int64_t>(oracle.faults))
        << "policy=" << (oracle_kind == OraclePolicy::kLru ? "LRU" : "MRU")
        << " seed=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTraceTest, ::testing::Range(1, 9));

TEST(EngineAnalyticTest, JoinFormulasMatchPaper) {
  // Spot values of the paper's formulas: 60 MB outer, 40 MB memory, 64 loops.
  int64_t mb = 1024 * 1024;
  EXPECT_EQ(policies::JoinFaultsLru(60 * mb, 40 * mb, 64), 60 * mb * 64 / 4096);
  EXPECT_EQ(policies::JoinFaultsMru(60 * mb, 40 * mb, 64),
            ((60 - 40) * mb * 63 + 60 * mb) / 4096);
  // At or below memory size both degenerate to one cold scan.
  EXPECT_EQ(policies::JoinFaultsLru(40 * mb, 40 * mb, 64), 40 * mb / 4096);
  EXPECT_EQ(policies::JoinFaultsMru(40 * mb, 40 * mb, 64), 40 * mb / 4096);
}

}  // namespace
}  // namespace hipec::core
