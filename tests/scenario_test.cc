// Multi-tenant scenario engine tests: canned contention scenarios run end to end with the
// invariant auditor on, determinism across same-seed runs and against the recorded golden
// fingerprints, fault injection (checker kills, teardown, disk spikes, reserve starvation),
// and the auditor's ability to actually detect corrupted frame state.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "hipec/engine.h"
#include "mach/kernel.h"
#include "policies/policies.h"
#include "scenario/canned.h"
#include "scenario/invariants.h"
#include "scenario/scenario.h"
#include "sim/check.h"

namespace hipec::scenario {
namespace {

using mach::kPageSize;
using workloads::PatternKind;
using workloads::Workload;

const TenantResult* FindTenant(const ScenarioResult& result, const std::string& name) {
  for (const TenantResult& t : result.tenants) {
    if (t.name == name) {
      return &t;
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------- acceptance scenario

// The ISSUE's acceptance bar: >= 8 specific containers plus 4 non-specific tasks run to
// completion under continuous frame-conservation auditing.
TEST(ScenarioTest, RampUpCompletesUnderAudit) {
  ScenarioResult result = RunScenario(RampUp());  // throws CheckFailure on any violation
  ASSERT_EQ(result.tenants.size(), 8u);
  ASSERT_EQ(result.background.size(), 4u);
  for (const TenantResult& t : result.tenants) {
    EXPECT_TRUE(t.admitted) << t.name;
    EXPECT_TRUE(t.completed) << t.name;
    EXPECT_GT(t.faults_handled, 0) << t.name;
    EXPECT_GT(t.commands_executed, 0) << t.name;
  }
  for (const BackgroundResult& b : result.background) {
    EXPECT_TRUE(b.completed) << b.name;
  }
  EXPECT_GT(result.audits_run, 0);
  EXPECT_GT(result.virtual_ns, 0);
  EXPECT_EQ(result.checker_kills, 0);
}

TEST(ScenarioTest, SameSeedRunsAreByteIdentical) {
  ScenarioResult a = RunScenario(RampUp());
  ScenarioResult b = RunScenario(RampUp());
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
}

TEST(ScenarioTest, DifferentSeedDiverges) {
  ScenarioSpec spec = RampUp();
  ScenarioResult a = RunScenario(spec);
  spec.seed ^= 0xDEADBEEF;
  ScenarioResult b = RunScenario(spec);
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
}

struct GoldenEntry {
  const char* name;
  const char* fingerprint;
};

const GoldenEntry kGolden[] = {
#include "golden_fingerprints.inc"
};

// Every canned scenario, bit-for-bit against the recorded baseline.
TEST(VirtualClockDeterminismTest, CannedScenariosMatchGoldenFingerprints) {
  std::map<std::string, std::string> golden;
  for (const GoldenEntry& e : kGolden) {
    golden.emplace(e.name, e.fingerprint);
  }
  for (const ScenarioSpec& spec : AllCannedScenarios()) {
    auto it = golden.find(spec.name);
    ASSERT_NE(it, golden.end()) << "no golden fingerprint recorded for " << spec.name
                                << "; regenerate with hipec-fingerprints --inc";
    ScenarioResult result = RunScenario(spec);
    // A mismatch means virtual-clock execution is no longer bit-for-bit reproducible
    // against the baseline — a finding to investigate, not a golden file to update casually.
    EXPECT_EQ(result.Fingerprint(), it->second) << spec.name;
  }
}

// ---------------------------------------------------------------- contention scenarios

// With the herd's minimums pinned against the watermark there is no reclaimable surplus
// anywhere: every Request overshoots and the manager must deny it.
TEST(ScenarioTest, ThunderingHerdRejectsRequests) {
  ScenarioResult result = RunScenario(ThunderingHerd());
  for (const TenantResult& t : result.tenants) {
    EXPECT_TRUE(t.admitted) << t.name;
    EXPECT_TRUE(t.completed) << t.name;  // rejection degrades to self-eviction, not failure
  }
  EXPECT_GT(result.Decision("request-reject"), 100);
  int64_t rejected = 0;
  for (const TenantResult& t : result.tenants) {
    rejected += t.requests_rejected;
  }
  EXPECT_GT(rejected, 100);
}

// The stubborn hog refuses cooperative reclamation, so the at-min smalls' admissions can
// only be funded by FAFR forced reclamation seizing the hog's frames — and the hog's own
// requests, with nobody else above min, are denied.
TEST(ScenarioTest, HogLosesFramesToForcedReclaim) {
  ScenarioResult result = RunScenario(HogVsMany());
  const TenantResult* hog = FindTenant(result, "hog");
  ASSERT_NE(hog, nullptr);
  EXPECT_TRUE(hog->admitted);
  EXPECT_GT(hog->frames_force_reclaimed, 0);
  EXPECT_GT(hog->requests_rejected, 0);
  EXPECT_GT(hog->frames_peak, 400u);  // it really did balloon before being clawed back
  for (const TenantResult& t : result.tenants) {
    if (t.name != "hog") {
      EXPECT_TRUE(t.admitted) << t.name;
      EXPECT_TRUE(t.completed) << t.name;
    }
  }
}

// Tenants departing and arriving mid-scenario, plus a mid-scenario region teardown, all
// under audit: the freed frames are fully returned (conservation would fail otherwise).
TEST(ScenarioTest, ChurnSurvivesDeparturesAndTeardown) {
  ScenarioResult result = RunScenario(Churn());
  const TenantResult* torn = FindTenant(result, "churn-2");
  ASSERT_NE(torn, nullptr);
  EXPECT_TRUE(torn->torn_down);
  EXPECT_FALSE(torn->completed);
  for (const char* name : {"churn-0", "churn-1", "churn-3"}) {
    const TenantResult* t = FindTenant(result, name);
    ASSERT_NE(t, nullptr) << name;
    EXPECT_TRUE(t->terminated) << name;  // departed on schedule
  }
  for (const char* name : {"late-0", "late-1"}) {
    const TenantResult* t = FindTenant(result, name);
    ASSERT_NE(t, nullptr) << name;
    EXPECT_TRUE(t->admitted) << name;
    EXPECT_TRUE(t->completed) << name;
  }
  EXPECT_GT(result.Decision("remove-container"), 0);
}

// ---------------------------------------------------------------- fault injection

// The ISSUE's second acceptance bar: injected infinite-loop policies are killed by the
// security checker while every innocent tenant finishes unharmed.
TEST(ScenarioTest, CheckerKillsLoopersWorkersUnharmed) {
  ScenarioResult result = RunScenario(CheckerKillStorm());
  EXPECT_EQ(result.checker_kills, 3);
  int loopers = 0;
  for (const TenantResult& t : result.tenants) {
    if (t.injected) {
      ++loopers;
      EXPECT_TRUE(t.killed_by_checker) << t.name;
      EXPECT_TRUE(t.terminated) << t.name;
      EXPECT_FALSE(t.completed) << t.name;
    } else {
      EXPECT_TRUE(t.completed) << t.name;
      EXPECT_FALSE(t.killed_by_checker) << t.name;
    }
  }
  EXPECT_EQ(loopers, 3);
}

// Write-heavy tenants evicting dirty pages faster than the disk retires write-backs drain
// the 4-frame Flush reserve: exchanges happen while it lasts, then Flush degrades to the
// synchronous path.
TEST(ScenarioTest, ReserveStarvationForcesSynchronousFlush) {
  ScenarioResult result = RunScenario(ReserveStarvation());
  EXPECT_GT(result.Decision("flush-exchange"), 0);
  EXPECT_GT(result.Decision("flush-sync"), 0);
  for (const TenantResult& t : result.tenants) {
    EXPECT_TRUE(t.completed) << t.name;
  }
}

// A disk latency spike mid-scenario slows everyone down but breaks nothing.
TEST(ScenarioTest, DiskSpikeOnlyCostsTime) {
  ScenarioSpec spec = DiskSpike();
  ScenarioResult spiked = RunScenario(spec);
  spec.injections.clear();
  ScenarioResult calm = RunScenario(spec);
  for (const TenantResult& t : spiked.tenants) {
    EXPECT_TRUE(t.completed) << t.name;
  }
  EXPECT_GT(spiked.virtual_ns, calm.virtual_ns);
  // The injection only perturbs timing, not reference streams: fault counts match.
  for (size_t i = 0; i < spiked.tenants.size(); ++i) {
    EXPECT_EQ(spiked.tenants[i].faults_handled, calm.tenants[i].faults_handled)
        << spiked.tenants[i].name;
  }
}

// A tenant whose minFrame demand exceeds the watermark is refused registration and falls
// back to running as a non-specific application (§4.3.1) — it still completes.
TEST(ScenarioTest, AdmissionRejectFallsBackToNonSpecific) {
  ScenarioSpec spec;
  spec.name = "admission_reject";
  spec.total_frames = 512;
  spec.kernel_reserved_frames = 64;
  spec.steps = 16;
  TenantSpec big;
  big.name = "too-big";
  big.policy = PolicyKind::kGreedy;
  big.workload = Workload::Pattern({.kind = PatternKind::kSequential, .pages = 64, .accesses = 200});
  big.min_frames = 4000;  // no watermark admits this
  spec.tenants.push_back(big);
  ScenarioResult result = RunScenario(spec);
  const TenantResult* t = FindTenant(result, "too-big");
  ASSERT_NE(t, nullptr);
  EXPECT_FALSE(t->admitted);
  EXPECT_TRUE(t->completed);
  EXPECT_EQ(t->faults_handled, 0);  // non-specific faults are the daemon's, not HiPEC's
  EXPECT_GT(result.Decision("admit-reject"), 0);
}

// ---------------------------------------------------------------- trace materialization

TEST(ScenarioTest, TracesAreDeterministicPerOrdinal) {
  TenantSpec t;
  t.workload = Workload::Pattern(
      {.kind = PatternKind::kHotCold, .pages = 128, .accesses = 500, .write_fraction = 0.3});
  auto a = MaterializeTrace(t, 42, 0);
  auto b = MaterializeTrace(t, 42, 0);
  auto c = MaterializeTrace(t, 42, 1);
  ASSERT_EQ(a.size(), 500u);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // sibling tenants with identical specs still get distinct streams
  size_t writes = 0;
  for (const auto& [page, is_write] : a) {
    EXPECT_LT(page, 128u);
    writes += is_write ? 1 : 0;
  }
  EXPECT_GT(writes, 100u);
  EXPECT_LT(writes, 200u);
}

// ---------------------------------------------------------------- auditor detection power

class AuditorDetectionTest : public ::testing::Test {
 protected:
  AuditorDetectionTest() : kernel_(Params()), engine_(&kernel_) {
    task_ = kernel_.CreateTask("app");
    core::HipecOptions options;
    options.min_frames = 32;
    options.free_target = 4;
    options.inactive_target = 8;
    options.reserved_target = 0;
    region_ = engine_.VmAllocateHipec(task_, 64 * kPageSize,
                                      policies::FifoSecondChancePolicy(), options);
    EXPECT_TRUE(region_.ok) << region_.error;
    // Touch only half the granted minimum so the free queue still holds frames to steal.
    EXPECT_TRUE(kernel_.TouchRange(task_, region_.addr, 16 * kPageSize, true));
  }

  static mach::KernelParams Params() {
    mach::KernelParams params;
    params.total_frames = 1024;
    params.kernel_reserved_frames = 128;
    params.hipec_build = true;
    return params;
  }

  mach::Kernel kernel_;
  core::HipecEngine engine_;
  mach::Task* task_ = nullptr;
  core::HipecRegion region_;
};

TEST_F(AuditorDetectionTest, CleanStatePasses) {
  AuditReport report = AuditFrameInvariants(engine_);
  EXPECT_TRUE(report.ok) << report.violation;
}

TEST_F(AuditorDetectionTest, DetectsAllocationCountCorruption) {
  ++region_.container->allocated_frames;  // claims a frame it does not hold
  AuditReport report = AuditFrameInvariants(engine_);
  EXPECT_FALSE(report.ok);
  --region_.container->allocated_frames;
  EXPECT_TRUE(AuditFrameInvariants(engine_).ok);
}

TEST_F(AuditorDetectionTest, DetectsStolenFrame) {
  // Rip a frame off the container's free queue without telling the manager: the sweep sees
  // fewer owned frames than the container claims.
  mach::VmPage* page = region_.container->free_q().DequeueHead();
  ASSERT_NE(page, nullptr);
  void* owner = page->owner;
  page->owner = nullptr;
  AuditReport report = AuditFrameInvariants(engine_);
  EXPECT_FALSE(report.ok);
  page->owner = owner;
  region_.container->free_q().EnqueueTail(page, kernel_.clock().now());
  EXPECT_TRUE(AuditFrameInvariants(engine_).ok);
}

TEST_F(AuditorDetectionTest, DetectsFafrOrderCorruption) {
  // The manager exposes the FAFR list read-only; corrupting it is exactly the point here.
  auto* head = const_cast<mach::VmPage*>(engine_.manager().alloc_head());
  ASSERT_NE(head, nullptr);
  ASSERT_NE(head->alloc_next, nullptr);
  // Swap two allocation stamps: the list order no longer matches allocation order.
  std::swap(head->alloc_seq, head->alloc_next->alloc_seq);
  AuditReport report = AuditFrameInvariants(engine_);
  EXPECT_FALSE(report.ok);
  std::swap(head->alloc_seq, head->alloc_next->alloc_seq);
  EXPECT_TRUE(AuditFrameInvariants(engine_).ok);
}

TEST_F(AuditorDetectionTest, AuditNowThrowsAndCounts) {
  InvariantAuditor auditor(&engine_);
  auditor.AuditNow("test-decision");
  EXPECT_EQ(auditor.audits_run(), 1);
  ++region_.container->allocated_frames;
  EXPECT_THROW(auditor.AuditNow("corrupted"), sim::CheckFailure);
  --region_.container->allocated_frames;
}

}  // namespace
}  // namespace hipec::scenario
