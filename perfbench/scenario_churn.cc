// The scenario layer, run once at the end of learned_replay: the M:N scheduler
// (scenario::RunScheduledScenario) with 3 workers retires one seeded population of
// short-lived tenants (fifo2c, lru and greedy policies, plus stubborn hogs and early
// departures) under the spec's default stop-the-world audits. It exercises engine
// registration and teardown, frame-manager admission, Request grant/reject, and cooperative
// and forced reclamation. It has no looping policies: a checker-killed looper pins a
// population's wall time to the checker's watchdog, not to the system's work.
//
// Its figures are per-layer only. As a timed workload of its own, tenants/s did not hold
// steady enough to carry a bound (README.md).
#include <string>
#include <utility>
#include <vector>

#include "scenario/scheduler.h"
#include "sim/check.h"
#include "spans.h"
#include "workloads.h"
#include "workloads/workload_source.h"

namespace perfbench {

namespace {

using namespace hipec;  // NOLINT: benchmark code
using scenario::PolicyKind;
using workloads::PatternKind;

constexpr size_t kTenants = 1920;
constexpr size_t kWorkers = 3;

// One seeded population: 1 in 80 tenants is a stubborn hog that refuses cooperative
// reclamation; of the rest, a third each run fifo2c, lru and greedy, half hot/cold and half
// zipf, one in five writes, and one in seven departs after one slice. The seed shuffles
// which tenant gets which role and draws the region sizes and streams.
//
// 1,024 frames: about half the populations see refused Requests and forced reclamation, and
// none of 550 populations had a tenant end early. With 1,536 frames nothing is ever refused;
// at 768, 12% of populations had a greedy tenant end early.
scenario::SchedulerSpec MakePopulation(uint64_t seed) {
  SplitMix64 rng(seed);
  scenario::SchedulerSpec spec;
  spec.name = "churn";
  spec.total_frames = 1024;
  spec.kernel_reserved_frames = 128;
  spec.seed = rng.Next();
  spec.workers = kWorkers;
  spec.slice_accesses = 64;
  spec.max_live_tenants = 64;
  spec.audit = true;
  std::vector<size_t> role(kTenants);
  for (size_t i = 0; i < kTenants; ++i) {
    role[i] = i;
  }
  for (size_t i = kTenants - 1; i > 0; --i) {
    std::swap(role[i], role[rng.Below(i + 1)]);
  }
  const PolicyKind kinds[] = {PolicyKind::kFifoSecondChance, PolicyKind::kLru,
                              PolicyKind::kGreedy};
  for (size_t i = 0; i < kTenants; ++i) {
    const size_t r = role[i];
    scenario::TenantSpec t;
    t.name = "tenant-" + std::to_string(i);
    workloads::SyntheticSpec stream;
    if (r % 80 == 0) {
      t.policy = PolicyKind::kStubborn;
      stream.kind = PatternKind::kUniform;
      stream.pages = 384;
      stream.accesses = 512;
      stream.write_fraction = 0.1;
      t.min_frames = 48;
      t.request_size = 32;
    } else {
      t.policy = kinds[r % 3];
      stream.kind = r % 2 == 0 ? PatternKind::kHotCold : PatternKind::kZipf;
      stream.pages = 48 + 16 * rng.Below(4);
      stream.accesses = 128;
      stream.write_fraction = r % 5 == 1 ? 0.2 : 0.0;
      t.min_frames = 8;
      if (r % 7 == 3) {
        t.departure_step = 1;
      }
    }
    t.pages = stream.pages;
    t.workload = workloads::Workload::Pattern(stream);
    spec.tenants.push_back(std::move(t));
  }
  return spec;
}

}  // namespace

void RunScenarioChurn(const RunConfig& config, SpanBuffer* spans, Report* report) {
  const scenario::SchedulerSpec spec = MakePopulation(config.seed);
  const uint32_t span_name = spans != nullptr ? spans->Name("scenario.run") : 0;
  scenario::SchedulerResult r;
  const int64_t t0 = NowNs();
  try {
    r = scenario::RunScheduledScenario(spec);
  } catch (const sim::CheckFailure& e) {
    report->Check(false, std::string("churn: audit violation: ") + e.what());
    report->outcome.Fail(1);
    return;
  }
  if (spans != nullptr) {
    spans->Add(span_name, kNoSpan, config.seed, t0, NowNs());
  }

  // Correctness: the audits ran clean (a violation throws, above) and every tenant retired,
  // by completing its stream or by its scheduled departure.
  const size_t retired = r.completed + r.departed;
  report->Check(r.tenants_total == kTenants && retired == kTenants,
                "churn: " + std::to_string(retired) + " of " + std::to_string(kTenants) +
                    " tenants retired (" + std::to_string(r.terminated) + " terminated, " +
                    std::to_string(r.torn_down) + " torn down)");
  report->Check(r.checker_kills == 0 && r.flight_recorder_dumps == 0,
                "churn: " + std::to_string(r.checker_kills) + " checker kills, " +
                    std::to_string(r.flight_recorder_dumps) + " flight-recorder dumps");
  report->Check(r.audits_run > 0, "churn: no audit ran");
  report->outcome.Ok(retired);
  report->outcome.Fail(kTenants - retired);
  report->Note("churn: " + std::to_string(kTenants) + " tenants over " +
               std::to_string(kWorkers) + " workers, " + FormatDouble(r.tenants_per_sec) +
               " tenants/s, " + std::to_string(r.audits_run) + " audits");

  if (spans == nullptr) {
    return;
  }
  int64_t requests = 0;
  int64_t rejected = 0;
  int64_t normal_frames = 0;
  int64_t forced_frames = 0;
  for (const scenario::TenantResult& t : r.tenants) {
    requests += t.requests_made;
    rejected += t.requests_rejected;
    normal_frames += t.frames_reclaimed_from;
    forced_frames += t.frames_force_reclaimed;
  }
  report->Set("scenario.tenants_per_s", r.tenants_per_sec);
  report->Set("scenario.slices_per_tenant",
              static_cast<double>(r.slices) / static_cast<double>(kTenants));
  report->Set("scenario.steals", static_cast<double>(r.steals));
  report->Set("scenario.denied", static_cast<double>(r.denied));
  report->Set("scenario.audits_run", static_cast<double>(r.audits_run));
  report->Set("hipec.frame_manager.request_reject_ratio",
              requests == 0 ? 0.0
                            : static_cast<double>(rejected) / static_cast<double>(requests));
  report->Set("hipec.frame_manager.normal_reclaim_frames", static_cast<double>(normal_frames));
  report->Set("hipec.frame_manager.forced_reclaim_frames", static_cast<double>(forced_frames));
}

}  // namespace perfbench
