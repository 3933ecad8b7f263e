// Workload-layer tests (workloads/workload_source.h, workloads/registry.h): the
// byte-identical compatibility contract between MakePatternSource and the pre-refactor
// scenario generation, Clone/Seek/fan-out semantics, registry equivalence with the direct
// generator calls the benches used to make, and trace-backed scenario tenants running
// deterministically end to end.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "scenario/scenario.h"
#include "sim/random.h"
#include "workloads/access_patterns.h"
#include "workloads/registry.h"
#include "workloads/trace_format.h"
#include "workloads/workload_source.h"

namespace hipec::workloads {
namespace {

std::vector<Access> Drain(WorkloadSource& source) {
  std::vector<Access> out;
  Access a;
  while (source.Next(&a)) {
    out.push_back(a);
  }
  return out;
}

// Reference implementation of the pre-refactor stream: the exact generator call the
// scenario engine made for each kind, plus the write-flag derivation from seed + 1. The
// adapter must reproduce this byte for byte — this test is what pins the golden scenario
// fingerprints in place.
std::vector<std::pair<uint64_t, bool>> LegacyStream(const SyntheticSpec& spec,
                                                    uint64_t seed) {
  std::vector<uint64_t> pages;
  switch (spec.kind) {
    case PatternKind::kSequential:
      pages = StridedScan(spec.pages, 1, spec.accesses);
      break;
    case PatternKind::kCyclic: {
      pages = CyclicScan(spec.pages, spec.cyclic_loops);
      size_t n = pages.size();
      pages.resize(spec.accesses);
      for (size_t i = n; i < pages.size(); ++i) {
        pages[i] = pages[i % std::max<size_t>(n, 1)];
      }
      break;
    }
    case PatternKind::kUniform:
      pages = UniformRandom(spec.pages, spec.accesses, seed);
      break;
    case PatternKind::kZipf:
      pages = ZipfTrace(spec.pages, spec.accesses, spec.zipf_theta, seed);
      break;
    case PatternKind::kStrided:
      pages = StridedScan(spec.pages, spec.stride, spec.accesses);
      break;
    case PatternKind::kHotCold:
      pages = HotColdTrace(spec.pages, spec.hot_pages, spec.hot_fraction, spec.accesses,
                           seed);
      break;
    case PatternKind::kBursty:
      pages = BurstyTrace(spec.pages, spec.burst_phase, spec.accesses, seed);
      break;
  }
  sim::Rng write_rng(seed + 1);
  std::vector<std::pair<uint64_t, bool>> out;
  out.reserve(pages.size());
  for (uint64_t page : pages) {
    out.emplace_back(page, write_rng.Chance(spec.write_fraction));
  }
  return out;
}

TEST(PatternCompat, EveryKindMatchesLegacyGenerationByteForByte) {
  const PatternKind kinds[] = {PatternKind::kSequential, PatternKind::kCyclic,
                               PatternKind::kUniform,    PatternKind::kZipf,
                               PatternKind::kStrided,    PatternKind::kHotCold,
                               PatternKind::kBursty};
  for (PatternKind kind : kinds) {
    for (uint64_t seed : {1ull, 42ull, 0x5CE11A0ull}) {
      SyntheticSpec spec;
      spec.kind = kind;
      spec.pages = 96;
      spec.accesses = 700;
      spec.write_fraction = 0.3;
      auto expected = LegacyStream(spec, seed);
      auto source = MakePatternSource(spec, seed);
      ASSERT_NE(source, nullptr);
      EXPECT_EQ(source->region_pages(), spec.pages);
      std::vector<Access> got = Drain(*source);
      ASSERT_EQ(got.size(), expected.size())
          << "kind " << static_cast<int>(kind) << " seed " << seed;
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].vpage, expected[i].first)
            << "kind " << static_cast<int>(kind) << " seed " << seed << " index " << i;
        ASSERT_EQ(got[i].is_write(), expected[i].second)
            << "kind " << static_cast<int>(kind) << " seed " << seed << " index " << i;
      }
    }
  }
}

TEST(PatternCompat, ScenarioMaterializeTraceRoutesThroughAdapter) {
  scenario::TenantSpec tenant;
  tenant.workload = Workload::Pattern({.kind = PatternKind::kZipf,
                                       .pages = 200,
                                       .accesses = 900,
                                       .write_fraction = 0.25,
                                       .zipf_theta = 0.7});
  auto flat = scenario::MaterializeTrace(tenant, 0x5CE11A0, 2);
  auto source = scenario::MaterializeSource(tenant, 0x5CE11A0, 2);
  ASSERT_NE(source, nullptr);
  std::vector<Access> pulled = Drain(*source);
  ASSERT_EQ(flat.size(), pulled.size());
  for (size_t i = 0; i < flat.size(); ++i) {
    EXPECT_EQ(flat[i].first, pulled[i].vpage);
    EXPECT_EQ(flat[i].second, pulled[i].is_write());
  }
}

TEST(PatternCompat, TenantOrdinalsGetIndependentStreams) {
  scenario::TenantSpec tenant;
  tenant.workload =
      Workload::Pattern({.kind = PatternKind::kUniform, .pages = 128, .accesses = 400});
  auto a = scenario::MaterializeTrace(tenant, 7, 0);
  auto b = scenario::MaterializeTrace(tenant, 7, 1);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_NE(a, b);  // different ordinal → different derived seed → different stream
  // Same (seed, ordinal) is reproducible.
  EXPECT_EQ(a, scenario::MaterializeTrace(tenant, 7, 0));
}

TEST(SourceSemantics, SeekClampsAndResumes) {
  SyntheticSpec spec;
  spec.kind = PatternKind::kSequential;
  spec.pages = 10;
  spec.accesses = 10;
  auto source = MakePatternSource(spec, 1);
  Access a;
  ASSERT_TRUE(source->Next(&a));
  EXPECT_EQ(a.vpage, 0u);
  source->Seek(7);
  EXPECT_EQ(source->pos(), 7u);
  ASSERT_TRUE(source->Next(&a));
  EXPECT_EQ(a.vpage, 7u);
  source->Seek(999);  // clamps to size
  EXPECT_EQ(source->pos(), 10u);
  EXPECT_FALSE(source->Next(&a));
  source->Reset();
  EXPECT_EQ(source->pos(), 0u);
  ASSERT_TRUE(source->Next(&a));
  EXPECT_EQ(a.vpage, 0u);
}

TEST(SourceSemantics, WorkloadSharedFansOutWithoutCopying) {
  auto records = std::make_shared<std::vector<Access>>();
  for (uint64_t i = 0; i < 50; ++i) {
    Access a;
    a.vpage = i % 10;
    records->push_back(a);
  }
  auto base = std::make_shared<MaterializedSource>("shared", 10, records);
  Workload w = Workload::Shared(base);
  ASSERT_TRUE(w.set());
  auto one = w.Instantiate(1);
  auto two = w.Instantiate(2);  // seed is ignored for shared sources
  auto* m1 = dynamic_cast<MaterializedSource*>(one.get());
  auto* m2 = dynamic_cast<MaterializedSource*>(two.get());
  ASSERT_NE(m1, nullptr);
  ASSERT_NE(m2, nullptr);
  EXPECT_EQ(m1->records(), records.get());
  EXPECT_EQ(m2->records(), records.get());
  EXPECT_EQ(Drain(*one), Drain(*two));
}

TEST(SourceSemantics, WorkloadPatternSeedsAtInstantiate) {
  SyntheticSpec spec;
  spec.kind = PatternKind::kUniform;
  spec.pages = 64;
  spec.accesses = 200;
  Workload w = Workload::Pattern(spec);
  auto a = Drain(*w.Instantiate(3));
  auto b = Drain(*w.Instantiate(4));
  EXPECT_NE(a, b);
  EXPECT_EQ(a, Drain(*w.Instantiate(3)));
  EXPECT_FALSE(Workload().set());
  EXPECT_EQ(Workload().Instantiate(1), nullptr);
}

// The registry must serve exactly the streams the benches used to build inline — the
// leaderboard's workload names keep meaning the same reference strings.
TEST(Registry, TournamentGridMatchesDirectGeneratorCalls) {
  auto grid = TournamentWorkloads();
  ASSERT_EQ(grid.size(), 5u);
  const struct {
    const char* name;
    std::vector<uint64_t> pages;
  } expected[] = {
      {"hot_cold", HotColdTrace(512, 64, 0.9, 8000, 11)},
      {"looping", CyclicScan(288, 24)},
      {"zipf", ZipfTrace(512, 8000, 0.9, 17)},
      {"uniform", UniformRandom(512, 8000, 23)},
      {"scan_mix", ScanMixTrace(128, 0.9, 31, 2400, 300, 2400)},
  };
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(grid[i].name, expected[i].name);
    EXPECT_EQ(grid[i].region_pages, 512u);
    EXPECT_FALSE(grid[i].trace);
    auto clone = grid[i].source->Clone();
    std::vector<Access> got = Drain(*clone);
    ASSERT_EQ(got.size(), expected[i].pages.size()) << grid[i].name;
    for (size_t j = 0; j < got.size(); ++j) {
      ASSERT_EQ(got[j].vpage, expected[i].pages[j]) << grid[i].name << " index " << j;
      ASSERT_FALSE(got[j].is_write());
    }
  }
}

TEST(Registry, ComparisonColumnsMatchDirectGeneratorCalls) {
  auto cols = ComparisonWorkloads();
  ASSERT_EQ(cols.size(), 4u);
  EXPECT_EQ(cols[0].name, "cyclic");
  EXPECT_EQ(cols[3].name, "mixed");
  auto mixed = ScanMixTrace(96, 0.9, 31, 1200, 150, 1200);
  auto clone = cols[3].source->Clone();
  std::vector<Access> got = Drain(*clone);
  ASSERT_EQ(got.size(), mixed.size());
  for (size_t j = 0; j < got.size(); ++j) {
    ASSERT_EQ(got[j].vpage, mixed[j]);
  }
}

TEST(Registry, LoadTraceDirSkipsMalformedAndSortsByFilename) {
  std::string dir = testing::TempDir() + "/workload_source_test_traces";
  std::filesystem::create_directories(dir);
  TraceData t;
  t.name = "good";
  t.region_pages = 4;
  Access a;
  a.vpage = 1;
  t.records.push_back(a);
  std::string error;
  ASSERT_TRUE(WriteTraceFile(dir + "/b_good.hpt", t, &error)) << error;
  {
    std::ofstream bad(dir + "/a_bad.hpt", std::ios::binary);
    bad << "this is not a trace";
  }
  std::string load_error;
  auto loaded = LoadTraceDir(dir, &load_error);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].name, "good");
  EXPECT_TRUE(loaded[0].trace);
  EXPECT_EQ(loaded[0].region_pages, 4u);
  EXPECT_FALSE(load_error.empty());  // the malformed file is reported, not fatal
  std::filesystem::remove_all(dir);
}

// A trace-backed tenant runs through the full scenario engine deterministically: the
// region widens to the trace's region_pages, the tenant completes, and two runs produce
// byte-identical fingerprints.
TEST(ScenarioReplay, TraceBackedTenantIsDeterministic) {
  auto records = std::make_shared<std::vector<Access>>();
  sim::Rng rng(99);
  for (int i = 0; i < 600; ++i) {
    Access a;
    a.vpage = rng.Below(300);
    a.op = rng.Chance(0.2) ? AccessOp::kWrite : AccessOp::kRead;
    records->push_back(a);
  }
  auto source = std::make_shared<MaterializedSource>("replay-trace", 300, records);

  scenario::ScenarioSpec spec;
  spec.name = "trace-replay";
  spec.steps = 16;
  spec.slice_accesses = 64;
  scenario::TenantSpec tenant;
  tenant.name = "replayer";
  tenant.policy = scenario::PolicyKind::kLru;
  tenant.workload = Workload::Shared(source);
  tenant.pages = 8;  // deliberately smaller than the trace region; engine must widen
  tenant.min_frames = 32;
  spec.tenants.push_back(tenant);

  scenario::ScenarioResult first = scenario::RunScenario(spec);
  scenario::ScenarioResult second = scenario::RunScenario(spec);
  ASSERT_EQ(first.tenants.size(), 1u);
  EXPECT_TRUE(first.tenants[0].admitted);
  EXPECT_TRUE(first.tenants[0].completed);
  EXPECT_EQ(first.tenants[0].accesses_done, records->size());
  EXPECT_GT(first.tenants[0].faults_handled, 0);
  EXPECT_EQ(first.Fingerprint(), second.Fingerprint());
}

}  // namespace
}  // namespace hipec::workloads
