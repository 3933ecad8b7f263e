// Tests for the observability subsystem (src/obs/): histogram bucket boundaries and
// quantile semantics, probe gating, the minimal JSON parser, the Chrome trace exporter's
// schema and track routing, the flight recorder's dump triggers (invariant violation,
// checker kill), and the hipec-report builder — including the golden scenario test that a
// fixed-seed run exports schema-valid, Perfetto-loadable trace JSON.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hipec/engine.h"
#include "mach/kernel.h"
#include "obs/chrome_trace.h"
#include "obs/flight_recorder.h"
#include "obs/histogram.h"
#include "obs/json.h"
#include "obs/probe.h"
#include "obs/report.h"
#include "policies/policies.h"
#include "scenario/canned.h"
#include "scenario/invariants.h"
#include "scenario/scenario.h"
#include "sim/check.h"
#include "sim/trace.h"

namespace hipec::obs {
namespace {

using mach::kPageSize;

// ------------------------------------------------------------------------------- histogram

TEST(HistogramTest, ZeroSamples) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Min(), 0u);
  EXPECT_EQ(h.Max(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Quantile(0.5), 0u);
  EXPECT_EQ(h.Quantile(1.0), 0u);
}

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 holds exactly 0; bucket i (i >= 1) holds [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::BucketOf(0), 0u);
  EXPECT_EQ(Histogram::BucketOf(1), 1u);
  EXPECT_EQ(Histogram::BucketOf(2), 2u);
  EXPECT_EQ(Histogram::BucketOf(3), 2u);
  EXPECT_EQ(Histogram::BucketOf(4), 3u);
  EXPECT_EQ(Histogram::BucketOf(7), 3u);
  EXPECT_EQ(Histogram::BucketOf(8), 4u);
  EXPECT_EQ(Histogram::BucketOf((uint64_t{1} << 62) - 1), 62u);
  // Everything at or above 2^62 lands in the overflow bucket.
  EXPECT_EQ(Histogram::BucketOf(uint64_t{1} << 62), Histogram::kOverflowBucket);
  EXPECT_EQ(Histogram::BucketOf(~uint64_t{0}), Histogram::kOverflowBucket);

  // BucketLo(1) is 0 by design (interpolation floor for the [1,2) bucket), so the
  // lo==bucket round-trip only holds from bucket 2 up.
  EXPECT_EQ(Histogram::BucketOf(Histogram::BucketHi(1)), 1u);
  for (size_t i = 2; i + 1 < Histogram::kBuckets; ++i) {
    EXPECT_EQ(Histogram::BucketOf(Histogram::BucketLo(i)), i) << "bucket " << i;
    EXPECT_EQ(Histogram::BucketOf(Histogram::BucketHi(i)), i) << "bucket " << i;
  }
}

TEST(HistogramTest, SingleValueQuantilesAreExact) {
  Histogram h;
  for (int i = 0; i < 100; ++i) {
    h.Record(340);
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.Min(), 340u);
  EXPECT_EQ(h.Max(), 340u);
  EXPECT_DOUBLE_EQ(h.Mean(), 340.0);
  // min == max clamps the in-bucket interpolation to the exact value.
  EXPECT_EQ(h.Quantile(0.5), 340u);
  EXPECT_EQ(h.Quantile(0.99), 340u);
  EXPECT_EQ(h.Quantile(1.0), 340u);
}

TEST(HistogramTest, QuantileRankWalksBuckets) {
  Histogram h;
  for (int i = 0; i < 90; ++i) {
    h.Record(1);  // bucket 1
  }
  for (int i = 0; i < 10; ++i) {
    h.Record(1024);  // bucket 11
  }
  EXPECT_EQ(h.Quantile(0.5), 1u);   // rank 50 falls in the low bucket, clamped to min
  EXPECT_EQ(h.Quantile(0.9), 1u);   // rank 90 is still the last low-bucket sample
  // rank 91+ lands in the 1024 bucket; interpolation clamps to max.
  EXPECT_GE(h.Quantile(0.95), 512u);
  EXPECT_LE(h.Quantile(0.95), 1024u);
  EXPECT_EQ(h.Quantile(1.0), 1024u);
}

TEST(HistogramTest, OverflowBucketReportsExactMax) {
  Histogram h;
  const int64_t huge = (int64_t{1} << 62) + 12345;
  h.Record(huge);
  h.Record(huge - 7);
  EXPECT_EQ(h.BucketCount(Histogram::kOverflowBucket), 2u);
  // Quantiles that land in the overflow bucket return the running max, not an interpolation
  // against UINT64_MAX.
  EXPECT_EQ(h.Quantile(0.5), static_cast<uint64_t>(huge));
  EXPECT_EQ(h.Quantile(1.0), static_cast<uint64_t>(huge));
}

TEST(HistogramTest, NegativeSamplesClampToZero) {
  Histogram h;
  h.Record(-42);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.Min(), 0u);
  EXPECT_EQ(h.Max(), 0u);
  EXPECT_EQ(h.BucketCount(0), 1u);
}

TEST(HistogramTest, MergeCombinesCountsAndExtremes) {
  Histogram a;
  Histogram b;
  a.Record(4);
  a.Record(5);
  b.Record(1000);
  a.MergeFrom(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.Min(), 4u);
  EXPECT_EQ(a.Max(), 1000u);
  EXPECT_EQ(a.sum(), 1009u);
}

TEST(HistogramTest, JsonOutputParses) {
  Histogram h;
  h.Record(3);
  h.Record(300);
  std::string out;
  h.AppendJson(&out);
  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(out, &v, &error)) << error << " in " << out;
  EXPECT_EQ(v.IntOr("count", -1), 2);
  EXPECT_EQ(v.IntOr("min", -1), 3);
  EXPECT_EQ(v.IntOr("max", -1), 300);
  const JsonValue* buckets = v.Get("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_TRUE(buckets->IsArray());
  EXPECT_EQ(buckets->array.size(), 2u);  // two non-empty buckets
}

// ---------------------------------------------------------------------------------- probes

TEST(ProbeTest, RegistryInternsIdempotently) {
  ProbeId a = InternProbe("test.obs_probe_alpha");
  ProbeId b = InternProbe("test.obs_probe_alpha");
  ProbeId c = InternProbe("test.obs_probe_beta");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(ProbeNames().NameOf(a), "test.obs_probe_alpha");
  EXPECT_EQ(ProbeNames().Find("test.obs_probe_alpha"), a);
  EXPECT_EQ(ProbeNames().Find("test.obs_probe_never_interned"), sim::NameTable::kInvalid);
}

TEST(ProbeTest, DisabledRecordIsNoOp) {
  const ProbeId id = InternProbe("test.obs_probe_disabled");
  ProbeSet set;
  ASSERT_FALSE(ProbesEnabled());  // runtime default is off
  set.Record(id, 99);
  EXPECT_EQ(set.Find(id), nullptr);
}

TEST(ProbeTest, ScopedEnableRecordsAndRestores) {
  const ProbeId id = InternProbe("test.obs_probe_scoped");
  ProbeSet set;
  {
    ScopedProbes scoped(true);
    EXPECT_TRUE(ProbesEnabled());
    set.Record(id, 10);
    set.Record(id, 20);
  }
  EXPECT_FALSE(ProbesEnabled());
  const Histogram* h = set.Find(id);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 2u);
  EXPECT_EQ(h->Max(), 20u);
  auto all = set.all();
  ASSERT_EQ(all.count("test.obs_probe_scoped"), 1u);
}

// ----------------------------------------------------------------------------- JSON parser

TEST(JsonTest, ParsesNestedDocument) {
  const char* text =
      R"({"s":"a\"b\\cA","n":-2.5e2,"t":true,"f":false,"z":null,)"
      R"("arr":[1,2,[3]],"obj":{"k":"v"}})";
  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(text, &v, &error)) << error;
  EXPECT_EQ(v.StringOr("s", ""), "a\"b\\cA");
  EXPECT_DOUBLE_EQ(v.NumberOr("n", 0), -250.0);
  EXPECT_TRUE(v.Get("t")->bool_value);
  EXPECT_FALSE(v.Get("f")->bool_value);
  EXPECT_TRUE(v.Get("z")->IsNull());
  ASSERT_TRUE(v.Get("arr")->IsArray());
  EXPECT_EQ(v.Get("arr")->array.size(), 3u);
  EXPECT_EQ(v.Get("obj")->StringOr("k", ""), "v");
}

TEST(JsonTest, RejectsMalformedInput) {
  JsonValue v;
  std::string error;
  EXPECT_FALSE(ParseJson("{\"a\":1} trailing", &v, &error));
  EXPECT_FALSE(ParseJson("{\"a\":}", &v, &error));
  EXPECT_FALSE(ParseJson("{'a':1}", &v, &error));
  EXPECT_FALSE(ParseJson("", &v, &error));
  EXPECT_FALSE(ParseJson("[1,2,", &v, &error));
}

TEST(JsonTest, EscapingRoundTrips) {
  std::string out = "\"";
  AppendJsonEscaped(&out, "line\nwith \"quotes\" and \\slashes\\ and\ttabs");
  out += "\"";
  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(out, &v, &error)) << error << " in " << out;
  EXPECT_EQ(v.string, "line\nwith \"quotes\" and \\slashes\\ and\ttabs");
}

// ---------------------------------------------------------------------------- chrome trace

sim::TraceEvent Ev(sim::Nanos t, sim::TraceCategory cat, uint16_t code, uint64_t a,
                   uint64_t b) {
  return sim::TraceEvent{t, cat, code, a, b};
}

TEST(ChromeTraceTest, EventNamesCoverNewCodes) {
  using sim::TraceCategory;
  EXPECT_EQ(ChromeTraceEventName(Ev(0, TraceCategory::kReclaim, 0, 1, 1)), "reclaim");
  EXPECT_EQ(ChromeTraceEventName(Ev(0, TraceCategory::kReclaim, 1, 1, 1)), "forced-reclaim");
  EXPECT_EQ(ChromeTraceEventName(Ev(0, TraceCategory::kChecker, 2, 1, 0)), "checker-kill");
  EXPECT_EQ(ChromeTraceEventName(Ev(0, TraceCategory::kManager, 1, 1, 4)), "request-reject");
  EXPECT_EQ(ChromeTraceEventName(Ev(0, TraceCategory::kManager, 3, 1, 9)), "flush-exchange");
  EXPECT_EQ(ChromeTraceEventName(Ev(0, TraceCategory::kManager, 4, 1, 9)), "flush-sync");
  EXPECT_EQ(ChromeTraceEventName(Ev(0, TraceCategory::kManager, 5, 1, 0)), "flush-clean");
}

TEST(ChromeTraceTest, SchemaAndTrackRouting) {
  using sim::TraceCategory;
  std::vector<sim::TraceEvent> events = {
      Ev(1000, TraceCategory::kFault, 0, /*task=*/7, 0x1000),
      Ev(2500, TraceCategory::kManager, 1, /*container=*/3, 16),
      Ev(3000, TraceCategory::kChecker, 0, 250000, 2),      // wakeup -> kernel track
      Ev(4000, TraceCategory::kChecker, 2, /*container=*/3, 5),  // kill -> tenant track
  };
  std::vector<ChromeTraceTrack> tracks = {{7, 3, "tenant-a"}};
  std::string json = ExportChromeTrace(events, tracks, "unit-test");

  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(json, &v, &error)) << error;
  EXPECT_EQ(v.StringOr("displayTimeUnit", ""), "ms");
  const JsonValue* trace_events = v.Get("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  ASSERT_TRUE(trace_events->IsArray());

  int meta = 0;
  int instants = 0;
  bool saw_tenant_track = false;
  for (const JsonValue& e : trace_events->array) {
    ASSERT_TRUE(e.IsObject());
    std::string ph = e.StringOr("ph", "");
    ASSERT_TRUE(ph == "M" || ph == "i") << "unexpected phase " << ph;
    EXPECT_EQ(e.IntOr("pid", -1), 1);
    if (ph == "M") {
      ++meta;
      if (e.StringOr("name", "") == "thread_name" &&
          e.Get("args")->StringOr("name", "") == "tenant-a") {
        saw_tenant_track = true;
        EXPECT_EQ(e.IntOr("tid", -1), 1);
      }
      continue;
    }
    ++instants;
    EXPECT_EQ(e.StringOr("s", ""), "t");
    EXPECT_NE(e.Get("ts"), nullptr);
    EXPECT_TRUE(e.Get("ts")->IsNumber());
    ASSERT_NE(e.Get("args"), nullptr);
    std::string name = e.StringOr("name", "");
    if (name == "fault" || name == "request-reject" || name == "checker-kill") {
      EXPECT_EQ(e.IntOr("tid", -1), 1) << name << " should land on the tenant track";
    } else {
      EXPECT_EQ(e.IntOr("tid", -1), 0) << name << " should land on the kernel track";
    }
  }
  EXPECT_EQ(meta, 3);  // process_name + kernel + tenant-a
  EXPECT_EQ(instants, 4);
  EXPECT_TRUE(saw_tenant_track);
}

// -------------------------------------------------------------------------- flight recorder

TEST(FlightRecorderTest, SnapshotWindowsAndAccounting) {
  sim::Tracer tracer(/*capacity=*/8);
  tracer.Enable();
  for (int i = 0; i < 20; ++i) {
    tracer.Record(i * 100, sim::TraceCategory::kFault, 0, 1, static_cast<uint64_t>(i));
  }
  FlightRecorder recorder(&tracer, /*last_events=*/4);
  ProbeSet probes;
  {
    ScopedProbes scoped(true);
    probes.Record(InternProbe("test.fr_probe"), 7);
  }
  recorder.AddProbeSource("unit", &probes);

  std::string snapshot = recorder.Snapshot("unit-test-reason");
  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(snapshot, &v, &error)) << error;
  const JsonValue* fr = v.Get("flight_recorder");
  ASSERT_NE(fr, nullptr);
  EXPECT_EQ(fr->StringOr("reason", ""), "unit-test-reason");
  EXPECT_EQ(fr->IntOr("trace_total_recorded", -1), 20);
  EXPECT_EQ(fr->IntOr("trace_dropped", -1), 12);  // ring capacity 8
  const JsonValue* events = fr->Get("events");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->array.size(), 4u);  // window trims the surviving 8 to the last 4
  // Newest-last: the final event is the last one recorded.
  EXPECT_EQ(events->array.back().IntOr("b", -1), 19);
  const JsonValue* probes_json = fr->Get("probes");
  ASSERT_NE(probes_json, nullptr);
  ASSERT_NE(probes_json->Get("unit"), nullptr);
  EXPECT_NE(probes_json->Get("unit")->Get("test.fr_probe"), nullptr);
}

// Mirrors scenario_test's AuditorDetectionTest corruption pattern, but asserts the auditor
// dumps through the attached flight recorder before throwing.
TEST(FlightRecorderTest, DumpsOnInvariantViolation) {
  mach::KernelParams params;
  params.total_frames = 1024;
  params.kernel_reserved_frames = 128;
  params.hipec_build = true;
  mach::Kernel kernel(params);
  kernel.tracer().Enable();
  core::HipecEngine engine(&kernel);
  mach::Task* task = kernel.CreateTask("app");
  core::HipecOptions options;
  options.min_frames = 32;
  options.free_target = 4;
  options.inactive_target = 8;
  core::HipecRegion region = engine.VmAllocateHipec(
      task, 64 * kPageSize, policies::FifoSecondChancePolicy(), options);
  ASSERT_TRUE(region.ok) << region.error;
  ASSERT_TRUE(kernel.TouchRange(task, region.addr, 16 * kPageSize, true));

  FlightRecorder recorder(&kernel.tracer());
  std::vector<std::string> dumps;
  recorder.SetSink([&](const std::string& json) { dumps.push_back(json); });

  scenario::InvariantAuditor auditor(&engine);
  auditor.SetFlightRecorder(&recorder);
  auditor.AuditNow("clean");
  EXPECT_TRUE(dumps.empty());

  ++region.container->allocated_frames;  // claims a frame it does not hold
  EXPECT_THROW(auditor.AuditNow("corrupted"), sim::CheckFailure);
  --region.container->allocated_frames;

  ASSERT_EQ(dumps.size(), 1u);
  EXPECT_EQ(recorder.dumps(), 1);
  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(dumps[0], &v, &error)) << error;
  const JsonValue* fr = v.Get("flight_recorder");
  ASSERT_NE(fr, nullptr);
  EXPECT_NE(fr->StringOr("reason", "").find("invariant-violation"), std::string::npos);
  EXPECT_GT(fr->Get("events")->array.size(), 0u);
}

TEST(FlightRecorderTest, ScenarioDumpsOnCheckerKill) {
  scenario::ScenarioSpec spec = scenario::CheckerKillStorm();
  std::vector<std::string> dumps;
  spec.flight_recorder_sink = [&](const std::string& json) { dumps.push_back(json); };
  scenario::ScenarioResult result = scenario::RunScenario(spec);
  ASSERT_GT(result.checker_kills, 0);
  EXPECT_EQ(static_cast<int64_t>(dumps.size()), result.checker_kills);
  EXPECT_EQ(result.flight_recorder_dumps, result.checker_kills);
  for (const std::string& dump : dumps) {
    JsonValue v;
    std::string error;
    ASSERT_TRUE(ParseJson(dump, &v, &error)) << error;
    EXPECT_NE(v.Get("flight_recorder")->StringOr("reason", "").find("checker-kill"),
              std::string::npos);
  }
}

// ---------------------------------------------------------------------------------- report

TEST(ReportTest, SelfCheckPasses) {
  std::string diagnostics;
  EXPECT_TRUE(SelfCheck(&diagnostics)) << diagnostics;
}

TEST(ReportTest, WarnsOnTraceDrops) {
  std::istringstream in(
      "scenario: demo (human line)\n"
      R"({"bench":"scenario","scenario":"demo","faults":10,"requests":2,)"
      R"("requests_rejected":1,"forced_reclaims":3,"flush_exchange":0,"flush_sync":0,)"
      R"("checker_kills":0,"audits":5,"trace_dropped":17,"virtual_sec":1.0,"host_sec":0.1})"
      "\n");
  std::vector<JsonValue> records;
  size_t ignored = 0;
  std::vector<ReportWarning> parse_warnings;
  ParseJsonLines(in, &records, &ignored, &parse_warnings);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(ignored, 1u);
  EXPECT_TRUE(parse_warnings.empty());

  Report report = BuildReport(records);
  ASSERT_EQ(report.scenarios.size(), 1u);
  EXPECT_EQ(report.scenarios[0].trace_dropped, 17);
  EXPECT_EQ(report.metrics.at("scenario.demo.forced_reclaims"), 3.0);
  EXPECT_EQ(report.metrics.at("scenario.demo.trace_dropped"), 17.0);
  ASSERT_EQ(report.warnings.size(), 1u);
  EXPECT_NE(report.warnings[0].message.find("dropped 17"), std::string::npos);

  // The machine report round-trips and carries the warning.
  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(RenderReportJson(report), &v, &error)) << error;
  EXPECT_EQ(v.IntOr("report_version", -1), 1);
  EXPECT_EQ(v.Get("warnings")->array.size(), 1u);
}

// ------------------------------------------------------------------- golden Perfetto export

// The acceptance scenario: a fixed-seed HogVsMany run must export Chrome trace-event JSON
// that a checker validates structurally (schema, metadata, tenant tracks, event phases) —
// not string equality, since ring drops make exact event counts capacity-dependent.
TEST(GoldenTraceTest, HogVsManyExportsSchemaValidPerfettoJson) {
  scenario::ScenarioSpec spec = scenario::HogVsMany();
  const std::string path = ::testing::TempDir() + "/hog_vs_many.trace.json";
  spec.chrome_trace_path = path;
  scenario::ScenarioResult result = scenario::RunScenario(spec);

  // The contention story happened at all (otherwise the trace proves nothing).
  EXPECT_GT(result.Decision("request-reject"), 0);
  int64_t forced = 0;
  for (const auto& t : result.tenants) {
    forced += t.frames_force_reclaimed;
  }
  EXPECT_GT(forced, 0);

  std::ifstream file(path);
  ASSERT_TRUE(file.good()) << "trace file not written: " << path;
  std::stringstream buffer;
  buffer << file.rdbuf();

  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(buffer.str(), &v, &error)) << error;
  EXPECT_EQ(v.StringOr("displayTimeUnit", ""), "ms");
  const JsonValue* events = v.Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->IsArray());
  ASSERT_GT(events->array.size(), 10u);

  // Metadata: the process is named after the scenario and every tenant has a named track.
  std::vector<std::string> thread_names;
  bool process_named = false;
  for (const JsonValue& e : events->array) {
    if (e.StringOr("ph", "") == "M") {
      if (e.StringOr("name", "") == "process_name") {
        process_named = e.Get("args")->StringOr("name", "") == "hog_vs_many";
      } else if (e.StringOr("name", "") == "thread_name") {
        thread_names.push_back(e.Get("args")->StringOr("name", ""));
      }
    } else {
      // Every non-metadata event is a well-formed thread-scoped instant.
      EXPECT_EQ(e.StringOr("ph", ""), "i");
      EXPECT_EQ(e.StringOr("s", ""), "t");
      EXPECT_TRUE(e.Get("ts") != nullptr && e.Get("ts")->IsNumber());
      EXPECT_TRUE(e.Get("tid") != nullptr && e.Get("tid")->IsNumber());
      EXPECT_NE(e.Get("args"), nullptr);
    }
  }
  EXPECT_TRUE(process_named);
  ASSERT_FALSE(thread_names.empty());
  EXPECT_EQ(thread_names.front(), "kernel");
  EXPECT_NE(std::find(thread_names.begin(), thread_names.end(), "hog"), thread_names.end());
  // One track per tenant and background task, plus the kernel track.
  EXPECT_EQ(thread_names.size(), 1 + result.tenants.size() + result.background.size());

  // Determinism: the same spec reproduces the same fingerprint (the exported trace is a view
  // of the same events), and the drop accounting is surfaced for the report stage.
  scenario::ScenarioResult again = scenario::RunScenario(scenario::HogVsMany());
  EXPECT_EQ(result.Fingerprint(), again.Fingerprint());
  EXPECT_EQ(result.trace_dropped, again.trace_dropped);
}

}  // namespace
}  // namespace hipec::obs
