// The benchmark's own tests: the percentile rule, span self time, and failure accounting.
// run.py runs this before every benchmark run; any failed expectation exits 1.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"
#include "spans.h"

namespace {

using namespace perfbench;  // NOLINT: test code

int g_failures = 0;

void Expect(bool condition, const std::string& what) {
  if (!condition) {
    ++g_failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void PercentileReportsHighestWithTenBeyond() {
  LogHistogram h;
  for (int v = 1; v <= 100; ++v) {
    h.Record(v);
  }
  // p99 of 100 samples has only one sample beyond it: the rule falls back to p90.
  Quantile p99 = h.At(0.99);
  Expect(p99.ok && p99.n == 100, "p99 over 100 samples is reportable with its count");
  Expect(Near(p99.q, 0.90), "p99 over 100 samples falls back to p90");
  Expect(Near(p99.value, 90.0), "p90 of 1..100 is 90");
  Expect(Near(h.At(0.50).value, 50.0) && Near(h.At(0.50).q, 0.50), "p50 of 1..100 is 50");

  LogHistogram big;
  for (int v = 1; v <= 2000; ++v) {
    big.Record(v);
  }
  Quantile q = big.At(0.99);
  Expect(Near(q.q, 0.99) && q.n == 2000, "p99 over 2000 samples is p99 itself");
  Expect(std::fabs(q.value - 1980.0) < 2.0, "p99 of 1..2000 is within a bucket of 1980");

  LogHistogram few;
  for (int v = 0; v < 10; ++v) {
    few.Record(v);
  }
  Quantile none = few.At(0.50);
  Expect(!none.ok && none.n == 10, "ten samples leave no percentile with ten beyond it");
  few.Record(10);
  Quantile lowest = few.At(0.99);
  Expect(lowest.ok && Near(lowest.q, 1.0 / 11.0) && Near(lowest.value, 0.0),
         "eleven samples report their lowest rank");

  Expect(ReportableRank(0.5, 1000) == 500 && ReportableRank(0.999, 1000) == 990,
         "ReportableRank clamps to ten beyond");

  // Interpolation: many equal samples spread over their unit bucket, so a percentile of a
  // tight distribution still carries digits below the bucket grid.
  LogHistogram same;
  for (int i = 0; i < 1000; ++i) {
    same.Record(7);
  }
  Quantile mid = same.At(0.50);
  Expect(mid.value > 6.5 && mid.value < 7.5, "interpolated percentile stays in its bucket");
}

void SelfTimeSubtractsChildrenOnce() {
  // parent [0,100) with children [10,30), [20,50) (overlapping), [60,70) and [90,120)
  // (sticking out); the first child has its own child [15,20).
  std::vector<Span> spans = {
      {0, kNoSpan, 1, 0, 100}, {1, 0, 1, 10, 30}, {1, 0, 1, 20, 50},
      {1, 0, 1, 60, 70},       {1, 0, 1, 90, 120}, {2, 1, 1, 15, 20},
  };
  std::vector<int64_t> self = SelfTimes(spans);
  Expect(self[0] == 40, "parent self time counts overlapping and clipped children once");
  Expect(self[1] == 15, "nested child self time excludes its own child");
  Expect(self[2] == 30 && self[3] == 10 && self[5] == 5, "leaf self time is its duration");

  SpanBuffer buffer(2);
  const uint32_t name = buffer.Name("x");
  Expect(buffer.Name("x") == name, "span names intern once");
  const uint32_t a = buffer.Begin(name, kNoSpan, 7, 100);
  buffer.Add(name, a, 7, 110, 120);
  Expect(buffer.Add(name, a, 7, 120, 130) == kNoSpan && buffer.dropped() == 1,
         "a full buffer drops and counts");
  buffer.End(a, 200);
  std::vector<Span> recorded = buffer.spans();
  Expect(recorded.size() == 2 && recorded[0].end_ns == 200 && recorded[1].parent == a &&
             recorded[1].request == 7,
         "Begin/End and Add record parent and request id");
}

void FailedFractionCountsRefusals() {
  Outcome empty;
  Expect(Near(empty.FailedFraction(), 1.0), "nothing attempted reads as all failed");
  Outcome o;
  o.Ok(5);
  o.Fail(2);
  Expect(o.attempted == 7 && o.failed == 2, "a failure counts as attempted");
  Expect(Near(o.FailedFraction(), 2.0 / 7.0), "failed fraction is failed over attempted");
}

void MedianAndQuietQuartileOfWindows() {
  Expect(Near(Median({3, 1, 2}), 2.0) && Near(Median({4, 1, 3, 2}), 2.5) &&
             Near(Median({}), 0.0),
         "median of odd, even and empty lists");
  // Five windows, two of them slowed 1.75x: the latency's quiet quartile ignores them.
  const std::vector<double> latency = {100, 175, 101, 175, 102};
  Expect(Near(QuietQuartile(latency, false), 101.0), "latency quiet quartile is the 25th");
  const std::vector<double> rate = {10, 20, 30, 40, 50};
  Expect(Near(QuietQuartile(rate, true), 40.0) && Near(QuietQuartile({1, 2}, false), 1.25),
         "throughput quiet quartile is the 75th, interpolated");
}

}  // namespace

int main() {
  PercentileReportsHighestWithTenBeyond();
  SelfTimeSubtractsChildrenOnce();
  FailedFractionCountsRefusals();
  MedianAndQuietQuartileOfWindows();
  if (g_failures == 0) {
    std::fprintf(stderr, "perfbench selftest: all passed\n");
  }
  return g_failures == 0 ? 0 : 1;
}
