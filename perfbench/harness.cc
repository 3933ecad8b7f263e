#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>

namespace perfbench {

namespace {

constexpr int kMaxLog2 = 50;  // values at or above 2^51 land in the last bucket

volatile int64_t g_probe_sink = 0;  // keeps HostSlowdown's work observable

}  // namespace

uint64_t ReportableRank(double q, uint64_t n) {
  if (n <= 10) {
    return 0;
  }
  double exact = std::ceil(q * static_cast<double>(n) - 1e-9);
  uint64_t rank = exact < 1.0 ? 1 : static_cast<uint64_t>(exact);
  return std::min(rank, n - 10);
}

LogHistogram::LogHistogram()
    : buckets_(static_cast<size_t>(kLinear) + (kMaxLog2 - 9) * (size_t{1} << kSubBits), 0) {}

size_t LogHistogram::BucketOf(int64_t value) {
  if (value < kLinear) {
    return value < 0 ? 0 : static_cast<size_t>(value);
  }
  int log2 = std::bit_width(static_cast<uint64_t>(value)) - 1;  // >= 10
  if (log2 > kMaxLog2) {
    return static_cast<size_t>(kLinear) + (kMaxLog2 - 9) * (size_t{1} << kSubBits) - 1;
  }
  int shift = log2 - kSubBits;
  size_t sub = static_cast<size_t>(value >> shift) - (size_t{1} << kSubBits);
  return static_cast<size_t>(kLinear) + static_cast<size_t>(log2 - 10) * (size_t{1} << kSubBits) +
         sub;
}

int64_t LogHistogram::BucketLow(size_t bucket) {
  if (bucket < static_cast<size_t>(kLinear)) {
    return static_cast<int64_t>(bucket);
  }
  size_t rel = bucket - static_cast<size_t>(kLinear);
  int log2 = 10 + static_cast<int>(rel >> kSubBits);
  int64_t sub = static_cast<int64_t>(rel & ((size_t{1} << kSubBits) - 1));
  return ((int64_t{1} << kSubBits) + sub) << (log2 - kSubBits);
}

int64_t LogHistogram::BucketWidth(size_t bucket) {
  if (bucket < static_cast<size_t>(kLinear)) {
    return 1;
  }
  int log2 = 10 + static_cast<int>((bucket - static_cast<size_t>(kLinear)) >> kSubBits);
  return int64_t{1} << (log2 - kSubBits);
}

void LogHistogram::Record(int64_t value) {
  ++buckets_[BucketOf(value)];
  ++count_;
}

void LogHistogram::Merge(const LogHistogram& other) {
  for (size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

void LogHistogram::Clear() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
}

Quantile LogHistogram::At(double q) const {
  Quantile out;
  out.n = count_;
  uint64_t rank = ReportableRank(q, count_);
  if (rank == 0) {
    return out;
  }
  out.ok = true;
  out.q = static_cast<double>(rank) / static_cast<double>(count_);
  uint64_t before = 0;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    uint64_t c = buckets_[b];
    if (before + c >= rank) {
      // Integer samples v occupy [v - 0.5, v + 0.5); spread the bucket's samples evenly
      // over its span and take the rank's midpoint, so a lone sample reads back exactly.
      double within = (static_cast<double>(rank - before) - 0.5) / static_cast<double>(c);
      out.value = static_cast<double>(BucketLow(b)) - 0.5 +
                  within * static_cast<double>(BucketWidth(b));
      return out;
    }
    before += c;
  }
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double QuietQuartile(std::vector<double> values, bool higher_is_better) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = (higher_is_better ? 0.75 : 0.25) * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

void Report::Check(bool condition, const std::string& what) {
  if (!condition) {
    failures_.push_back(what);
  }
}

void ReportSetup(const SetupTiming& timing, double slowdown, Report* report) {
  report->Set("setup_s", timing.median_s / slowdown);
  report->Set("setup.cold_s", timing.cold_s);
  report->Note("setup_cold_s = " + FormatDouble(timing.cold_s) +
               " s (process start to the end of the first set-up; not gated)");
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::string FormatDouble(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

double HostSlowdown() {
  static const std::vector<uint32_t> ring = [] {
    std::vector<uint32_t> order(1 << 15);
    for (uint32_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    SplitMix64 rng(42);
    for (size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[rng.Below(i + 1)]);
    }
    std::vector<uint32_t> next(order.size());
    for (size_t i = 0; i < order.size(); ++i) {
      next[order[i]] = order[(i + 1) % order.size()];
    }
    return next;
  }();
  static constexpr uint8_t kCode[16] = {0, 1, 2, 3, 1, 0, 2, 2, 3, 1, 0, 3, 2, 1, 0, 1};
  double fastest = 0;
  for (int probe = 0; probe < 3; ++probe) {
    int64_t regs[4] = {1, 2, 3, 4};
    uint32_t p = 0;
    const int64_t t0 = NowNs();
    for (int i = 0; i < 200'000; ++i) {
      switch (kCode[i & 15]) {
        case 0:
          regs[0] += regs[1] ^ p;
          break;
        case 1:
          regs[1] = regs[1] * 31 + regs[2];
          break;
        case 2:
          p = ring[p];
          regs[2] += p;
          break;
        default:
          regs[3] -= regs[0] >> 3;
          break;
      }
    }
    const double ns = static_cast<double>(NowNs() - t0);
    g_probe_sink = regs[0] + regs[1] + regs[2] + regs[3];
    fastest = probe == 0 ? ns : std::min(fastest, ns);
  }
  return fastest / kNominalProbeNs;
}

}  // namespace perfbench
