// Measurement harness shared by every perfbench workload: the clock, a log-linear latency
// histogram with the percentile rule the benchmark reports by, the quiet quartile over
// windows, outcome accounting, and the metric report that becomes the run's final JSON line.
//
// Nothing here calls into the system under test; the workload files time the public calls
// of each layer with these pieces.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Input generation. The benchmark derives every input from --seed with this generator, not
// with the library's own RNG, so a change to the program cannot change its inputs.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  // Uniform in [0, bound); bound > 0. The modulo bias is below 2^-40 for the bounds used.
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  // True with probability num/den.
  bool Chance(uint64_t num, uint64_t den) { return Below(den) < num; }

 private:
  uint64_t state_;
};

// A percentile as the benchmark reports it: the requested one when at least ten samples lie
// beyond it, otherwise the highest percentile that still has ten beyond it. `q` is the
// percentile actually reported and `n` the sample count; `ok` is false when there are ten
// or fewer samples and no percentile qualifies (value is then 0).
struct Quantile {
  double value = 0.0;
  double q = 0.0;
  uint64_t n = 0;
  bool ok = false;
};

// Nearest rank of percentile q over n samples, clamped so that ten samples lie beyond it.
// Returns 0 when n <= 10.
uint64_t ReportableRank(double q, uint64_t n);

// Log-linear histogram of non-negative integer samples (ns or µs): values below 1024 get
// one bucket each, and each power-of-two range above is split into 512 buckets, so the
// relative bucket width stays under 0.2%. Percentiles interpolate linearly inside the
// bucket that holds the rank, so they carry more digits than the bucket grid. Fixed size;
// Record never allocates.
class LogHistogram {
 public:
  LogHistogram();
  void Record(int64_t value);
  void Merge(const LogHistogram& other);
  void Clear();
  uint64_t count() const { return count_; }
  Quantile At(double q) const;

 private:
  static constexpr int kSubBits = 9;
  static constexpr int64_t kLinear = 1024;  // values below this are exact
  static size_t BucketOf(int64_t value);
  static int64_t BucketLow(size_t bucket);
  static int64_t BucketWidth(size_t bucket);

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

// Median of a list of values (mean of the middle two for an even count); 0 when empty.
double Median(std::vector<double> values);

// The quiet quartile of per-window values: the 25th percentile of a latency, or the 75th of a
// throughput (`higher_is_better`), interpolated linearly; 0 when empty. On the shared 4-vCPU
// VM this benchmark was tuned on, the core it runs on is now and then slowed about 1.75x
// by a neighbour, in episodes covering anywhere from none to over half of a run. A median
// moves with that share; the quiet quartile does not while a quarter of the windows are
// undisturbed, and it still moves with the program, which slows every window alike.
double QuietQuartile(std::vector<double> values, bool higher_is_better);

// Attempted/failed bookkeeping. A failed or refused operation counts as attempted.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Ok(uint64_t n = 1) { attempted += n; }
  void Fail(uint64_t n = 1) {
    attempted += n;
    failed += n;
  }
  // failed ÷ attempted; 1.0 when nothing was attempted, since a run that attempted nothing
  // delivered nothing.
  double FailedFraction() const {
    return attempted == 0 ? 1.0 : static_cast<double>(failed) / static_cast<double>(attempted);
  }
};

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";     // checkout root (traces/ lives here)
  std::string trace_out;      // where the traced run writes its spans ("" = nowhere)
  std::string scratch_dir = ".";  // where the server workload may create its socket
  int64_t start_ns = NowNs();     // process start, as main() entry
};

// What one workload run produced: correctness, operation outcomes, and metric values keyed
// by the names in metrics.h.
class Report {
 public:
  void Check(bool condition, const std::string& what);
  void Set(const std::string& name, double value) { values_[name] = value; }
  // A human-readable line printed before the JSON result (metrics that are not gated).
  void Note(const std::string& line) { notes_.push_back(line); }

  bool correct() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }
  const std::map<std::string, double>& values() const { return values_; }
  const std::vector<std::string>& notes() const { return notes_; }

  Outcome outcome;

 private:
  std::vector<std::string> failures_;
  std::map<std::string, double> values_;
  std::vector<std::string> notes_;
};

// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

// peak_rss_mb is read once the workload has done a fixed amount of work, not at the end of
// the run: the program keeps some per-operation state, so an end-of-run reading would grow
// with throughput and a faster program would look bigger.
class RssCheckpoint {
 public:
  explicit RssCheckpoint(uint64_t ops) : ops_(ops) {}
  void Observe(uint64_t ops_done) {
    if (!taken_ && ops_done >= ops_) {
      Take();
    }
  }
  // The reading; taken now if the run never reached the checkpoint.
  double Mb() {
    if (!taken_) {
      Take();
    }
    return mb_;
  }

 private:
  void Take() {
    mb_ = PeakRssMb();
    taken_ = true;
  }
  uint64_t ops_;
  bool taken_ = false;
  double mb_ = 0.0;
};

// How long setting up took: `median_s`, the median of the warm repetitions that setup_s
// reports, and `cold_s`, from process start to the end of the first set-up. The cold figure
// also pays the first trace read, the library's static tables and cold caches; it is a
// single sample per run, so it is reported per layer and printed, not gated.
struct SetupTiming {
  double median_s = 0;
  double cold_s = 0;
};

// Runs `setup` `reps` times, keeping the last world and destroying the others. Setup is
// repeated because one set-up takes milliseconds and its first run pays cold caches.
template <typename World, typename SetupFn>
World RepeatSetup(int reps, const RunConfig& config, SetupFn&& setup, SetupTiming* timing) {
  std::vector<double> durations;
  World world{};
  for (int i = 0; i < reps; ++i) {
    world = World{};  // destroy the previous world outside the timed region
    const int64_t t0 = NowNs();
    world = setup();
    const int64_t t1 = NowNs();
    durations.push_back(static_cast<double>(t1 - t0) * 1e-9);
    if (i == 0) {
      timing->cold_s = static_cast<double>(t1 - config.start_ns) * 1e-9;
    }
  }
  timing->median_s = Median(durations);
  return world;
}

// Sets setup_s (the warm median divided by `slowdown`, the host probe's reading, or 1 where
// times are not normalized) and setup.cold_s (raw), and prints the cold set-up.
void ReportSetup(const SetupTiming& timing, double slowdown, Report* report);

std::string FormatDouble(double value);

// How much slower the host runs right now than nominal: a fixed amount of interpreter-like
// work (a byte-code switch loop over a small table and a pointer chase through an L2-sized
// ring), timed three times, fastest run divided by kNominalProbeNs. The benchmark's own code,
// so a change to the program cannot move it.
//
// Why: on the shared VM this was tuned on, the core under a single-threaded workload now
// and then runs up to 2x slower for a minute or more, a slowdown that neither steal time nor
// any in-guest counter shows. fault_storm divides each window's times (and multiplies its
// throughput) by the slowdown measured just before it, and two workloads divide their
// set-up times by it. Over 6 runs of fault_storm, the per-run fault p50's range was 17% raw
// and 3% host-normalized. learned_replay's interpreter slowed 2x where this probe slowed
// at most 1.35x, so the replay is not normalized (learned_replay.cc, slow turns).
double HostSlowdown();
// About the probe's time on that VM in a quiet period, so normalized times read
// close to raw ones there.
inline constexpr double kNominalProbeNs = 300'000;

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
