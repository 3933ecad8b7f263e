// Named probe points over fixed-bucket histograms (histogram.h).
//
// Mirrors the interned-counter design in sim/stats.h: probe names are interned once into
// dense ProbeIds (normally by a namespace-scope initializer in the instrumented subsystem's
// .cc file), and each subsystem owns a ProbeSet — a plain vector of histograms indexed by id.
//
// Cost discipline, because probes sit on the fault path:
//   * Compiled out entirely with -DHIPEC_OBS_PROBES=0: Record() is an empty inline and
//     ProbesEnabled() is constant false, so instrumentation blocks fold away.
//   * Compiled in but disabled (the default at runtime): one predicted branch on a static
//     bool per probe site. bench_faultpath measures this configuration against
//     bench/baseline.json; the acceptance budget is <2% on ns/fault.
//   * Enabled: bucket increment per Record — still allocation-free except the first touch
//     of a new id, which grows the dense vector (same warm-up property as CounterSet).
//
// Call sites guard value computation with ProbesEnabled() so the disabled path does not even
// read the clock:
//
//   const sim::CounterId kProbeReadNs = obs::InternProbe("disk.read_ns");
//   ...
//   if (obs::ProbesEnabled()) probes_.Record(kProbeReadNs, total);
#ifndef HIPEC_OBS_PROBE_H_
#define HIPEC_OBS_PROBE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/histogram.h"
#include "sim/name_table.h"

// Compile-time gate: -DHIPEC_OBS_PROBES=0 removes every probe from the binary.
#if !defined(HIPEC_OBS_PROBES)
#define HIPEC_OBS_PROBES 1
#endif

namespace hipec::obs {

using ProbeId = uint32_t;

// The process-wide probe name table, separate from the counter names so every ProbeSet is
// sized by probe names alone. Leaked, so it stays valid in static destructors.
sim::NameTable& ProbeNames();

inline ProbeId InternProbe(const char* name) {
  return ProbeNames().Intern(name);
}

constexpr bool ProbesCompiledIn() { return HIPEC_OBS_PROBES != 0; }

// A subsystem's bag of probe histograms, indexed by ProbeId. The runtime switch is
// process-wide (one flag flips every probe in every subsystem), matching how the tracer
// works.
// Thread-safety matches Tracer: single-threaded (and lock-free) by default; a set shared by
// real fault threads calls EnableConcurrent() at construction time, after which Record()
// serializes on a leaf mutex. The runtime on/off switch is a relaxed atomic either way, so a
// disabled probe site costs one branch in both modes.
class ProbeSet {
 public:
  static void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  static bool enabled() {
    return ProbesCompiledIn() && enabled_.load(std::memory_order_relaxed);
  }

  void EnableConcurrent() { concurrent_ = true; }

  void Record(ProbeId id, int64_t value) {
#if HIPEC_OBS_PROBES
    if (!enabled()) [[likely]] {
      return;
    }
    if (concurrent_) {
      std::lock_guard<std::mutex> lock(mu_);
      RecordLocked(id, value);
      return;
    }
    RecordLocked(id, value);
#else
    (void)id;
    (void)value;
#endif
  }

  // The histogram for `id`, or nullptr if this set never recorded to it.
  const Histogram* Find(ProbeId id) const {
    return id < hists_.size() && hists_[id].count() > 0 ? &hists_[id] : nullptr;
  }

  // Recorded histograms keyed by probe name (sorted; empty histograms omitted).
  std::map<std::string, const Histogram*> all() const;

  void Clear() { hists_.clear(); }

  // Appends {"probe.name": {histogram json}, ...} for every non-empty histogram.
  void AppendJson(std::string* out) const;

 private:
  void RecordLocked(ProbeId id, int64_t value) {
    if (id >= hists_.size()) [[unlikely]] {
      Grow(id);
    }
    hists_[id].Record(value);
  }
  void Grow(ProbeId id);

  std::vector<Histogram> hists_;
  bool concurrent_ = false;
  mutable std::mutex mu_;
  static inline std::atomic<bool> enabled_{false};
};

// True when probe instrumentation should compute and record values right now.
inline bool ProbesEnabled() { return ProbeSet::enabled(); }

// RAII enable/disable for benches and tests; restores the previous state on scope exit.
class ScopedProbes {
 public:
  explicit ScopedProbes(bool on) : previous_(ProbeSet::enabled()) {
    ProbeSet::SetEnabled(on);
  }
  ~ScopedProbes() { ProbeSet::SetEnabled(previous_); }
  ScopedProbes(const ScopedProbes&) = delete;
  ScopedProbes& operator=(const ScopedProbes&) = delete;

 private:
  bool previous_;
};

}  // namespace hipec::obs

#endif  // HIPEC_OBS_PROBE_H_
