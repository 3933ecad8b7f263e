// The benchmark's workloads. Each runs for about RunConfig::seconds, fills the report with
// every end-to-end metric (untraced run) or every per-layer metric it can measure (traced
// run), and records each correctness check it makes.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

class SpanBuffer;

void RunFaultStorm(const RunConfig& config, Report* report);
void RunLearnedReplay(const RunConfig& config, Report* report);
void RunServerOpenLoop(const RunConfig& config, Report* report);

// Runs one seeded tenant population through the M:N scheduler and checks that its audits
// are clean and every tenant retires. With `spans` non-null (the traced run) it also records
// a span and sets the scenario.* and frame-manager reject/reclaim per-layer metrics.
void RunScenarioChurn(const RunConfig& config, SpanBuffer* spans, Report* report);

// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 31;

// Share of a run's budget spent warming up before anything is measured. A fresh process runs
// its first second or so at about half speed on the shared 4-vCPU VM this was tuned on.
inline constexpr double kWarmupShare = 0.2;
// Share of the budget by which measuring ends; the rest covers the correctness checks.
inline constexpr double kMeasureEndShare = 0.85;

// Capacity of the traced run's span buffer.
inline constexpr size_t kSpanCapacity = 1 << 18;

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
