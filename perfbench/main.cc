// perfbench: the repository's benchmark binary. run.py builds it and calls
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--root DIR]
//             [--trace-out FILE] [--scratch DIR]
//
// It prints one human-readable line per metric, then, as its last line, one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}. With --trace 0
// the metrics are the end-to-end set, with --trace 1 the per-layer set (metrics.h). A failed
// correctness check prints the object with "correct": false and exits 1.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness.h"
#include "metrics.h"
#include "workloads.h"

namespace {

using perfbench::FormatDouble;
using perfbench::MetricDef;
using perfbench::Report;
using perfbench::RunConfig;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload fault_storm|learned_replay|server_open_loop "
               "[--seed N] [--seconds S] [--trace 0|1] [--root DIR] [--trace-out FILE] "
               "[--scratch DIR]\n",
               argv0);
  return 2;
}

template <size_t N>
void PrintMetrics(const MetricDef (&defs)[N], const Report& report, bool zero_if_missing,
                  std::string* json, bool* complete) {
  bool first = true;
  for (const MetricDef& def : defs) {
    auto it = report.values().find(def.name);
    if (it == report.values().end() && !zero_if_missing) {
      *complete = false;
      continue;
    }
    const double value = it == report.values().end() ? 0.0 : it->second;
    std::printf("%-45s %s %s\n", def.name, FormatDouble(value).c_str(), def.unit);
    *json += std::string(first ? "" : ", ") + "\"" + def.name + "\": {\"value\": " +
             FormatDouble(value) + ", \"unit\": \"" + def.unit + "\"}";
    first = false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return Usage(argv[0]);
    }
    const char* value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--root") {
      config.root = value;
    } else if (arg == "--trace-out") {
      config.trace_out = value;
    } else if (arg == "--scratch") {
      config.scratch_dir = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (!(config.seconds > 0.0)) {
    return Usage(argv[0]);
  }

  Report report;
  try {
    if (config.workload == "fault_storm") {
      perfbench::RunFaultStorm(config, &report);
    } else if (config.workload == "learned_replay") {
      perfbench::RunLearnedReplay(config, &report);
    } else if (config.workload == "server_open_loop") {
      perfbench::RunServerOpenLoop(config, &report);
    } else {
      return Usage(argv[0]);
    }
  } catch (const std::exception& e) {
    report.Check(false, std::string("exception: ") + e.what());
  }

  for (const std::string& note : report.notes()) {
    std::printf("# %s\n", note.c_str());
  }
  std::printf("# failed_fraction = %s (%llu of %llu operations)\n",
              FormatDouble(report.outcome.FailedFraction()).c_str(),
              static_cast<unsigned long long>(report.outcome.failed),
              static_cast<unsigned long long>(report.outcome.attempted));
  report.Set("failed_fraction", report.outcome.FailedFraction());
  std::string metrics;
  bool complete = true;
  if (config.trace) {
    PrintMetrics(perfbench::kPerLayer, report, /*zero_if_missing=*/true, &metrics, &complete);
  } else {
    PrintMetrics(perfbench::kEndToEnd, report, /*zero_if_missing=*/false, &metrics, &complete);
  }
  report.Check(complete, "an end-to-end metric was not measured");
  report.Check(report.outcome.attempted > 0, "no operation was attempted");
  report.Check(report.outcome.failed == 0, "operations failed");
  for (const std::string& failure : report.failures()) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              report.correct() ? "true" : "false",
              static_cast<unsigned long long>(report.outcome.attempted),
              static_cast<unsigned long long>(report.outcome.failed), metrics.c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
