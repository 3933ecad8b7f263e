// Run-report builder: turns the JSON lines the benches print (bench_util::JsonLine output
// from bench_scenario, bench_faultpath, bench_interpreter, ...) into
//
//   * a human-readable summary table (one section per scenario, one row per metric), and
//   * a machine-readable report whose "metrics" map uses exactly the flattened names
//     check_perf_regression.py gates on (scenario.<name>.<metric>,
//     faultpath.normalized.<policy>, replay.hit_ratio.<policy>.<trace>, ...), so a report
//     file can be fed to the gate with --report instead of raw bench stdout.
//
// The builder also audits what it reads: any scenario record with a nonzero trace_dropped
// (ring-buffer overwrites — the timeline is incomplete) becomes a warning, as does any
// JSON-looking line that fails to parse. `hipec-report --strict` turns warnings into a
// nonzero exit; CI runs `--selfcheck` so the parsing can't silently rot.
#ifndef HIPEC_OBS_REPORT_H_
#define HIPEC_OBS_REPORT_H_

#include <cstdint>
#include <istream>
#include <map>
#include <string>
#include <vector>

#include "obs/json.h"

namespace hipec::obs {

struct ReportWarning {
  std::string source;   // scenario or bench the warning is about
  std::string message;

  bool operator==(const ReportWarning&) const = default;
};

// One bench_scenario summary record, lifted out of its JSON line.
struct ScenarioSummary {
  std::string name;
  int64_t tenants = 0;
  int64_t background = 0;
  int64_t faults = 0;
  int64_t requests = 0;
  int64_t requests_rejected = 0;
  int64_t forced_reclaims = 0;
  int64_t flush_exchange = 0;
  int64_t flush_sync = 0;
  int64_t checker_kills = 0;
  int64_t audits = 0;
  int64_t trace_dropped = 0;
  double reject_rate = 0.0;
  double virtual_sec = 0.0;
  double host_sec = 0.0;
};

// One bench_server per-client latency record (the daemon's probe-fed service-time
// histogram, summarized per session).
struct ServerClientSummary {
  std::string name;
  int64_t completions = 0;
  int64_t lat_count = 0;
  double lat_mean_ns = 0.0;
  int64_t lat_p50_ns = 0;
  int64_t lat_p99_ns = 0;
};

struct Report {
  std::vector<ScenarioSummary> scenarios;
  std::vector<ServerClientSummary> server_clients;
  // Flattened metric map, check_perf_regression.py naming.
  std::map<std::string, double> metrics;
  std::vector<ReportWarning> warnings;
  size_t records = 0;        // JSON objects consumed
  size_t ignored_lines = 0;  // non-JSON lines skipped (human tables, rules, blank)
};

// Reads a bench stdout capture: keeps every line that parses as a JSON object, skips
// everything else, and warns (in the report built later) about lines that start with '{'
// but fail to parse. Appends to *records.
void ParseJsonLines(std::istream& in, std::vector<JsonValue>* records, size_t* ignored,
                    std::vector<ReportWarning>* parse_warnings);

Report BuildReport(const std::vector<JsonValue>& records);

// The human summary (scenario sections, faultpath table, warnings).
std::string RenderReportTable(const Report& report);

// The machine report: {"report_version":1,"metrics":{...},"scenarios":[...],"warnings":[...]}.
std::string RenderReportJson(const Report& report);

// Runs the parser and builder over an embedded known-good sample and checks every derived
// number, then round-trips the rendered report JSON through the parser. Returns true on
// success; diagnostics explains the first failure.
bool SelfCheck(std::string* diagnostics);

}  // namespace hipec::obs

#endif  // HIPEC_OBS_REPORT_H_
