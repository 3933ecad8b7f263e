#include "obs/report.h"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace hipec::obs {

namespace {

ScenarioSummary ScenarioFromRecord(const JsonValue& rec) {
  ScenarioSummary s;
  s.name = rec.StringOr("scenario", "?");
  s.tenants = rec.IntOr("tenants", 0);
  s.background = rec.IntOr("background", 0);
  s.faults = rec.IntOr("faults", 0);
  s.requests = rec.IntOr("requests", 0);
  s.requests_rejected = rec.IntOr("requests_rejected", 0);
  s.forced_reclaims = rec.IntOr("forced_reclaims", 0);
  s.flush_exchange = rec.IntOr("flush_exchange", 0);
  s.flush_sync = rec.IntOr("flush_sync", 0);
  s.checker_kills = rec.IntOr("checker_kills", 0);
  s.audits = rec.IntOr("audits", 0);
  s.trace_dropped = rec.IntOr("trace_dropped", 0);
  s.reject_rate = rec.NumberOr("reject_rate", 0.0);
  s.virtual_sec = rec.NumberOr("virtual_sec", 0.0);
  s.host_sec = rec.NumberOr("host_sec", 0.0);
  return s;
}

void AppendNumber(std::string* out, double value) {
  char buf[64];
  // Integral values print without a fraction so counts stay counts in the JSON report.
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  } else {
    std::snprintf(buf, sizeof(buf), "%.6f", value);
  }
  *out += buf;
}

}  // namespace

void ParseJsonLines(std::istream& in, std::vector<JsonValue>* records, size_t* ignored,
                    std::vector<ReportWarning>* parse_warnings) {
  std::string line;
  while (std::getline(in, line)) {
    // Trim leading whitespace only; the benches print objects flush-left.
    size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] != '{') {
      if (ignored != nullptr) {
        ++*ignored;
      }
      continue;
    }
    JsonValue value;
    std::string error;
    if (!ParseJson(std::string_view(line).substr(start), &value, &error) ||
        !value.IsObject()) {
      if (parse_warnings != nullptr) {
        std::string snippet = line.substr(start, 40);
        parse_warnings->push_back(
            ReportWarning{"parser", "unparseable JSON line '" + snippet + "...': " + error});
      }
      continue;
    }
    records->push_back(std::move(value));
  }
}

Report BuildReport(const std::vector<JsonValue>& records) {
  Report report;
  report.records = records.size();
  for (const JsonValue& rec : records) {
    std::string bench = rec.StringOr("bench", "");
    bool has_metric = rec.Get("metric") != nullptr;

    if (bench == "scenario" && !has_metric) {
      ScenarioSummary s = ScenarioFromRecord(rec);
      if (s.trace_dropped > 0) {
        report.warnings.push_back(ReportWarning{
            s.name, "trace ring dropped " + std::to_string(s.trace_dropped) +
                        " event(s); exported timelines are incomplete — raise the tracer "
                        "capacity or shorten the run"});
      }
      // Flatten the countable fields so the gate (and diffs between runs) can reference them
      // by name, alongside the explicit metric records.
      const std::string prefix = "scenario." + s.name + ".";
      report.metrics[prefix + "faults"] = static_cast<double>(s.faults);
      report.metrics[prefix + "requests"] = static_cast<double>(s.requests);
      report.metrics[prefix + "requests_rejected"] = static_cast<double>(s.requests_rejected);
      report.metrics[prefix + "forced_reclaims"] = static_cast<double>(s.forced_reclaims);
      report.metrics[prefix + "flush_exchange"] = static_cast<double>(s.flush_exchange);
      report.metrics[prefix + "flush_sync"] = static_cast<double>(s.flush_sync);
      report.metrics[prefix + "checker_kills"] = static_cast<double>(s.checker_kills);
      report.metrics[prefix + "trace_dropped"] = static_cast<double>(s.trace_dropped);
      report.scenarios.push_back(std::move(s));
    } else if (bench == "scenario" && has_metric) {
      report.metrics["scenario." + rec.StringOr("scenario", "?") + "." +
                     rec.StringOr("metric", "?")] = rec.NumberOr("value", 0.0);
    } else if (bench == "faultpath" && rec.StringOr("config", "") == "production" &&
               rec.Get("normalized_score") != nullptr) {
      report.metrics["faultpath.normalized." + rec.StringOr("policy", "?")] =
          rec.NumberOr("normalized_score", 0.0);
    } else if (bench == "faultpath" && has_metric && rec.Get("policy") != nullptr) {
      report.metrics["faultpath." + rec.StringOr("metric", "?") + "." +
                     rec.StringOr("policy", "?")] = rec.NumberOr("value", 0.0);
    } else if (bench == "faultpath" && has_metric) {
      report.metrics["faultpath." + rec.StringOr("metric", "?")] = rec.NumberOr("value", 0.0);
    } else if (bench == "tournament" && rec.Get("workload") != nullptr) {
      // One leaderboard cell from bench_tournament: flatten every gate-able number under
      // tournament.<field>.<policy>.<workload> so check_tournament.py and run-to-run diffs
      // can reference cells by name.
      const std::string suffix =
          rec.StringOr("policy", "?") + "." + rec.StringOr("workload", "?");
      report.metrics["tournament.hit_ratio." + suffix] = rec.NumberOr("hit_ratio", 0.0);
      report.metrics["tournament.ns_per_fault." + suffix] = rec.NumberOr("ns_per_fault", 0.0);
      report.metrics["tournament.kills." + suffix] = rec.NumberOr("kills", 0.0);
      report.metrics["tournament.rejects." + suffix] = rec.NumberOr("rejects", 0.0);
    } else if (bench == "replay" && rec.Get("trace") != nullptr) {
      // One trace-replay cell (bench_tournament --traces): only the deterministic
      // virtual-machine facts, flattened under replay.<field>.<policy>.<trace> — these
      // must be byte-identical run to run and across JIT modes, so the CI replay gate can
      // diff them directly. Host timing (ns_per_fault) is deliberately excluded.
      const std::string suffix =
          rec.StringOr("policy", "?") + "." + rec.StringOr("trace", "?");
      report.metrics["replay.hit_ratio." + suffix] = rec.NumberOr("hit_ratio", 0.0);
      report.metrics["replay.faults." + suffix] = rec.NumberOr("faults", 0.0);
      report.metrics["replay.records." + suffix] = rec.NumberOr("records", 0.0);
      report.metrics["replay.virtual_fault_ns." + suffix] =
          rec.NumberOr("virtual_fault_ns", 0.0);
    } else if (bench == "server" && has_metric) {
      // bench_server's gated per-core rate. Mirror the extractor's hardware_threads filter
      // so a report from a small host never smuggles the metric past the gate.
      if (rec.StringOr("metric", "") == "requests_per_sec_per_core" &&
          rec.IntOr("hardware_threads", 0) < 8) {
        continue;
      }
      report.metrics["server." + rec.StringOr("metric", "?")] = rec.NumberOr("value", 0.0);
    } else if (bench == "server" && rec.Get("client") != nullptr) {
      // Per-client latency summary from the daemon's drain-loop probes.
      ServerClientSummary c;
      c.name = rec.StringOr("client", "?");
      c.completions = rec.IntOr("completions", 0);
      c.lat_count = rec.IntOr("lat_count", 0);
      c.lat_mean_ns = rec.NumberOr("lat_mean_ns", 0.0);
      c.lat_p50_ns = rec.IntOr("lat_p50_ns", 0);
      c.lat_p99_ns = rec.IntOr("lat_p99_ns", 0);
      report.server_clients.push_back(std::move(c));
    } else if (bench == "server" && rec.Get("clients") != nullptr &&
               rec.Get("requests_per_sec") != nullptr) {
      // Informational per-phase throughput, same naming as the extractor.
      report.metrics["server.requests_per_sec." +
                     std::to_string(rec.IntOr("clients", 0)) + "c"] =
          rec.NumberOr("requests_per_sec", 0.0);
    }
  }
  return report;
}

std::string RenderReportTable(const Report& report) {
  std::ostringstream os;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "hipec-report: %zu JSON record(s), %zu other line(s)\n",
                report.records, report.ignored_lines);
  os << buf;

  if (!report.scenarios.empty()) {
    std::snprintf(buf, sizeof(buf), "\n%-20s %9s %8s %8s %6s %7s %7s %7s %6s %8s %8s\n",
                  "scenario", "faults", "req", "rej", "rej%", "forced", "flushx", "flushs",
                  "kills", "vsec", "dropped");
    os << buf;
    for (const ScenarioSummary& s : report.scenarios) {
      std::snprintf(buf, sizeof(buf),
                    "%-20s %9lld %8lld %8lld %5.1f%% %7lld %7lld %7lld %6lld %8.3f %8lld\n",
                    s.name.c_str(), static_cast<long long>(s.faults),
                    static_cast<long long>(s.requests),
                    static_cast<long long>(s.requests_rejected), 100.0 * s.reject_rate,
                    static_cast<long long>(s.forced_reclaims),
                    static_cast<long long>(s.flush_exchange),
                    static_cast<long long>(s.flush_sync),
                    static_cast<long long>(s.checker_kills), s.virtual_sec,
                    static_cast<long long>(s.trace_dropped));
      os << buf;
    }
  }

  if (!report.server_clients.empty()) {
    std::snprintf(buf, sizeof(buf), "\n%-24s %12s %12s %12s %10s %10s\n", "server client",
                  "completions", "lat_count", "mean_ns", "p50_ns", "p99_ns");
    os << buf;
    for (const ServerClientSummary& c : report.server_clients) {
      std::snprintf(buf, sizeof(buf), "%-24s %12lld %12lld %12.1f %10lld %10lld\n",
                    c.name.c_str(), static_cast<long long>(c.completions),
                    static_cast<long long>(c.lat_count), c.lat_mean_ns,
                    static_cast<long long>(c.lat_p50_ns),
                    static_cast<long long>(c.lat_p99_ns));
      os << buf;
    }
  }

  if (!report.metrics.empty()) {
    os << "\nmetrics (check_perf_regression.py names):\n";
    for (const auto& [name, value] : report.metrics) {
      std::snprintf(buf, sizeof(buf), "  %-50s %14.4f\n", name.c_str(), value);
      os << buf;
    }
  }

  if (!report.warnings.empty()) {
    os << "\nWARNINGS:\n";
    for (const ReportWarning& w : report.warnings) {
      os << "  [" << w.source << "] " << w.message << "\n";
    }
  }
  return os.str();
}

std::string RenderReportJson(const Report& report) {
  std::string out = "{\"report_version\":1,\"records\":";
  AppendNumber(&out, static_cast<double>(report.records));
  out += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : report.metrics) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += '"';
    AppendJsonEscaped(&out, name);
    out += "\":";
    AppendNumber(&out, value);
  }
  out += "},\"scenarios\":[";
  first = true;
  for (const ScenarioSummary& s : report.scenarios) {
    if (!first) {
      out += ',';
    }
    first = false;
    char buf[512];
    out += "{\"name\":\"";
    AppendJsonEscaped(&out, s.name);
    std::snprintf(buf, sizeof(buf),
                  "\",\"tenants\":%lld,\"background\":%lld,\"faults\":%lld,"
                  "\"requests\":%lld,\"requests_rejected\":%lld,\"reject_rate\":%.4f,"
                  "\"forced_reclaims\":%lld,\"flush_exchange\":%lld,\"flush_sync\":%lld,"
                  "\"checker_kills\":%lld,\"audits\":%lld,\"trace_dropped\":%lld,"
                  "\"virtual_sec\":%.3f,\"host_sec\":%.3f}",
                  static_cast<long long>(s.tenants), static_cast<long long>(s.background),
                  static_cast<long long>(s.faults), static_cast<long long>(s.requests),
                  static_cast<long long>(s.requests_rejected), s.reject_rate,
                  static_cast<long long>(s.forced_reclaims),
                  static_cast<long long>(s.flush_exchange),
                  static_cast<long long>(s.flush_sync),
                  static_cast<long long>(s.checker_kills),
                  static_cast<long long>(s.audits),
                  static_cast<long long>(s.trace_dropped), s.virtual_sec, s.host_sec);
    out += buf;
  }
  out += "],\"server_clients\":[";
  first = true;
  for (const ServerClientSummary& c : report.server_clients) {
    if (!first) {
      out += ',';
    }
    first = false;
    char buf[256];
    out += "{\"name\":\"";
    AppendJsonEscaped(&out, c.name);
    std::snprintf(buf, sizeof(buf),
                  "\",\"completions\":%lld,\"lat_count\":%lld,\"lat_mean_ns\":%.1f,"
                  "\"lat_p50_ns\":%lld,\"lat_p99_ns\":%lld}",
                  static_cast<long long>(c.completions), static_cast<long long>(c.lat_count),
                  c.lat_mean_ns, static_cast<long long>(c.lat_p50_ns),
                  static_cast<long long>(c.lat_p99_ns));
    out += buf;
  }
  out += "],\"warnings\":[";
  first = true;
  for (const ReportWarning& w : report.warnings) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += "{\"source\":\"";
    AppendJsonEscaped(&out, w.source);
    out += "\",\"message\":\"";
    AppendJsonEscaped(&out, w.message);
    out += "\"}";
  }
  out += "]}";
  return out;
}

bool SelfCheck(std::string* diagnostics) {
  auto fail = [diagnostics](const std::string& what) {
    if (diagnostics != nullptr) {
      *diagnostics = "selfcheck: " + what;
    }
    return false;
  };

  // A miniature bench capture: a human table line, a scenario summary with dropped events,
  // a scenario metric, faultpath production + per-policy metric + bare-metric lines,
  // tournament and trace-replay cells, server records, and one corrupt JSON line.
  static const char kSample[] =
      "scenario: sample — human table line, must be skipped\n"
      "{\"bench\":\"scenario\",\"scenario\":\"sample\",\"tenants\":3,\"background\":1,"
      "\"faults\":1200,\"requests\":40,\"requests_rejected\":10,\"reject_rate\":0.2500,"
      "\"forced_reclaims\":7,\"flush_exchange\":5,\"flush_sync\":2,"
      "\"burst_watermark_final\":512,\"checker_kills\":1,\"audits\":99,"
      "\"trace_dropped\":3,\"virtual_sec\":1.500,\"host_sec\":0.050}\n"
      "{\"bench\":\"scenario\",\"scenario\":\"sample\",\"metric\":\"faults_per_host_sec\","
      "\"value\":24000}\n"
      "{\"bench\":\"faultpath\",\"policy\":\"fifo\",\"config\":\"production\","
      "\"faults\":64000,\"faults_per_sec\":100000,\"ns_per_fault\":10000.0,"
      "\"normalized_score\":0.004321}\n"
      "{\"bench\":\"faultpath\",\"policy\":\"fifo\",\"metric\":\"jit_policy_speedup\","
      "\"value\":1.410}\n"
      "{\"bench\":\"faultpath\",\"metric\":\"probe_overhead_pct\",\"value\":3.100}\n"
      "{\"bench\":\"tournament\",\"policy\":\"awrp\",\"workload\":\"hot_cold\","
      "\"accesses\":8000,\"faults\":640,\"hit_ratio\":0.9200,\"ns_per_fault\":5125.0,"
      "\"kills\":0,\"rejects\":0}\n"
      "{\"bench\":\"replay\",\"policy\":\"awrp\",\"trace\":\"kv_store\","
      "\"records\":8600,\"faults\":2070,\"hit_ratio\":0.7590,"
      "\"virtual_fault_ns\":20700000,\"kills\":0,\"rejects\":0}\n"
      "{\"bench\":\"server\",\"metric\":\"requests_per_sec_per_core\",\"value\":90000,"
      "\"hardware_threads\":16,\"clients\":4}\n"
      "{\"bench\":\"server\",\"metric\":\"requests_per_sec_per_core\",\"value\":11,"
      "\"hardware_threads\":1,\"clients\":4}\n"
      "{\"bench\":\"server\",\"clients\":4,\"hardware_threads\":16,\"requests\":8000,"
      "\"wall_sec\":0.1,\"requests_per_sec\":80000,\"ok\":1}\n"
      "{\"bench\":\"server\",\"client\":\"bench#0\",\"completions\":2000,"
      "\"lat_count\":2000,\"lat_mean_ns\":640.5,\"lat_p50_ns\":440,\"lat_p99_ns\":2040}\n"
      "{this line is corrupt json\n";

  std::istringstream in(kSample);
  std::vector<JsonValue> records;
  size_t ignored = 0;
  std::vector<ReportWarning> parse_warnings;
  ParseJsonLines(in, &records, &ignored, &parse_warnings);
  if (records.size() != 11) {
    return fail("expected 11 records, parsed " + std::to_string(records.size()));
  }
  if (ignored != 1) {
    return fail("expected 1 ignored line, saw " + std::to_string(ignored));
  }
  if (parse_warnings.size() != 1) {
    return fail("expected 1 parse warning for the corrupt line");
  }

  Report report = BuildReport(records);
  report.ignored_lines = ignored;
  report.warnings.insert(report.warnings.end(), parse_warnings.begin(), parse_warnings.end());

  if (report.scenarios.size() != 1) {
    return fail("expected 1 scenario summary");
  }
  const ScenarioSummary& s = report.scenarios[0];
  if (s.name != "sample" || s.faults != 1200 || s.requests_rejected != 10 ||
      s.forced_reclaims != 7 || s.flush_sync != 2 || s.checker_kills != 1 ||
      s.trace_dropped != 3) {
    return fail("scenario summary fields do not match the sample");
  }
  auto metric_is = [&](const char* name, double want) {
    auto it = report.metrics.find(name);
    return it != report.metrics.end() && std::abs(it->second - want) < 1e-9;
  };
  if (!metric_is("scenario.sample.faults_per_host_sec", 24000) ||
      !metric_is("scenario.sample.forced_reclaims", 7) ||
      !metric_is("scenario.sample.requests_rejected", 10) ||
      !metric_is("faultpath.normalized.fifo", 0.004321) ||
      !metric_is("faultpath.jit_policy_speedup.fifo", 1.410) ||
      !metric_is("faultpath.probe_overhead_pct", 3.100) ||
      !metric_is("tournament.hit_ratio.awrp.hot_cold", 0.9200) ||
      !metric_is("tournament.ns_per_fault.awrp.hot_cold", 5125.0) ||
      !metric_is("replay.hit_ratio.awrp.kv_store", 0.7590) ||
      !metric_is("replay.records.awrp.kv_store", 8600) ||
      !metric_is("replay.virtual_fault_ns.awrp.kv_store", 20700000) ||
      !metric_is("server.requests_per_sec_per_core", 90000) ||
      !metric_is("server.requests_per_sec.4c", 80000)) {
    return fail("flattened metrics do not match the sample");
  }
  // The small-host server record (hardware_threads 1, value 11) must have been dropped —
  // had it landed, the 90000 from the 16-thread record would have been overwritten.
  if (report.server_clients.size() != 1 || report.server_clients[0].name != "bench#0" ||
      report.server_clients[0].completions != 2000 ||
      report.server_clients[0].lat_p99_ns != 2040) {
    return fail("server client latency summary does not match the sample");
  }
  bool dropped_flagged = false;
  for (const ReportWarning& w : report.warnings) {
    if (w.source == "sample" && w.message.find("dropped 3") != std::string::npos) {
      dropped_flagged = true;
    }
  }
  if (!dropped_flagged) {
    return fail("nonzero trace_dropped was not flagged as a warning");
  }

  // The machine report must round-trip through our own parser.
  std::string json = RenderReportJson(report);
  JsonValue parsed;
  std::string error;
  if (!ParseJson(json, &parsed, &error)) {
    return fail("report JSON does not parse: " + error);
  }
  const JsonValue* metrics = parsed.Get("metrics");
  if (metrics == nullptr || !metrics->IsObject() ||
      std::abs(metrics->NumberOr("faultpath.probe_overhead_pct", 0) - 3.1) > 1e-9) {
    return fail("report JSON round-trip lost metrics");
  }
  if (diagnostics != nullptr) {
    diagnostics->clear();
  }
  return true;
}

}  // namespace hipec::obs
