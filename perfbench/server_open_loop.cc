// server_open_loop: hipecd in-process (its default two drain threads, a real-threads kernel
// with the lock hierarchy armed) serving two client threads, one server::Client each, that
// send on a fixed schedule whatever the server does (an open loop). The mix is 15/16 touches
// and 1/16 Flush requests; touches are hot/cold over a region four times the client's
// min_frames, and 1/8 of them write.
//
// Every request is timed from when it was due to when its completion was reaped, so a stall
// also charges the requests queued behind it. The generator's own lateness (send time minus
// due time) is reported, and a run whose lateness exceeds kLagLimitNs is invalid. Phases:
// warm-up (excluded), the `lo` rate, the `hi` rate, then a rate ladder whose highest step
// with p99 within kLatencyLimitNs and no growing backlog is the sustainable rate.
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "hipec/engine.h"
#include "obs/probe.h"
#include "policies/policies.h"
#include "server/client.h"
#include "server/server.h"
#include "touch_timer.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace hipec;  // NOLINT: benchmark code

constexpr int kClients = 2;
constexpr double kLoRate = 20'000;   // aggregate requests/s
constexpr double kHiRate = 400'000;  // aggregate requests/s
constexpr uint32_t kRegionPages = 1024;
constexpr uint32_t kMinFrames = 256;
constexpr uint32_t kHotPages = 128;
constexpr int kWindows = 9;                      // per fixed-rate phase
constexpr int64_t kLatencyLimitNs = 1'000'000;   // ladder: p99 limit
constexpr int64_t kLagLimitNs = 1'000'000;       // a run lagging more than this is invalid
constexpr double kLadderCoarse = 1.5;            // ladder rate ratios between steps
constexpr double kLadderFine = 1.1;
constexpr int64_t kLostAfterNs = 2'000'000'000;  // no completion for this long: lost
constexpr uint64_t kSampledPerSecond = 4000;     // traced requests per client per second

struct ServerWorld {
  ServerWorld() = default;
  ServerWorld(const ServerWorld&) = delete;
  ServerWorld& operator=(const ServerWorld&) = delete;
  ~ServerWorld() {
    std::string ignored;
    for (auto& client : clients) {
      if (client->installed()) {
        client->Teardown(&ignored);
      }
      client->Goodbye();
    }
    if (daemon != nullptr) {
      daemon->Stop();
    }
  }

  std::unique_ptr<server::Server> daemon;
  std::vector<std::unique_ptr<server::Client>> clients;
  std::vector<uint64_t> submit_calls;  // per client: Submit* calls so far (= last seq)
  std::string error;
};

std::unique_ptr<ServerWorld> BuildServer(const std::string& socket_path,
                                         std::vector<double>* install_us) {
  auto world = std::make_unique<ServerWorld>();
  server::ServerConfig config;
  config.socket_path = socket_path;
  world->daemon = std::make_unique<server::Server>(config);
  if (!world->daemon->Start(&world->error)) {
    return world;
  }
  const core::PolicyProgram program = policies::FifoSecondChancePolicy();
  server::ClientInstallOptions options;
  options.region_pages = kRegionPages;
  options.min_frames = kMinFrames;
  options.free_target = 4;
  options.inactive_target = 8;
  for (int i = 0; i < kClients; ++i) {
    auto client = std::make_unique<server::Client>();
    if (!client->Connect(socket_path, "perfbench#" + std::to_string(i), 1, &world->error)) {
      return world;
    }
    const int64_t t0 = NowNs();
    if (!client->Install(program, options, &world->error)) {
      return world;
    }
    install_us->push_back(static_cast<double>(NowNs() - t0) * 1e-3);
    world->clients.push_back(std::move(client));
    world->submit_calls.push_back(0);
  }
  return world;
}

// The seeded request stream of one client.
class RequestGenerator {
 public:
  explicit RequestGenerator(uint64_t seed) : rng_(seed) {}
  struct Next {
    bool flush;
    bool write;
    uint32_t page;
  };
  Next Draw() {
    Next next{};
    next.flush = rng_.Chance(1, 16);
    const bool hot = rng_.Chance(9, 10);
    next.page = static_cast<uint32_t>(hot ? rng_.Below(kHotPages) : rng_.Below(kRegionPages));
    next.write = !next.flush && rng_.Chance(1, 8);
    return next;
  }

 private:
  SplitMix64 rng_;
};

struct SpanNames {
  uint32_t request = 0;
  uint32_t submit = 0;
  uint32_t service = 0;
};

// One client's share of one phase.
struct ClientPhase {
  LogHistogram latency_ns;  // due -> reaped; failed requests count as never completing
  LogHistogram thirds_ns[3];  // latency_ns split by the third of the schedule a request was due in
  LogHistogram lag_ns;      // send start - due
  LogHistogram flush_ns;
  LogHistogram submit_ns;   // traced only
  LogHistogram service_ns;  // traced only (Completion.service_ns needs probes on)
  uint64_t requests = 0;
  uint64_t touches = 0;
  uint64_t not_ok = 0;
  uint64_t submit_failed = 0;
  uint64_t lost = 0;
  uint64_t stray = 0;
  uint64_t backlog_at_end = 0;  // requests in flight when the last one was sent
  int64_t last_reap_ns = 0;
  // Per-request bookkeeping, sized by the main thread before the client thread starts (so
  // resident memory does not depend on which thread's malloc arena served it).
  std::vector<int64_t> due;
  std::vector<uint8_t> is_flush;
  std::vector<int64_t> sent_at;       // traced only
  std::vector<int64_t> submitted_at;  // traced only
};

// Sends `n` requests due every `period_ns` from `t0` and reaps every completion. Completions
// are reaped before each send, so the client never holds the server up; if the server falls
// so far behind that the rings fill, Client::Submit* reaps completions itself while it backs
// off, and those requests (whose latency this loop never sees) count as missing the latency
// limit.
void RunClient(ServerWorld* world, int index, RequestGenerator* gen, int64_t t0,
               double period_ns, uint64_t n, ClientPhase* out, SpanBuffer* spans,
               const SpanNames& names, uint64_t sample_stride) {
  server::Client& client = *world->clients[index];
  uint64_t& calls = world->submit_calls[index];
  const uint64_t seq_base = calls + 1;
  const uint64_t completed_base = client.completed();
  const uint64_t rejected_base = client.completed_rejected();
  std::vector<int64_t>& due = out->due;
  std::vector<uint8_t>& is_flush = out->is_flush;
  std::vector<int64_t>& sent_at = out->sent_at;
  std::vector<int64_t>& submitted_at = out->submitted_at;
  out->requests = n;
  uint64_t k = 0;
  uint64_t seen = 0;  // completions this loop reaped itself
  int64_t last_progress = NowNs();
  server::Completion batch[64];
  auto reap = [&] {
    const size_t m = client.PollCompletions(batch, sizeof(batch) / sizeof(batch[0]));
    if (m == 0) {
      return;
    }
    const int64_t reaped = NowNs();
    last_progress = reaped;
    out->last_reap_ns = reaped;
    for (size_t i = 0; i < m; ++i) {
      const server::Completion& c = batch[i];
      const uint64_t idx = c.seq - seq_base;
      if (c.seq < seq_base || idx >= k) {
        ++out->stray;
        continue;
      }
      ++seen;
      const int64_t latency = c.status == server::kStatusOk ? reaped - due[idx] : INT64_MAX;
      out->latency_ns.Record(latency);
      out->thirds_ns[idx * 3 / n].Record(latency);
      if (is_flush[idx] != 0) {
        out->flush_ns.Record(reaped - due[idx]);
      }
      if (spans != nullptr) {
        const int64_t service = static_cast<int64_t>(c.service_ns);
        out->service_ns.Record(service);
        if (idx % sample_stride == 0) {
          // The service span's true start is not visible to the client; it is placed at
          // the end of the request, where it occupies the same share of the interval.
          const uint64_t id = (static_cast<uint64_t>(index + 1) << 40) | (seq_base + idx);
          const uint32_t parent = spans->Add(names.request, kNoSpan, id, due[idx], reaped);
          spans->Add(names.submit, parent, id, sent_at[idx], submitted_at[idx]);
          spans->Add(names.service, parent, id, reaped - service, reaped);
        }
      }
    }
  };
  for (;;) {
    reap();
    const uint64_t completed = client.completed() - completed_base;
    if (k < n) {
      const int64_t d = t0 + static_cast<int64_t>(static_cast<double>(k) * period_ns);
      const int64_t now = NowNs();
      if (now < d) {
        continue;
      }
      const RequestGenerator::Next req = gen->Draw();
      due[k] = d;
      is_flush[k] = req.flush ? 1 : 0;
      out->lag_ns.Record(now - d);
      const bool ok =
          req.flush ? client.SubmitFlush(req.page) : client.SubmitTouch(req.page, req.write);
      ++calls;
      if (spans != nullptr) {
        const int64_t after = NowNs();
        out->submit_ns.Record(after - now);
        sent_at[k] = now;
        submitted_at[k] = after;
      }
      out->touches += req.flush ? 0 : 1;
      if (!ok) {
        ++out->submit_failed;
        out->latency_ns.Record(INT64_MAX);
        out->thirds_ns[(k * 3) / n].Record(INT64_MAX);
      }
      ++k;
      if (k == n) {
        out->backlog_at_end = n - out->submit_failed - completed;
      }
      continue;
    }
    if (completed + out->submit_failed >= n) {
      break;
    }
    if (NowNs() - last_progress > kLostAfterNs) {
      out->lost = n - out->submit_failed - completed;
      break;
    }
  }
  const uint64_t completed = client.completed() - completed_base;
  for (uint64_t i = seen; i < completed; ++i) {
    out->latency_ns.Record(INT64_MAX);  // reaped inside Submit* during backpressure
    out->thirds_ns[2].Record(INT64_MAX);
  }
  out->not_ok = client.completed_rejected() - rejected_base;
}

struct PhaseResult {
  ClientPhase merged;
  double delivered_per_s = 0;  // completions ÷ (last reap - first due)
  int64_t faults = 0;
};

// One open-loop phase at `rate` aggregate requests/s for `seconds`, every client on its own
// thread; the clients' schedules are interleaved by half a period.
PhaseResult RunPhase(ServerWorld* world, std::vector<RequestGenerator>* gens, double rate,
                     double seconds, SpanBuffer* spans, const SpanNames& names) {
  const double per_client = rate / kClients;
  const double period_ns = 1e9 / per_client;
  const uint64_t n = static_cast<uint64_t>(per_client * seconds);
  const uint64_t stride =
      std::max<uint64_t>(1, static_cast<uint64_t>(per_client) / kSampledPerSecond);
  std::vector<std::unique_ptr<ClientPhase>> parts;
  for (int i = 0; i < kClients; ++i) {
    auto part = std::make_unique<ClientPhase>();
    part->due.resize(n);
    part->is_flush.resize(n);
    if (spans != nullptr) {
      part->sent_at.resize(n);
      part->submitted_at.resize(n);
    }
    parts.push_back(std::move(part));
  }
  const int64_t faults_before = world->daemon->engine().counters().Get("engine.faults_handled");
  const int64_t t0 = NowNs() + 1'000'000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    const int64_t start = t0 + static_cast<int64_t>(period_ns * i / kClients);
    threads.emplace_back(RunClient, world, i, &(*gens)[i], start, period_ns, n,
                         parts[i].get(), spans, names, stride);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  PhaseResult result;
  int64_t last_reap = t0;
  for (const auto& part : parts) {
    last_reap = std::max(last_reap, part->last_reap_ns);
  }
  result.faults =
      world->daemon->engine().counters().Get("engine.faults_handled") - faults_before;
  ClientPhase& m = result.merged;
  for (const auto& part : parts) {
    m.latency_ns.Merge(part->latency_ns);
    for (int t = 0; t < 3; ++t) {
      m.thirds_ns[t].Merge(part->thirds_ns[t]);
    }
    m.lag_ns.Merge(part->lag_ns);
    m.flush_ns.Merge(part->flush_ns);
    m.submit_ns.Merge(part->submit_ns);
    m.service_ns.Merge(part->service_ns);
    m.requests += part->requests;
    m.touches += part->touches;
    m.not_ok += part->not_ok;
    m.submit_failed += part->submit_failed;
    m.lost += part->lost;
    m.stray += part->stray;
    m.backlog_at_end += part->backlog_at_end;
  }
  const uint64_t completed = m.requests - m.submit_failed - m.lost;
  result.delivered_per_s =
      last_reap > t0 ? static_cast<double>(completed) * 1e9 / static_cast<double>(last_reap - t0)
                     : 0.0;
  return result;
}

// Outcome bookkeeping shared by every measured phase.
struct Tally {
  uint64_t requests = 0;
  uint64_t failed = 0;
  uint64_t stray = 0;
  uint64_t touches = 0;
  int64_t faults = 0;
  LogHistogram flush_ns;
  void Add(const PhaseResult& phase) {
    const ClientPhase& m = phase.merged;
    requests += m.requests;
    failed += m.not_ok + m.submit_failed + m.lost;
    stray += m.stray;
    touches += m.touches;
    faults += phase.faults;
    flush_ns.Merge(m.flush_ns);
  }
};

// A fixed-rate phase run as `windows` back-to-back windows: per-window summaries plus the
// traced-run histograms merged over all windows.
struct FixedRate {
  std::vector<double> delivered_per_s;
  std::vector<double> p50_ns;
  std::vector<double> p90_ns;
  std::vector<double> p99_ns;
  std::vector<double> lag_p99_ns;
  LogHistogram lag_ns;
  LogHistogram submit_ns;
  LogHistogram service_ns;
};

FixedRate RunFixedRate(ServerWorld* world, std::vector<RequestGenerator>* gens, double rate,
                       int windows, double window_s, SpanBuffer* spans, const SpanNames& names,
                       Tally* tally) {
  FixedRate out;
  for (int w = 0; w < windows; ++w) {
    PhaseResult phase = RunPhase(world, gens, rate, window_s, spans, names);
    out.delivered_per_s.push_back(phase.delivered_per_s);
    out.p50_ns.push_back(phase.merged.latency_ns.At(0.50).value);
    out.p90_ns.push_back(phase.merged.latency_ns.At(0.90).value);
    out.p99_ns.push_back(phase.merged.latency_ns.At(0.99).value);
    out.lag_p99_ns.push_back(phase.merged.lag_ns.At(0.99).value);
    tally->Add(phase);
    out.lag_ns.Merge(phase.merged.lag_ns);
    out.submit_ns.Merge(phase.merged.submit_ns);
    out.service_ns.Merge(phase.merged.service_ns);
  }
  return out;
}

// Self time of the sampled request spans (due to reaped, minus the submit call and the
// service time): how long requests waited in rings and for a drain thread.
// Only requests due in [since_ns, until_ns) count.
LogHistogram QueueTimeUs(const SpanBuffer& spans, uint32_t request_name, int64_t since_ns,
                         int64_t until_ns) {
  LogHistogram out;
  const std::vector<Span> all = spans.spans();
  const std::vector<int64_t> self = SelfTimes(all);
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i].name == request_name && all[i].start_ns >= since_ns &&
        all[i].start_ns < until_ns) {
      out.Record(self[i] / 1000);
    }
  }
  return out;
}

}  // namespace

void RunServerOpenLoop(const RunConfig& config, Report* report) {
  const int64_t start = NowNs();
  const double s = config.seconds;
  std::unique_ptr<SpanBuffer> spans =
      config.trace ? std::make_unique<SpanBuffer>(kSpanCapacity) : nullptr;
  SpanNames names;
  if (spans != nullptr) {
    names.request = spans->Name("server.request");
    names.submit = spans->Name("server.submit");
    names.service = spans->Name("server.service");
  }
  const std::string socket_path =
      config.scratch_dir + "/hipecd-" + std::to_string(getpid()) + ".sock";
  std::vector<double> install_us;
  SetupTiming setup;
  std::unique_ptr<ServerWorld> world = RepeatSetup<std::unique_ptr<ServerWorld>>(
      kSetupReps, config, [&] { return BuildServer(socket_path, &install_us); }, &setup);
  report->Check(world->error.empty(), "server set-up: " + world->error);
  if (!world->error.empty()) {
    report->outcome.Fail(1);
    return;
  }
  std::vector<RequestGenerator> gens;
  for (int i = 0; i < kClients; ++i) {
    gens.emplace_back(config.seed * 1000003 + static_cast<uint64_t>(i));
  }

  // Warm-up, excluded: fills the hot set and the rings' caches, and wakes the drain threads.
  Tally warm;
  warm.Add(RunPhase(world.get(), &gens, kLoRate, 0.25 * kWarmupShare * s, nullptr, names));
  warm.Add(RunPhase(world.get(), &gens, kHiRate, 0.75 * kWarmupShare * s, nullptr, names));

  // Untraced run: lo and hi take a quarter of the budget each, then the ladder. A traced run
  // measures lo and hi untraced, then again traced (probes on), and skips the ladder.
  const int windows = config.trace ? 3 : kWindows;
  const double window_s = (config.trace ? 0.18 : 0.25) * s / windows;
  Tally tally;
  FixedRate lo =
      RunFixedRate(world.get(), &gens, kLoRate, windows, window_s, nullptr, names, &tally);
  FixedRate hi =
      RunFixedRate(world.get(), &gens, kHiRate, windows, window_s, nullptr, names, &tally);
  const double rss_mb = PeakRssMb();

  double sustainable = 0;
  int ladder_steps = 0;
  if (!config.trace) {
    // Coarse steps find the first failing rate, then fine steps climb from the last passing
    // one. A step fails only if it fails twice running, so one host hiccup does not end it.
    const int64_t ladder_end = start + static_cast<int64_t>(kMeasureEndShare * s * 1e9);
    const double step_s = 0.01 * s;
    auto passes = [&](double rate) {
      for (int attempt = 0; attempt < 2 && NowNs() < ladder_end; ++attempt) {
        PhaseResult phase = RunPhase(world.get(), &gens, rate, step_s, nullptr, names);
        tally.Add(phase);
        ++ladder_steps;
        // The step's p99 is the median of its thirds' p99s: a stall inside one third of the
        // step does not decide it.
        const ClientPhase& m = phase.merged;
        const double p99 = Median({m.thirds_ns[0].At(0.99).value, m.thirds_ns[1].At(0.99).value,
                                   m.thirds_ns[2].At(0.99).value});
        const bool within = p99 <= kLatencyLimitNs &&
                            m.backlog_at_end <= static_cast<uint64_t>(rate * 1e-3) + 64;
        report->Note("ladder " + FormatDouble(rate / 1e3) + " kreq/s: p99 " +
                     FormatDouble(p99 / 1e3) + " us, backlog " +
                     std::to_string(m.backlog_at_end) + (within ? ", ok" : ", over"));
        if (within) {
          return true;
        }
      }
      return false;
    };
    for (double step : {kLadderCoarse, kLadderFine}) {
      for (double rate = sustainable == 0 ? kHiRate : sustainable * step;
           NowNs() < ladder_end && passes(rate); rate *= step) {
        sustainable = rate;
      }
    }
  }

  FixedRate lo_traced;
  FixedRate hi_traced;
  Tally traced_tally;
  LayerCounters traced_counters;
  if (config.trace) {
    hipec::obs::ScopedProbes probes(true);
    const LayerCounters traced_before =
        LayerCounters::Read(world->daemon->kernel(), world->daemon->engine());
    const int64_t traced_since = NowNs();
    lo_traced = RunFixedRate(world.get(), &gens, kLoRate, windows, window_s, spans.get(), names,
                             &traced_tally);
    const int64_t hi_since = NowNs();
    hi_traced = RunFixedRate(world.get(), &gens, kHiRate, windows, window_s, spans.get(), names,
                             &traced_tally);
    traced_counters =
        LayerCounters::Read(world->daemon->kernel(), world->daemon->engine()) - traced_before;
    // queue_us belongs to the lo phase, whose requests were all due before hi_since.
    const LogHistogram lo_queue = QueueTimeUs(*spans, names.request, traced_since, hi_since);
    report->Set("server.queue_us_p50", lo_queue.At(0.50).value);
    report->Set("server.queue_us_p99", lo_queue.At(0.99).value);
  }

  // Correctness: every request sent completed with kStatusOk, and nothing else arrived.
  Tally all = tally;
  all.requests += traced_tally.requests + warm.requests;
  all.failed += traced_tally.failed + warm.failed;
  all.stray += traced_tally.stray + warm.stray;
  report->outcome.Ok(all.requests - all.failed);
  report->outcome.Fail(all.failed);
  report->Check(all.failed == 0, std::to_string(all.failed) + " requests failed or were lost");
  report->Check(all.stray == 0, std::to_string(all.stray) + " completions matched no request");
  const double lag_p99 = Median(hi.lag_p99_ns);
  report->Check(lag_p99 <= kLagLimitNs && Median(lo.lag_p99_ns) <= kLagLimitNs,
                "generator lateness p99 " + FormatDouble(lag_p99) +
                    " ns exceeds the limit: the run is invalid");

  const double miss_ratio = tally.touches == 0 ? 0.0
                                               : static_cast<double>(tally.faults) /
                                                     static_cast<double>(tally.touches);
  const double lo_p50 = QuietQuartile(lo.p50_ns, false);
  const double delivered = QuietQuartile(hi.delivered_per_s, true);
  ReportSetup(setup, /*slowdown=*/1.0, report);
  report->Set("ops_per_s", delivered);
  report->Set("op_ns_p50", lo_p50);
  report->Set("op_ns_p90", QuietQuartile(hi.p90_ns, false));
  report->Set("miss_ratio", miss_ratio);
  report->Set("peak_rss_mb", rss_mb);
  auto us = [](const std::vector<double>& ns) {
    return FormatDouble(QuietQuartile(ns, false) / 1e3) + " us";
  };
  report->Note("req_us_p50.lo = " + us(lo.p50_ns));
  report->Note("req_us_p99.lo = " + us(lo.p99_ns));
  report->Note("req_us_p50.hi = " + us(hi.p50_ns));
  report->Note("req_us_p90.hi = " + us(hi.p90_ns));
  report->Note("req_us_p99.hi = " + us(hi.p99_ns));
  report->Note("delivered at hi = " + FormatDouble(delivered) + " 1/s");
  report->Note("max_kreq_s = " + FormatDouble(sustainable / 1e3) + " kreq/s (" +
               std::to_string(ladder_steps) + " ladder steps)");
  report->Note("generator lag p99 = " + FormatDouble(lag_p99 / 1e3) + " us (hi)");

  if (!config.trace) {
    return;
  }
  report->Set("server.submit_ns_p50", hi_traced.submit_ns.At(0.50).value);
  report->Set("server.service_ns_p50", hi_traced.service_ns.At(0.50).value);
  report->Set("server.service_ns_p99", hi_traced.service_ns.At(0.99).value);
  report->Set("server.flush_us_p50", traced_tally.flush_ns.At(0.50).value / 1e3);
  int64_t stalls = world->daemon->counters().Get("server.backpressure_stalls");
  for (const auto& client : world->clients) {
    stalls += static_cast<int64_t>(client->backpressure_stalls());
  }
  report->Set("server.backpressure_stalls", static_cast<double>(stalls));
  report->Set("server.faulted_fraction",
              traced_tally.touches == 0 ? 0.0
                                        : static_cast<double>(traced_tally.faults) /
                                              static_cast<double>(traced_tally.touches));
  report->Set("loadgen.lag_us_p99", hi_traced.lag_ns.At(0.99).value / 1e3);
  report->Set("hipec.engine.register_us", Median(install_us));
  ReportLayerCounters(traced_counters, traced_tally.touches, report);
  report->Set("tracing.overhead_pct",
              100.0 * (QuietQuartile(lo_traced.p50_ns, false) / lo_p50 - 1.0));
  if (!config.trace_out.empty()) {
    report->Check(spans->WriteJson(config.trace_out), "cannot write " + config.trace_out);
  }
}

}  // namespace perfbench
