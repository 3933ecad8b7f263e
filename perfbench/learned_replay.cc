// learned_replay: the two score-based policies (AWRP and the online perceptron) over a
// 256-frame private pool replay the three canned traces (traces/*.hpt) and the registry's
// hot_cold, in a loop, one kernel per (policy, workload) cell as in bench_tournament. Each
// eviction interprets a full queue rotation, so the policy executor does almost all the
// work: the opposite of fault_storm.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "hipec/engine.h"
#include "mach/kernel.h"
#include "obs/probe.h"
#include "policies/policies.h"
#include "touch_timer.h"
#include "workloads.h"
#include "workloads/registry.h"
#include "workloads/workload_source.h"

namespace perfbench {

namespace {

using namespace hipec;  // NOLINT: benchmark code
using mach::kPageSize;

constexpr size_t kPoolFrames = 256;
constexpr uint64_t kSpanStride = 64;  // one mach.touch span per this many records
constexpr uint64_t kNextBatch = 1024;  // Next() calls per workloads.next_ns timing
constexpr uint64_t kRssCheckpointAccesses = 500'000;

volatile uint64_t g_next_sink = 0;  // keeps TimeNextBatch's reads observable

struct Cell {
  std::string name;
  std::unique_ptr<mach::Kernel> kernel;
  std::unique_ptr<core::HipecEngine> engine;
  mach::Task* task = nullptr;
  core::HipecRegion region;
  std::unique_ptr<workloads::WorkloadSource> source;
};

struct ReplayWorld {
  std::vector<Cell> cells;
  std::string error;  // set when a trace failed to load
  // The seed shuffles the order the cells take their turns in each round. Each cell has its
  // own kernel, so the order changes nothing the program computes, only what is warm in the
  // host's caches; every cell's reference string is its trace, exactly.
  std::unique_ptr<SplitMix64> order_rng;
};

struct SetupTimes {
  std::vector<double> trace_load_ms;
  std::vector<double> register_us;
};

std::unique_ptr<ReplayWorld> BuildReplay(const RunConfig& config, SetupTimes* times) {
  auto world = std::make_unique<ReplayWorld>();
  const int64_t t0 = NowNs();
  std::vector<workloads::NamedWorkload> grid =
      workloads::LoadTraceDir(config.root + "/traces", &world->error);
  times->trace_load_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
  for (workloads::NamedWorkload& w : workloads::TournamentWorkloads()) {
    if (w.name == "hot_cold") {
      grid.push_back(std::move(w));
    }
  }
  struct Entry {
    const char* name;
    core::PolicyProgram program;
    core::HipecOptions options;
  };
  const Entry entries[] = {
      {"awrp", policies::AwrpPolicy(), {}},
      {"perceptron", policies::PerceptronPolicy(), policies::PerceptronOptions()},
  };
  world->order_rng = std::make_unique<SplitMix64>(config.seed);
  for (const Entry& entry : entries) {
    for (const workloads::NamedWorkload& w : grid) {
      Cell cell;
      cell.name = std::string(entry.name) + "/" + w.name;
      mach::KernelParams params;
      params.total_frames = 1024;
      params.kernel_reserved_frames = 128;
      params.hipec_build = true;
      cell.kernel = std::make_unique<mach::Kernel>(params);
      cell.engine = std::make_unique<core::HipecEngine>(cell.kernel.get());
      cell.task = cell.kernel->CreateTask("app");
      core::HipecOptions options = entry.options;
      options.min_frames = kPoolFrames;
      options.free_target = 4;
      options.inactive_target = 16;
      const int64_t r0 = NowNs();
      cell.region = cell.engine->VmAllocateHipec(
          cell.task, w.source->region_pages() * kPageSize, entry.program, options);
      times->register_us.push_back(static_cast<double>(NowNs() - r0) * 1e-3);
      cell.source = w.source->Clone();
      world->cells.push_back(std::move(cell));
    }
  }
  return world;
}

// Wall ns for kNextBatch WorkloadSource::Next() calls on `probe`, a clone of a cell's
// source (clones share the records and have their own cursor), wrapping to the start as the
// replay does. One pair of clock reads per batch, so the clock's own cost is a small share
// of the figure.
int64_t TimeNextBatch(workloads::WorkloadSource* probe) {
  workloads::Access access;
  uint64_t sink = 0;
  const int64_t t0 = NowNs();
  for (uint64_t i = 0; i < kNextBatch; ++i) {
    if (!probe->Next(&access)) {
      probe->Seek(0);
      probe->Next(&access);
    }
    sink += access.vpage;
  }
  const int64_t ns = NowNs() - t0;
  g_next_sink = sink;
  return ns;
}

// One cell's turn: its fault-time percentiles, accesses and wall time.
struct Turn {
  double p50_ns = 0;
  double p90_ns = 0;
  double p99_ns = 0;
  uint64_t touches = 0;
  int64_t ns = 0;
};

// A cell measured over its slow turns.
//
// Why: on the shared 4-vCPU VM this was tuned on, each turn of a cell ran at one of two
// speeds almost exactly 2x apart (awrp/compile: 22 or 44 µs per fault), switching from turn
// to turn, most likely as a host hyperthread sibling came and went. The share of fast turns
// ranged from 0% to 86% between runs, so any fixed quantile over turns jumps 2x when that
// share crosses it. HostSlowdown's probes saw at most 1.35x of the 2x (probes with long
// dispatch patterns, L1-sized pointer chases and large code footprints did no better), so
// normalizing by them added noise. Slow turns were at least 14% of every cell's turns in
// all 31 runs looked at, while 3 of 20 runs had no fast turn at all. Over 11 runs, the
// slow-turn p50 and p90 spread 4% and 2% (IQR/median); fast turns spread 9% and 17%, the
// quiet quartile of probe-normalized turns 25%, and of raw turns 51%. A program change
// moves both speeds alike, so the slow turns still move with it.
struct CellFigures {
  double p50_ns = 0;
  double p90_ns = 0;
  double p99_ns = 0;
  double ns_per_access = 0;
  size_t slow_turns = 0;
};

// Turns whose p50 is within this factor either side of the cell's second-slowest turn
// count as slow. The second-slowest, so that one stalled turn cannot set the band.
constexpr double kSlowBand = 1.4;

CellFigures SlowTurnFigures(const std::vector<Turn>& turns) {
  CellFigures out;
  std::vector<double> p50s;
  for (const Turn& t : turns) {
    if (t.p50_ns > 0) {
      p50s.push_back(t.p50_ns);
    }
  }
  if (p50s.empty()) {
    return out;
  }
  std::sort(p50s.begin(), p50s.end());
  const double ref = p50s[p50s.size() >= 2 ? p50s.size() - 2 : 0];
  uint64_t touches = 0;
  int64_t ns = 0;
  for (const Turn& t : turns) {
    if (t.p50_ns > 0 && t.p50_ns >= ref / kSlowBand && t.p50_ns <= ref * kSlowBand) {
      out.p50_ns += t.p50_ns;
      out.p90_ns += t.p90_ns;
      out.p99_ns += t.p99_ns;
      touches += t.touches;
      ns += t.ns;
      ++out.slow_turns;
    }
  }
  if (out.slow_turns > 0) {
    const double n = static_cast<double>(out.slow_turns);
    out.p50_ns /= n;
    out.p90_ns /= n;
    out.p99_ns /= n;
    out.ns_per_access = static_cast<double>(ns) / static_cast<double>(touches);
  }
  return out;
}

struct PhaseResult {
  std::vector<std::vector<Turn>> turns;  // per cell, one per round
  size_t rounds = 0;
  TouchStats total;
  LogHistogram next_ns;
  int64_t virtual_ns = 0;
  uint64_t allocations = 0;
  LayerCounters counters;
  bool ok = true;
  std::string kill;
};

// Replays every cell's whole stream once per round, continuing from where the previous round
// stopped, until `deadline` and for at least `min_rounds` rounds. With `spans` non-null the
// phase is the traced one.
PhaseResult Measure(ReplayWorld* world, int64_t deadline, size_t min_rounds, SpanBuffer* spans,
                    RssCheckpoint* rss, uint64_t* accesses_done) {
  PhaseResult result;
  result.turns.resize(world->cells.size());
  std::vector<size_t> order(world->cells.size());
  std::vector<TouchTimer> timers;
  std::vector<LayerCounters> before;
  std::vector<std::unique_ptr<workloads::WorkloadSource>> next_probes;  // traced phase only
  for (Cell& cell : world->cells) {
    if (spans != nullptr) {
      next_probes.push_back(cell.source->Clone());
    }
    timers.emplace_back(cell.kernel.get(), cell.engine.get());
    before.push_back(LayerCounters::Read(*cell.kernel, *cell.engine));
    result.virtual_ns -= cell.kernel->clock().now();
  }
  const uint32_t round_name = spans != nullptr ? spans->Name("learned_replay.round") : 0;
  const uint32_t cell_name = spans != nullptr ? spans->Name("learned_replay.cell") : 0;
  const uint32_t touch_name = spans != nullptr ? spans->Name("mach.touch") : 0;
  const uint64_t allocs_before = AllocCount();
  SetAllocCounting(spans != nullptr);
  TouchStats round;
  TouchStats turn;
  workloads::Access access;
  while ((result.rounds < min_rounds || NowNs() < deadline) && result.ok) {
    round.Clear();
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    for (size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[world->order_rng->Below(i + 1)]);
    }
    const int64_t t0 = NowNs();
    const uint32_t round_span =
        spans != nullptr ? spans->Begin(round_name, kNoSpan, 0, t0) : kNoSpan;
    for (size_t c : order) {
      if (!result.ok) {
        break;
      }
      Cell& cell = world->cells[c];
      turn.Clear();
      if (spans != nullptr) {
        result.next_ns.Record(TimeNextBatch(next_probes[c].get()));
      }
      const int64_t turn_start = NowNs();
      const uint32_t cell_span =
          spans != nullptr ? spans->Begin(cell_name, round_span, c, turn_start) : kNoSpan;
      const uint64_t records = cell.source->size();
      for (uint64_t i = 0; i < records; ++i) {
        if (!cell.source->Next(&access)) {
          cell.source->Seek(0);
          cell.source->Next(&access);
        }
        const uint64_t addr = cell.region.addr + access.vpage * kPageSize;
        SpanBuffer* sampled = i % kSpanStride == 0 ? spans : nullptr;
        if (!timers[c].Touch(cell.task, addr, access.is_write(), &turn, sampled, touch_name,
                             cell_span, i)) {
          result.ok = false;
          result.kill = cell.name + ": " + cell.task->termination_reason();
          break;
        }
      }
      const int64_t turn_end = NowNs();
      if (spans != nullptr) {
        spans->End(cell_span, turn_end);
      }
      result.turns[c].push_back({turn.fault_ns.At(0.50).value, turn.fault_ns.At(0.90).value,
                                 turn.fault_ns.At(0.99).value, turn.touches,
                                 turn_end - turn_start});
      round.Merge(turn);
    }
    const int64_t t1 = NowNs();
    if (spans != nullptr) {
      spans->End(round_span, t1);
    }
    *accesses_done += round.touches;
    rss->Observe(*accesses_done);
    ++result.rounds;
    result.total.Merge(round);
  }
  SetAllocCounting(false);
  result.allocations = AllocCount() - allocs_before;
  for (size_t c = 0; c < world->cells.size(); ++c) {
    Cell& cell = world->cells[c];
    result.virtual_ns += cell.kernel->clock().now();
    result.counters += LayerCounters::Read(*cell.kernel, *cell.engine) - before[c];
  }
  return result;
}

// A phase's figures: the geometric mean over cells of each cell's slow-turn percentiles,
// and the accesses per second of one round with every cell at its slow-turn speed. Pooling
// all cells' faults into one distribution would put its median between the two policies'
// fault-cost clusters, where it jumps when the mix shifts.
struct PhaseFigures {
  double p50_ns = 0;
  double p90_ns = 0;
  double p99_ns = 0;
  double ops_per_s = 0;
  std::vector<CellFigures> cells;
};

PhaseFigures Summarize(const ReplayWorld& world, const PhaseResult& phase) {
  PhaseFigures out;
  double log50 = 0;
  double log90 = 0;
  double log99 = 0;
  double records = 0;
  double round_ns = 0;
  for (size_t c = 0; c < world.cells.size(); ++c) {
    const CellFigures cell = SlowTurnFigures(phase.turns[c]);
    log50 += std::log(std::max(cell.p50_ns, 1.0));
    log90 += std::log(std::max(cell.p90_ns, 1.0));
    log99 += std::log(std::max(cell.p99_ns, 1.0));
    const double size = static_cast<double>(world.cells[c].source->size());
    records += size;
    round_ns += size * cell.ns_per_access;
    out.cells.push_back(cell);
  }
  const double n = static_cast<double>(world.cells.size());
  out.p50_ns = std::exp(log50 / n);
  out.p90_ns = std::exp(log90 / n);
  out.p99_ns = std::exp(log99 / n);
  out.ops_per_s = round_ns > 0 ? records * 1e9 / round_ns : 0.0;
  return out;
}

}  // namespace

void RunLearnedReplay(const RunConfig& config, Report* report) {
  const int64_t start = config.start_ns;
  std::unique_ptr<SpanBuffer> spans =
      config.trace ? std::make_unique<SpanBuffer>(kSpanCapacity) : nullptr;
  SetupTimes times;
  SetupTiming setup;
  std::unique_ptr<ReplayWorld> world = RepeatSetup<std::unique_ptr<ReplayWorld>>(
      kSetupReps, config, [&] { return BuildReplay(config, &times); }, &setup);
  const double setup_slowdown = HostSlowdown();
  report->Check(world->error.empty(), "trace load: " + world->error);
  report->Check(world->cells.size() == 8, "expected 2 policies x 4 workloads, got " +
                                              std::to_string(world->cells.size()) + " cells");
  for (const Cell& cell : world->cells) {
    report->Check(cell.region.ok, cell.name + ": registration rejected: " + cell.region.error);
  }
  if (!report->correct()) {
    report->outcome.Fail(1);
    return;
  }

  // Warm-up rounds (at least one, so every cell is warm) are excluded; measuring ends at
  // kMeasureEndShare of the budget. A traced run measures its first half untraced and its
  // second half traced, with probes on.
  RssCheckpoint rss(kRssCheckpointAccesses);
  uint64_t accesses = 0;
  PhaseResult warm =
      Measure(world.get(), start + static_cast<int64_t>(kWarmupShare * config.seconds * 1e9), 1,
              nullptr, &rss, &accesses);
  const int64_t end = start + static_cast<int64_t>(kMeasureEndShare * config.seconds * 1e9);
  const int64_t mid = config.trace ? NowNs() + (end - NowNs()) / 2 : end;
  PhaseResult plain = Measure(world.get(), mid, 1, nullptr, &rss, &accesses);
  PhaseResult traced;
  if (config.trace) {
    hipec::obs::ScopedProbes probes(true);
    traced = Measure(world.get(), end, 1, spans.get(), &rss, &accesses);
  }
  const PhaseResult& last = config.trace ? traced : plain;

  uint64_t records_per_round = 0;
  for (const Cell& cell : world->cells) {
    records_per_round += cell.source->size();
  }
  bool all_ok = true;
  const PhaseResult* phases[] = {&warm, &plain, &last};
  for (const PhaseResult* phase : phases) {
    report->Check(phase->ok, "task killed: " + phase->kill);
    report->Check(phase->total.touches == phase->rounds * records_per_round,
                  "a round did not replay every record");
    all_ok = all_ok && phase->ok;
  }
  const uint64_t touches = plain.total.touches + (config.trace ? traced.total.touches : 0);
  const uint64_t faults = plain.total.faults + (config.trace ? traced.total.faults : 0);
  report->Check(plain.rounds > 0, "no measured round finished");
  if (all_ok) {
    report->outcome.Ok(touches);
  } else {
    report->outcome.Fail(1);
  }

  const double miss_ratio =
      touches == 0 ? 0.0 : static_cast<double>(faults) / static_cast<double>(touches);
  const PhaseFigures figures = Summarize(*world, plain);
  const double ops = figures.ops_per_s;
  const double p50 = figures.p50_ns;
  const double p90 = figures.p90_ns;
  const double virtual_ms_per_kaccess =
      last.total.touches == 0 ? 0.0
                              : static_cast<double>(last.virtual_ns) * 1e-6 /
                                    (static_cast<double>(last.total.touches) * 1e-3);
  ReportSetup(setup, setup_slowdown, report);
  report->Set("ops_per_s", ops);
  report->Set("op_ns_p50", p50);
  report->Set("op_ns_p90", p90);
  report->Set("miss_ratio", miss_ratio);
  report->Set("peak_rss_mb", rss.Mb());
  report->Note("accesses_per_s = " + FormatDouble(ops) + " 1/s (" +
               std::to_string(plain.rounds) + " rounds of " +
               std::to_string(records_per_round) + " records)");
  report->Note("fault_ns_p50 = " + FormatDouble(p50) + " ns (geomean over cells)");
  report->Note("fault_ns_p90 = " + FormatDouble(p90) + " ns (geomean over cells)");
  report->Note("fault_ns_p99 = " + FormatDouble(figures.p99_ns) +
               " ns (geomean over cells; " + std::to_string(plain.total.fault_ns.count()) +
               " faults timed)");
  for (size_t c = 0; c < world->cells.size(); ++c) {
    const CellFigures& cell = figures.cells[c];
    report->Note("  " + world->cells[c].name + ": fault_ns p50 " + FormatDouble(cell.p50_ns) +
                 ", p99 " + FormatDouble(cell.p99_ns) + " over " +
                 std::to_string(cell.slow_turns) + " slow of " +
                 std::to_string(plain.turns[c].size()) + " turns");
  }
  report->Note("hit_ratio = " + FormatDouble(1.0 - miss_ratio));
  report->Note("virtual_ms_per_kaccess = " + FormatDouble(virtual_ms_per_kaccess) + " ms");

  // After measuring and after the RSS reading: the scenario layer's one population.
  RunScenarioChurn(config, spans.get(), report);

  if (!config.trace) {
    return;
  }
  const TouchStats& t = traced.total;
  const double traced_faults = t.faults == 0 ? 1.0 : static_cast<double>(t.faults);
  report->Set("mach.touch_hit_ns_p50", t.hit_ns.At(0.50).value);
  report->Set("mach.fault_clean_ns_p50", t.clean_ns.At(0.50).value);
  report->Set("mach.fault_dirty_ns_p50", t.dirty_ns.At(0.50).value);
  report->Set("mach.fault_dirty_ns_p99", t.dirty_ns.At(0.99).value);
  report->Set("mach.fault_fill_ns_p50", t.fill_ns.At(0.50).value);
  report->Set("mach.allocs_per_fault", static_cast<double>(traced.allocations) / traced_faults);
  report->Set("mach.virtual_ms_per_kaccess", virtual_ms_per_kaccess);
  report->Set("hipec.engine.register_us", Median(times.register_us) / setup_slowdown);
  report->Set("workloads.trace_load_ms", Median(times.trace_load_ms) / setup_slowdown);
  report->Set("workloads.next_ns",
              traced.next_ns.At(0.50).value / static_cast<double>(kNextBatch));
  ReportLayerCounters(traced.counters, t.touches, report);
  report->Set("tracing.overhead_pct",
              100.0 * (Summarize(*world, traced).p50_ns / p50 - 1.0));
  if (!config.trace_out.empty()) {
    report->Check(spans->WriteJson(config.trace_out), "cannot write " + config.trace_out);
  }
}

}  // namespace perfbench
