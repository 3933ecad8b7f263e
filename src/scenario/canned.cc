#include "scenario/canned.h"

namespace hipec::scenario {

namespace {

using workloads::PatternKind;

TenantSpec Tenant(std::string name, PolicyKind policy, PatternKind pattern, uint64_t pages,
                  size_t min_frames, size_t accesses, double write_fraction, int arrival) {
  TenantSpec t;
  t.name = std::move(name);
  t.policy = policy;
  t.workload = workloads::Workload::Pattern(
      {.kind = pattern, .pages = pages, .accesses = accesses, .write_fraction = write_fraction});
  t.min_frames = min_frames;
  t.arrival_step = arrival;
  return t;
}

BackgroundSpec Background(std::string name, uint64_t pages, size_t accesses,
                          double write_fraction) {
  BackgroundSpec b;
  b.name = std::move(name);
  b.pages = pages;
  b.accesses = accesses;
  b.write_fraction = write_fraction;
  return b;
}

}  // namespace

ScenarioSpec RampUp() {
  ScenarioSpec spec;
  spec.name = "ramp_up";
  spec.seed = 0xA11CE;
  spec.steps = 40;
  spec.tenants = {
      Tenant("greedy-0", PolicyKind::kGreedy, PatternKind::kHotCold, 128, 24, 1200, 0.2, 0),
      Tenant("fifo2c-1", PolicyKind::kFifoSecondChance, PatternKind::kZipf, 112, 24, 1200,
             0.1, 2),
      Tenant("clock-2", PolicyKind::kClock, PatternKind::kHotCold, 96, 24, 1200, 0.0, 4),
      Tenant("greedy-3", PolicyKind::kGreedy, PatternKind::kUniform, 160, 24, 1200, 0.25, 6),
      Tenant("twoq-4", PolicyKind::kTwoQueue, PatternKind::kZipf, 128, 24, 1200, 0.0, 8),
      Tenant("lru-5", PolicyKind::kLru, PatternKind::kHotCold, 96, 24, 1200, 0.1, 10),
      Tenant("greedy-6", PolicyKind::kGreedy, PatternKind::kBursty, 144, 24, 1200, 0.3, 12),
      Tenant("fifo-7", PolicyKind::kFifo, PatternKind::kStrided, 112, 24, 1200, 0.0, 14),
  };
  spec.background = {
      Background("bg-0", 256, 1200, 0.1),
      Background("bg-1", 192, 1200, 0.0),
      Background("bg-2", 256, 1200, 0.2),
      Background("bg-3", 224, 1200, 0.0),
  };
  return spec;
}

ScenarioSpec ThunderingHerd() {
  ScenarioSpec spec;
  spec.name = "thundering_herd";
  spec.seed = 0x4E4D;
  spec.steps = 24;
  // Rejections require the burst headroom above the pinned minimums to be smaller than one
  // Request: reclamation cannot take a victim below min_frames, so with 8 x 106 frames
  // pinned against a watermark of ~0.49 * boot-free (~878) only ~30 spare frames exist —
  // every 32-frame Request overshoots the watermark by more than the total reclaimable
  // surplus and is denied, and the herd falls back to evicting its own pages.
  spec.manager.partition_burst_fraction = 0.49;
  for (int i = 0; i < 8; ++i) {
    TenantSpec t = Tenant("herd-" + std::to_string(i), PolicyKind::kGreedy,
                          PatternKind::kUniform, 192, 106, 1000, 0.15, 0);
    t.request_size = 32;
    spec.tenants.push_back(std::move(t));
  }
  spec.background = {
      Background("bg-0", 256, 800, 0.0),
      Background("bg-1", 256, 800, 0.1),
      Background("bg-2", 192, 800, 0.0),
      Background("bg-3", 192, 800, 0.0),
  };
  return spec;
}

ScenarioSpec HogVsMany() {
  ScenarioSpec spec;
  spec.name = "hog_vs_many";
  spec.seed = 0x4064;
  spec.steps = 40;
  spec.manager.partition_burst_fraction = 0.45;
  // The hog refuses cooperative reclamation and grows unchecked toward the watermark
  // (~0.45 * boot-free = ~800 frames) while it has the machine to itself. The smalls arrive
  // late with pages == min_frames: they never hold reclaimable surplus, so once the hog plus
  // the admitted smalls cross the watermark, each further admission can only be satisfied by
  // ForcedReclaim seizing the hog's oldest frames (FAFR) — and the hog's own Requests, with
  // nobody else above min, are rejected.
  TenantSpec hog =
      Tenant("hog", PolicyKind::kStubborn, PatternKind::kUniform, 700, 64, 3000, 0.1, 0);
  hog.request_size = 48;
  spec.tenants.push_back(std::move(hog));
  for (int i = 0; i < 6; ++i) {
    spec.tenants.push_back(Tenant("small-" + std::to_string(i), PolicyKind::kGreedy,
                                  PatternKind::kHotCold, 48, 48, 600, 0.1, 16 + 2 * i));
  }
  spec.background = {
      Background("bg-0", 256, 1000, 0.0),
      Background("bg-1", 256, 1000, 0.1),
  };
  return spec;
}

ScenarioSpec Churn() {
  ScenarioSpec spec;
  spec.name = "churn";
  spec.seed = 0xC4C4;
  spec.steps = 44;
  for (int i = 0; i < 8; ++i) {
    // Traces are longer than the scenario: departures and the teardown always interrupt a
    // tenant mid-stream (a trace that finishes before its departure step would make the
    // departure a no-op).
    TenantSpec t = Tenant("churn-" + std::to_string(i),
                          i % 2 == 0 ? PolicyKind::kGreedy : PolicyKind::kFifoSecondChance,
                          i % 3 == 0 ? PatternKind::kBursty : PatternKind::kHotCold, 112, 20,
                          i < 4 ? 4000 : 2200, 0.2, i);
    if (i < 4) {
      t.departure_step = 14 + 3 * i;  // half the population departs mid-scenario
    }
    spec.tenants.push_back(std::move(t));
  }
  // Late arrivals into the space the departures opened.
  spec.tenants.push_back(
      Tenant("late-0", PolicyKind::kGreedy, PatternKind::kZipf, 128, 24, 600, 0.1, 20));
  spec.tenants.push_back(
      Tenant("late-1", PolicyKind::kClock, PatternKind::kHotCold, 96, 24, 600, 0.0, 22));
  spec.background = {
      Background("bg-0", 224, 1000, 0.1),
      Background("bg-1", 224, 1000, 0.0),
  };
  InjectionSpec teardown;
  teardown.kind = InjectionKind::kTeardown;
  teardown.at_step = 8;
  teardown.tenant_index = 2;
  spec.injections.push_back(teardown);
  return spec;
}

ScenarioSpec CheckerKillStorm() {
  ScenarioSpec spec;
  spec.name = "checker_kill_storm";
  spec.seed = 0x511;
  spec.steps = 24;
  // A runaway policy advances the clock only by the per-command decode cost; raise it so the
  // loopers cross their TimeOut within tens of thousands of commands instead of millions.
  spec.command_decode_ns = 10 * sim::kMicrosecond;
  spec.tenants = {
      Tenant("worker-0", PolicyKind::kGreedy, PatternKind::kHotCold, 96, 20, 600, 0.1, 0),
      Tenant("worker-1", PolicyKind::kFifoSecondChance, PatternKind::kZipf, 96, 20, 600, 0.0,
             0),
      Tenant("worker-2", PolicyKind::kClock, PatternKind::kHotCold, 80, 20, 600, 0.1, 1),
      Tenant("worker-3", PolicyKind::kLru, PatternKind::kUniform, 80, 20, 600, 0.0, 1),
  };
  spec.background = {
      Background("bg-0", 192, 600, 0.0),
      Background("bg-1", 192, 600, 0.0),
  };
  for (int i = 0; i < 3; ++i) {
    InjectionSpec loop;
    loop.kind = InjectionKind::kPolicyLoop;
    loop.at_step = 2 + 4 * i;
    loop.pages = 32;
    loop.min_frames = 8;
    loop.accesses = 64;
    spec.injections.push_back(loop);
  }
  return spec;
}

ScenarioSpec ReserveStarvation() {
  ScenarioSpec spec;
  spec.name = "reserve_starvation";
  spec.seed = 0x5A47;
  spec.steps = 30;
  spec.manager.reserve_frames = 4;  // tiny Flush reserve: easy to run dry
  // Policies only execute the Flush command on their own eviction path, and greedy tenants
  // only evict once Request is denied — so pin the writers at min_frames against a low
  // watermark (~0.20 * boot-free = ~358; 4 x 84 = 336 pinned, 22 spare < one 24-frame
  // Request). Every Request overshoots, gets rejected, and the writer evicts its own dirty
  // pages (write_fraction 0.7) through Flush. With 4 reserve frames and millisecond
  // write-backs in flight, the reserve runs dry and Flush degrades to the synchronous path
  // (flush-sync decisions).
  spec.manager.partition_burst_fraction = 0.20;
  for (int i = 0; i < 4; ++i) {
    TenantSpec t = Tenant("writer-" + std::to_string(i), PolicyKind::kGreedy,
                          PatternKind::kUniform, 120, 84, 1400, 0.7, i);
    t.request_size = 24;
    spec.tenants.push_back(std::move(t));
  }
  spec.background = {Background("bg-0", 192, 800, 0.2)};
  InjectionSpec starve;
  starve.kind = InjectionKind::kReserveStarvation;
  starve.at_step = 2;
  starve.pages = 128;
  starve.min_frames = 16;
  starve.accesses = 1024;
  spec.injections.push_back(starve);
  return spec;
}

ScenarioSpec DiskSpike() {
  ScenarioSpec spec;
  spec.name = "disk_spike";
  spec.seed = 0xD15C;
  spec.steps = 30;
  spec.tenants = {
      Tenant("t-0", PolicyKind::kGreedy, PatternKind::kHotCold, 112, 20, 800, 0.15, 0),
      Tenant("t-1", PolicyKind::kFifoSecondChance, PatternKind::kZipf, 112, 20, 800, 0.1, 1),
      Tenant("t-2", PolicyKind::kClock, PatternKind::kUniform, 96, 20, 800, 0.0, 2),
      Tenant("t-3", PolicyKind::kTwoQueue, PatternKind::kZipf, 112, 20, 800, 0.0, 3),
      Tenant("t-4", PolicyKind::kGreedy, PatternKind::kBursty, 96, 20, 800, 0.2, 4),
  };
  spec.background = {
      Background("bg-0", 224, 800, 0.1),
      Background("bg-1", 224, 800, 0.0),
  };
  InjectionSpec spike;
  spike.kind = InjectionKind::kDiskLatencySpike;
  spike.at_step = 8;
  spike.duration_steps = 6;
  spike.extra_latency_ns = 20 * sim::kMillisecond;
  spec.injections.push_back(spike);
  return spec;
}

std::vector<ScenarioSpec> AllCannedScenarios() {
  return {RampUp(),  ThunderingHerd(),    HogVsMany(), Churn(),
          CheckerKillStorm(), ReserveStarvation(), DiskSpike()};
}

}  // namespace hipec::scenario
