#include "scenario/scheduler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "hipec/engine.h"
#include "mach/frame_pool.h"
#include "mach/kernel.h"
#include "obs/flight_recorder.h"
#include "obs/probe.h"
#include "scenario/invariants.h"
#include "sim/check.h"
#include "sim/lock.h"

namespace hipec::scenario {

using mach::kPageSize;

namespace {

const obs::ProbeId kPrbSliceNs = obs::InternProbe("scheduler.slice_ns");
const obs::ProbeId kPrbAdmitNs = obs::InternProbe("scheduler.admit_ns");
const obs::ProbeId kPrbRunQueueLen = obs::InternProbe("scheduler.run_queue_len");

int64_t HostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One tenant's lifetime across the scheduler. Only the worker currently running the tenant
// touches this state (the run-queue lock is the handoff fence); teardown_requested is the
// single cross-thread field, set by the control thread's injection replay. The source is
// built at admission and freed at retirement.
struct TenantRun : LiveTenant {
  size_t slices_run = 0;
  std::atomic<bool> teardown_requested{false};
};

// One worker's run queue. Rank kRunQueue is terminal: pops/pushes happen under it and
// nothing else is acquired while it is held; a stealer takes a sibling's via try-lock only.
struct WorkerState {
  sim::OrderedMutex mu{sim::LockRank::kRunQueue};
  std::deque<TenantRun*> queue;
  int64_t slices = 0;
  int64_t steals = 0;
};

class Scheduler {
 public:
  explicit Scheduler(const SchedulerSpec& spec) : spec_(spec) {
    mach::KernelParams params;
    params.total_frames = spec_.total_frames;
    params.kernel_reserved_frames = spec_.kernel_reserved_frames;
    params.hipec_build = true;
    params.seed = spec_.seed;
    params.exec_mode = sim::ExecMode::kRealThreads;
    if (spec_.free_pool_shards > 0) {
      params.free_pool_shards = spec_.free_pool_shards;
    }
    params.daemon_shards = spec_.daemon_shards;
    kernel_ = std::make_unique<mach::Kernel>(params);
    engine_ = std::make_unique<core::HipecEngine>(kernel_.get(), spec_.manager);
    probes_.EnableConcurrent();

    if (spec_.flight_recorder_window > 0) {
      recorder_ = std::make_unique<obs::FlightRecorder>(&kernel_->tracer(),
                                                        spec_.flight_recorder_window);
      recorder_->AddCounterSource("kernel", &kernel_->counters());
      recorder_->AddCounterSource("pageout", &kernel_->daemon().counters());
      recorder_->AddCounterSource("engine", &engine_->counters());
      recorder_->AddProbeSource("scheduler", &probes_);
      if (spec_.flight_recorder_sink) {
        recorder_->SetSink(spec_.flight_recorder_sink);
      }
    }

    engine_->checker().SetTimeoutObserver([this](uint64_t container_id) {
      std::lock_guard<std::mutex> lk(kills_mu_);
      killed_.insert(container_id);
    });

    runs_.reserve(spec_.tenants.size());
    for (const TenantSpec& tenant : spec_.tenants) {
      auto run = std::make_unique<TenantRun>();
      run->spec = tenant;
      run->result.name = tenant.name;
      runs_.push_back(std::move(run));
    }
    // Injected tenants are created by the control thread at fire time; the slots are
    // reserved up front so the vector never reallocates under the workers' feet.
    injected_runs_.reserve(spec_.injections.size());
    for (const InjectionSpec& inj : spec_.injections) {
      if (InjectsTenant(inj)) {
        pending_injections_.fetch_add(1, std::memory_order_relaxed);
      }
    }

    size_t n_workers = std::max<size_t>(1, spec_.workers);
    workers_.reserve(n_workers);
    for (size_t i = 0; i < n_workers; ++i) {
      auto w = std::make_unique<WorkerState>();
      w->mu.Enable(true);
      workers_.push_back(std::move(w));
    }
  }

  SchedulerResult Run() {
    const auto start = std::chrono::steady_clock::now();
    run_start_ns_ = HostNowNs();
    // The first wave is admitted from this thread, in spec order, one tenant per worker
    // queue: admission verdicts against the burst watermark then depend on the spec alone,
    // not on which worker thread wins the race to its first TryAdmit. Later admissions stay
    // lazy (a worker admits only when its own queue is empty).
    for (auto& w : workers_) {
      TenantRun* run = TryAdmit();
      if (run == nullptr) {
        break;
      }
      sim::ScopedLock lock(w->mu);
      w->queue.push_back(run);
    }
    std::vector<std::thread> threads;
    threads.reserve(workers_.size());
    for (size_t i = 0; i < workers_.size(); ++i) {
      threads.emplace_back([this, i] { WorkerLoop(i); });
    }
    ControlLoop();
    for (std::thread& t : threads) {
      t.join();
    }
    const auto end = std::chrono::steady_clock::now();
    if (!violation_.empty()) {
      throw sim::CheckFailure("scheduler-audit: " + violation_);
    }
    return Finish(std::chrono::duration<double>(end - start).count());
  }

 private:
  // --- tenant lifecycle ----------------------------------------------------------------------

  void Register(TenantRun& run, uint64_t ordinal) {
    int64_t t0 = obs::ProbesEnabled() ? HostNowNs() : 0;
    run.source = MaterializeSource(run.spec, spec_.seed, ordinal);
    {
      sim::SharedWorldGuard world(kernel_->world());
      run.Admit(*kernel_, *engine_);
    }
    if (obs::ProbesEnabled()) {
      probes_.Record(kPrbAdmitNs, HostNowNs() - t0);
    }
  }

  void Retire(TenantRun& run) {
    {
      sim::SharedWorldGuard world(kernel_->world());
      kernel_->TerminateTask(run.task, "scheduler retire");
    }
    // Free the source now: live memory scales with max_live_tenants, not the population
    // (synthetic sources own their records; trace clones only drop a refcount).
    run.source.reset();
    retired_.fetch_add(1, std::memory_order_relaxed);
    live_.fetch_sub(1, std::memory_order_release);
  }

  // Runs one slice of `run`; returns true if the tenant should be re-queued.
  bool RunSlice(WorkerState& me, TenantRun& run) {
    ++me.slices;
    int64_t t0 = obs::ProbesEnabled() ? HostNowNs() : 0;
    if (run.teardown_requested.load(std::memory_order_acquire) && !run.result.torn_down &&
        !run.task->terminated()) {
      run.Snapshot();
      {
        sim::SharedWorldGuard world(kernel_->world());
        kernel_->VmDeallocate(run.task, run.addr);
      }
      run.container = nullptr;
      run.result.torn_down = true;
      Retire(run);
      return false;
    }
    size_t end = std::min<size_t>(run.result.accesses_done + spec_.slice_accesses,
                                  run.source->size());
    workloads::Access access;
    while (run.result.accesses_done < end) {
      if (run.task->terminated()) {
        break;
      }
      run.source->Next(&access);
      if (!kernel_->Touch(run.task, run.addr + access.vpage * kPageSize,
                          access.is_write())) {
        run.source->Seek(run.source->pos() - 1);
        break;  // terminated mid-access (checker kill or policy error)
      }
      ++run.result.accesses_done;
    }
    run.Snapshot();
    ++run.slices_run;
    if (obs::ProbesEnabled()) {
      probes_.Record(kPrbSliceNs, HostNowNs() - t0);
    }
    if (run.task->terminated()) {
      run.result.terminated = true;
      run.result.termination_reason = run.task->termination_reason();
      run.result.ended_early_at_ns = HostNowNs() - run_start_ns_;
      Retire(run);
      return false;
    }
    if (run.result.accesses_done == run.source->size()) {
      run.result.completed = true;
      Retire(run);
      return false;
    }
    if (run.spec.departure_step >= 0 &&
        run.slices_run >= static_cast<size_t>(run.spec.departure_step)) {
      run.result.terminated = true;  // departed: ended before completing its trace
      Retire(run);
      return false;
    }
    return true;
  }

  // --- the M:N loop --------------------------------------------------------------------------

  TenantRun* PopLocal(WorkerState& me) {
    sim::ScopedLock lock(me.mu);
    if (obs::ProbesEnabled()) {
      probes_.Record(kPrbRunQueueLen, static_cast<int64_t>(me.queue.size()));
    }
    if (me.queue.empty()) {
      return nullptr;
    }
    TenantRun* run = me.queue.front();
    me.queue.pop_front();
    return run;
  }

  TenantRun* TryAdmit() {
    // Reserve a live slot before claiming an index, so the population in the kernel never
    // exceeds max_live_tenants.
    size_t live = live_.load(std::memory_order_relaxed);
    for (;;) {
      if (live >= spec_.max_live_tenants) {
        return nullptr;
      }
      if (live_.compare_exchange_weak(live, live + 1, std::memory_order_acq_rel)) {
        break;
      }
    }
    size_t idx = next_admit_.fetch_add(1, std::memory_order_relaxed);
    if (idx >= runs_.size()) {
      live_.fetch_sub(1, std::memory_order_release);
      return nullptr;
    }
    TenantRun& run = *runs_[idx];
    Register(run, idx);
    return &run;
  }

  TenantRun* TrySteal(size_t self) {
    for (size_t i = 1; i < workers_.size(); ++i) {
      WorkerState& victim = *workers_[(self + i) % workers_.size()];
      sim::ScopedTryLock lock(victim.mu);
      if (!lock.owns() || victim.queue.empty()) {
        continue;
      }
      // Steal from the tail: the victim pops from the head, so contention on a deep queue
      // lands on opposite ends.
      TenantRun* run = victim.queue.back();
      victim.queue.pop_back();
      ++workers_[self]->steals;
      return run;
    }
    return nullptr;
  }

  bool AllWorkDone() const {
    // Order matters: live is read before pending_injections, and the control thread
    // increments live before decrementing pending (release), so a worker can never observe
    // "no live tenants and no pending injections" while an injected tenant is being born.
    if (next_admit_.load(std::memory_order_relaxed) < runs_.size()) {
      return false;
    }
    if (live_.load(std::memory_order_acquire) > 0) {
      return false;
    }
    return pending_injections_.load(std::memory_order_acquire) == 0;
  }

  void WorkerLoop(size_t wid) {
    WorkerState& me = *workers_[wid];
    std::unique_ptr<mach::FrameMagazine> magazine;
    if (spec_.magazine_capacity > 0) {
      sim::SharedWorldGuard world(kernel_->world());
      magazine = std::make_unique<mach::FrameMagazine>(&kernel_->daemon().free_pool(),
                                                       spec_.magazine_capacity,
                                                       "worker" + std::to_string(wid));
      kernel_->daemon().AttachThreadMagazine(magazine.get());
    }
    for (;;) {
      TenantRun* run = PopLocal(me);
      if (run == nullptr) {
        run = TryAdmit();
      }
      if (run == nullptr) {
        run = TrySteal(wid);
      }
      if (run == nullptr) {
        if (AllWorkDone()) {
          break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        continue;
      }
      if (RunSlice(me, *run)) {
        sim::ScopedLock lock(me.mu);
        me.queue.push_back(run);
      }
    }
    if (magazine != nullptr) {
      kernel_->daemon().DetachThreadMagazine();
      // Flush inside the world lock: the auditor must never catch frames mid-transfer, and
      // destruction unregisters the magazine from the pool's accounting.
      sim::SharedWorldGuard world(kernel_->world());
      magazine->Flush(kernel_->clock().now());
      magazine.reset();
    }
  }

  // --- control thread: injections + audits ---------------------------------------------------

  void InjectTenant(const InjectionSpec& inj, int ordinal) {
    auto run = std::make_unique<TenantRun>();
    run->spec = InjectedTenantSpec(inj, ordinal);
    if (run->spec.policy == PolicyKind::kLooping) {
      // A looping policy only ends via the security checker; give it a short fuse so the
      // kill lands within the scenario.
      run->spec.timeout_ns = 50 * sim::kMillisecond;
    }
    run->result.name = run->spec.name;
    run->result.injected = true;
    TenantRun& r = *run;
    injected_runs_.push_back(std::move(run));
    // Injected tenants bypass the admission window (the whole point is perturbing a full
    // system). live_ goes up before pending_injections_ comes down — see AllWorkDone().
    live_.fetch_add(1, std::memory_order_relaxed);
    Register(r, runs_.size() + static_cast<uint64_t>(ordinal));
    {
      WorkerState& w = *workers_[static_cast<size_t>(ordinal) % workers_.size()];
      sim::ScopedLock lock(w.mu);
      w.queue.push_front(&r);  // front: perturb now, not after the backlog
    }
    pending_injections_.fetch_sub(1, std::memory_order_release);
  }

  void ControlLoop() {
    struct Event {
      int at_ms;
      enum { kApply, kClearSpike } what;
      const InjectionSpec* inj;
      int ordinal;
    };
    std::vector<Event> events;
    int ordinal = 0;
    for (const InjectionSpec& inj : spec_.injections) {
      int ord = InjectsTenant(inj) ? ordinal++ : -1;
      events.push_back({inj.at_step, Event::kApply, &inj, ord});
      if (inj.kind == InjectionKind::kDiskLatencySpike) {
        events.push_back({inj.at_step + inj.duration_steps, Event::kClearSpike, &inj, -1});
      }
    }
    std::sort(events.begin(), events.end(),
              [](const Event& a, const Event& b) { return a.at_ms < b.at_ms; });

    const auto start = std::chrono::steady_clock::now();
    auto elapsed_ms = [&start] {
      return static_cast<int>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                  std::chrono::steady_clock::now() - start)
                                  .count());
    };
    size_t next_event = 0;
    auto last_audit = start;
    while (!AllWorkDone() || next_event < events.size()) {
      if (AllWorkDone() && next_event < events.size()) {
        // Workers are gone; unfired tenant injections must release their pending count or
        // the exit condition above (workers already checked it) would have been wrong — and
        // a lingering disk spike must not outlive the run.
        for (; next_event < events.size(); ++next_event) {
          const Event& ev = events[next_event];
          if (ev.what == Event::kApply && InjectsTenant(*ev.inj)) {
            pending_injections_.fetch_sub(1, std::memory_order_release);
          }
        }
        kernel_->disk().InjectReadLatency(0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      while (next_event < events.size() && events[next_event].at_ms <= elapsed_ms() &&
             !AllWorkDone()) {
        const Event& ev = events[next_event++];
        switch (ev.what) {
          case Event::kClearSpike:
            kernel_->disk().InjectReadLatency(0);
            break;
          case Event::kApply:
            switch (ev.inj->kind) {
              case InjectionKind::kDiskLatencySpike:
                kernel_->disk().InjectReadLatency(ev.inj->extra_latency_ns);
                break;
              case InjectionKind::kTeardown:
                if (ev.inj->tenant_index < runs_.size()) {
                  runs_[ev.inj->tenant_index]->teardown_requested.store(
                      true, std::memory_order_release);
                }
                break;
              case InjectionKind::kPolicyLoop:
              case InjectionKind::kReserveStarvation:
                InjectTenant(*ev.inj, ev.ordinal);
                break;
            }
            break;
        }
      }
      if (spec_.audit && violation_.empty() &&
          std::chrono::steady_clock::now() - last_audit >=
              std::chrono::milliseconds(spec_.audit_interval_ms) &&
          !AllWorkDone()) {
        last_audit = std::chrono::steady_clock::now();
        sim::ExclusiveWorldGuard world(kernel_->world());
        AuditReport report = AuditFrameInvariants(*engine_);
        ++audits_;
        if (!report.ok) {
          violation_ = report.violation;
          if (recorder_ != nullptr) {
            recorder_->Dump("scheduler-audit: " + report.violation);
          }
        }
      }
    }
  }

  SchedulerResult Finish(double wall_seconds) {
    // Any tenant still registered (shouldn't happen — workers drain everything — but a
    // violation-aborted audit loop leaves no guarantees) is torn down before the final audit.
    for (auto* runs : {&runs_, &injected_runs_}) {
      for (auto& run : *runs) {
        if (run->task != nullptr && !run->task->terminated()) {
          run->Snapshot();
          kernel_->TerminateTask(run->task, "scheduler end");
        }
      }
    }
    kernel_->disk().DrainWrites();

    {
      sim::ExclusiveWorldGuard world(kernel_->world());
      AuditReport report = AuditFrameInvariants(*engine_);
      ++audits_;
      if (!report.ok) {
        if (recorder_ != nullptr) {
          recorder_->Dump("scheduler-final-audit: " + report.violation);
        }
        throw sim::CheckFailure("scheduler-final-audit: " + report.violation);
      }
    }

    SchedulerResult result;
    result.name = spec_.name;
    result.workers = workers_.size();
    result.tenants_total = runs_.size() + injected_runs_.size();
    result.audits_run = audits_;
    result.wall_seconds = wall_seconds;
    {
      std::lock_guard<std::mutex> lk(kills_mu_);
      result.checker_kills = static_cast<int64_t>(killed_.size());
      auto collect = [&](TenantRun& run) {
        run.result.killed_by_checker =
            run.container_id != 0 && killed_.contains(run.container_id);
        if (run.task == nullptr) {
          return;  // never admitted (population exhausted the scenario first)
        }
        if (run.result.admitted) {
          ++result.admitted;
        } else {
          ++result.denied;
        }
        if (run.result.completed) {
          ++result.completed;
        } else if (run.result.torn_down) {
          ++result.torn_down;
        } else if (run.result.terminated && !run.result.killed_by_checker &&
                   run.spec.departure_step >= 0 &&
                   run.slices_run >= static_cast<size_t>(run.spec.departure_step)) {
          ++result.departed;
        } else if (run.result.terminated) {
          ++result.terminated;
        }
        result.total_accesses += run.result.accesses_done;
        result.tenants.push_back(run.result);
      };
      for (auto& run : runs_) {
        collect(*run);
      }
      for (auto& run : injected_runs_) {
        collect(*run);
      }
    }
    for (auto& w : workers_) {
      result.slices += w->slices;
      result.steals += w->steals;
    }
    result.total_faults = engine_->counters().Get("engine.faults_handled");
    if (recorder_ != nullptr) {
      result.flight_recorder_dumps = recorder_->dumps();
    }
    if (wall_seconds > 0.0) {
      result.tenants_per_sec =
          static_cast<double>(retired_.load(std::memory_order_relaxed)) / wall_seconds;
      result.faults_per_sec = static_cast<double>(result.total_faults) / wall_seconds;
    }
    return result;
  }

  const SchedulerSpec& spec_;
  std::unique_ptr<mach::Kernel> kernel_;
  std::unique_ptr<core::HipecEngine> engine_;
  std::unique_ptr<obs::FlightRecorder> recorder_;
  obs::ProbeSet probes_;

  std::vector<std::unique_ptr<TenantRun>> runs_;
  std::vector<std::unique_ptr<TenantRun>> injected_runs_;  // control thread only (pre-reserved)
  std::vector<std::unique_ptr<WorkerState>> workers_;

  std::atomic<size_t> next_admit_{0};
  std::atomic<size_t> live_{0};
  std::atomic<size_t> retired_{0};
  std::atomic<size_t> pending_injections_{0};

  std::mutex kills_mu_;
  std::unordered_set<uint64_t> killed_;

  int64_t audits_ = 0;
  int64_t run_start_ns_ = 0;  // HostNowNs() when Run() began
  std::string violation_;
};

}  // namespace

SchedulerResult RunScheduledScenario(const SchedulerSpec& spec) {
  Scheduler scheduler(spec);
  return scheduler.Run();
}

}  // namespace hipec::scenario
