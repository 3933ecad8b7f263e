#include "hipec/frame_manager.h"

#include <algorithm>
#include <utility>

#include "sim/check.h"

namespace hipec::core {

namespace {

// Interned counter ids: array-indexed adds on the fault path, no string lookups.
const sim::CounterId kCtrFramesGranted = sim::InternCounter("manager.frames_granted");
const sim::CounterId kCtrBurstHits = sim::InternCounter("manager.burst_hits");
const sim::CounterId kCtrBurstRaised = sim::InternCounter("manager.burst_raised");
const sim::CounterId kCtrBurstLowered = sim::InternCounter("manager.burst_lowered");
const sim::CounterId kCtrAdmissionsRejected = sim::InternCounter("manager.admissions_rejected");
const sim::CounterId kCtrAdmissions = sim::InternCounter("manager.admissions");
const sim::CounterId kCtrRequests = sim::InternCounter("manager.requests");
const sim::CounterId kCtrRequestsRejected = sim::InternCounter("manager.requests_rejected");
const sim::CounterId kCtrFramesReleased = sim::InternCounter("manager.frames_released");
const sim::CounterId kCtrFlushes = sim::InternCounter("manager.flushes");
const sim::CounterId kCtrFlushesClean = sim::InternCounter("manager.flushes_clean");
const sim::CounterId kCtrFlushesSync = sim::InternCounter("manager.flushes_sync");
const sim::CounterId kCtrLaundryDone = sim::InternCounter("manager.laundry_done");
const sim::CounterId kCtrFlushesAsync = sim::InternCounter("manager.flushes_async");
const sim::CounterId kCtrMigrationsRejected = sim::InternCounter("manager.migrations_rejected");
const sim::CounterId kCtrMigrations = sim::InternCounter("manager.migrations");
const sim::CounterId kCtrNormalReclaims = sim::InternCounter("manager.normal_reclaims");
const sim::CounterId kCtrForcedReclaims = sim::InternCounter("manager.forced_reclaims");
const sim::CounterId kCtrLeakedFramesRecovered = sim::InternCounter("manager.leaked_frames_recovered");
const sim::CounterId kCtrContainersRemoved = sim::InternCounter("manager.containers_removed");

// Probe ids: allocation latency, pool occupancy after each grant, and forced-reclamation
// batch sizes. All recording sites are guarded by obs::ProbesEnabled().
const obs::ProbeId kPrbRequestNs = obs::InternProbe("manager.request_ns");
const obs::ProbeId kPrbOccupancyFrames = obs::InternProbe("manager.occupancy_frames");
const obs::ProbeId kPrbForcedReclaimFrames = obs::InternProbe("manager.forced_reclaim_frames");

}  // namespace

GlobalFrameManager::GlobalFrameManager(mach::Kernel* kernel, FrameManagerConfig config)
    : kernel_(kernel),
      config_(config),
      reserve_("hipec_manager_reserve"),
      laundry_("hipec_manager_laundry") {
  boot_free_frames_ = kernel_->boot_free_frames();
  partition_burst_ = static_cast<size_t>(config_.partition_burst_fraction *
                                         static_cast<double>(boot_free_frames_));
  // Stock the clean reserve used by Flush exchanges.
  bool ok = kernel_->daemon().AllocFramesForManager(config_.reserve_frames, &reserve_, this);
  HIPEC_CHECK_MSG(ok, "boot: cannot stock the flush reserve");
  stocked_reserve_ = reserve_.count();
}

void GlobalFrameManager::EnableConcurrent() {
  mu_.Enable(true);
  counters_.EnableConcurrent();
  probes_.EnableConcurrent();
}

void GlobalFrameManager::PollCompletions() {
  if (!kernel_->clock().deterministic()) {
    kernel_->clock().PollDue();
  }
}

// ------------------------------------------------------------------ allocation-ordered list

void GlobalFrameManager::TrackAlloc(mach::VmPage* page) {
  HIPEC_CHECK(!page->on_alloc_list);
  page->on_alloc_list = true;
  page->alloc_seq = next_alloc_seq_++;
  page->alloc_prev = alloc_tail_;
  page->alloc_next = nullptr;
  if (alloc_tail_ != nullptr) {
    alloc_tail_->alloc_next = page;
  } else {
    alloc_head_ = page;
  }
  alloc_tail_ = page;
}

void GlobalFrameManager::UntrackAlloc(mach::VmPage* page) {
  if (!page->on_alloc_list) {
    return;
  }
  if (page->alloc_prev != nullptr) {
    page->alloc_prev->alloc_next = page->alloc_next;
  } else {
    alloc_head_ = page->alloc_next;
  }
  if (page->alloc_next != nullptr) {
    page->alloc_next->alloc_prev = page->alloc_prev;
  } else {
    alloc_tail_ = page->alloc_prev;
  }
  page->alloc_prev = page->alloc_next = nullptr;
  page->on_alloc_list = false;
}

// ------------------------------------------------------------------ grants

bool GlobalFrameManager::GrantFrames(Container* container, size_t n, mach::PageQueue* dest) {
  if (!kernel_->daemon().AllocFramesForManager(n, dest, container)) {
    // Deterministic mode cannot get here (EnsureManagerFrames just succeeded); with real
    // threads, concurrent non-specific faults may have drained the pool in between.
    return false;
  }
  // The n new pages are the queue's last n entries; track them on the allocation-ordered
  // list oldest-first so FAFR's forced reclamation sees true allocation order.
  std::vector<mach::VmPage*> granted;
  granted.reserve(n);
  mach::VmPage* page = dest->tail();
  for (size_t i = 0; i < n; ++i) {
    HIPEC_CHECK(page != nullptr);
    granted.push_back(page);
    page = page->q_prev;
  }
  for (auto it = granted.rbegin(); it != granted.rend(); ++it) {
    TrackAlloc(*it);
  }
  container->allocated_frames += n;
  total_specific_ += n;
  counters_.Add(kCtrFramesGranted, static_cast<int64_t>(n));
  if (obs::ProbesEnabled()) {
    probes_.Record(kPrbOccupancyFrames, static_cast<int64_t>(total_specific_));
  }
  kernel_->tracer().Record(kernel_->clock().now(), sim::TraceCategory::kManager, 0,
                           container->id(), n);
  return true;
}

bool GlobalFrameManager::EnsureManagerFrames(size_t n, Container* requester) {
  auto& daemon = kernel_->daemon();
  if (daemon.AvailableForManager() >= n) {
    return true;
  }
  daemon.Balance();
  if (daemon.AvailableForManager() >= n) {
    return true;
  }
  NormalReclaim(n - daemon.AvailableForManager(), requester);
  if (daemon.AvailableForManager() >= n) {
    return true;
  }
  ForcedReclaim(n - daemon.AvailableForManager(), requester);
  return daemon.AvailableForManager() >= n;
}

bool GlobalFrameManager::CheckBurst(Container* requester, size_t n) {
  if (total_specific_ + n <= partition_burst_) {
    return true;
  }
  counters_.Add(kCtrBurstHits);
  NormalReclaim(total_specific_ + n - partition_burst_, requester);
  if (total_specific_ + n <= partition_burst_) {
    return true;
  }
  ForcedReclaim(total_specific_ + n - partition_burst_, requester);
  return total_specific_ + n <= partition_burst_;
}

void GlobalFrameManager::MaybeAdaptBurst() {
  if (!config_.adaptive_burst) {
    return;
  }
  sim::Nanos now = kernel_->clock().now();
  if (last_adapt_ns_ >= 0 && now - last_adapt_ns_ < config_.burst_adapt_interval_ns) {
    return;
  }
  last_adapt_ns_ = now;
  int64_t daemon_evictions = kernel_->daemon().counters().Get("pageout.evictions");
  int64_t rejected = counters_.Get("manager.requests_rejected") +
                     counters_.Get("manager.admissions_rejected");
  bool nonspecific_pressure = daemon_evictions > last_daemon_evictions_;
  bool specific_pressure = rejected > last_requests_rejected_;
  last_daemon_evictions_ = daemon_evictions;
  last_requests_rejected_ = rejected;

  auto clamp = [this](double fraction) {
    return static_cast<size_t>(
        std::clamp(fraction, config_.burst_min_fraction, config_.burst_max_fraction) *
        static_cast<double>(boot_free_frames_));
  };
  double current =
      static_cast<double>(partition_burst_) / static_cast<double>(boot_free_frames_);
  if (specific_pressure && !nonspecific_pressure) {
    partition_burst_ = clamp(current + config_.burst_step_fraction);
    counters_.Add(kCtrBurstRaised);
  } else if (nonspecific_pressure && !specific_pressure) {
    partition_burst_ = clamp(current - config_.burst_step_fraction);
    counters_.Add(kCtrBurstLowered);
    // Enforce the lowered watermark right away.
    if (total_specific_ > partition_burst_) {
      size_t excess = total_specific_ - partition_burst_;
      if (NormalReclaim(excess, nullptr) < excess && total_specific_ > partition_burst_) {
        ForcedReclaim(total_specific_ - partition_burst_, nullptr);
      }
    }
  }
}

bool GlobalFrameManager::AdmitContainer(Container* container) {
  PollCompletions();
  sim::ScopedLock lock(mu_);
  MaybeAdaptBurst();
  size_t n = container->min_frames();
  if (!CheckBurst(container, n) || !EnsureManagerFrames(n, container) ||
      !GrantFrames(container, n, &container->free_q())) {
    counters_.Add(kCtrAdmissionsRejected);
    NotifyDecision("admit-reject");
    return false;
  }
  containers_.push_back(container);
  counters_.Add(kCtrAdmissions);
  NotifyDecision("admit");
  return true;
}

bool GlobalFrameManager::RequestFrames(Container* container, size_t n, mach::PageQueue* dest) {
  PollCompletions();
  sim::ScopedLock lock(mu_);
  const sim::Nanos start_ns = kernel_->clock().now();
  MaybeAdaptBurst();
  counters_.Add(kCtrRequests);
  ++container->requests_made;
  if (!CheckBurst(container, n) || !EnsureManagerFrames(n, container) ||
      !GrantFrames(container, n, dest)) {
    counters_.Add(kCtrRequestsRejected);
    ++container->requests_rejected;
    if (obs::ProbesEnabled()) {
      probes_.Record(kPrbRequestNs, kernel_->clock().now() - start_ns);
    }
    kernel_->tracer().Record(kernel_->clock().now(), sim::TraceCategory::kManager, 1,
                             container->id(), n);
    NotifyDecision("request-reject");
    return false;
  }
  if (obs::ProbesEnabled()) {
    probes_.Record(kPrbRequestNs, kernel_->clock().now() - start_ns);
  }
  NotifyDecision("request");
  return true;
}

void GlobalFrameManager::OnMemoryPressure() {
  PollCompletions();
  sim::ScopedLock lock(mu_);
  MaybeAdaptBurst();
}

void GlobalFrameManager::ReleaseFrame(Container* container, mach::VmPage* page) {
  PollCompletions();
  sim::ScopedLock lock(mu_);
  HIPEC_CHECK_MSG(page->owner == container, "Release of a frame the application does not own");
  HIPEC_CHECK_MSG(page->queue == nullptr, "Release of a frame still on a queue");
  if (page->object != nullptr) {
    // The caller executes on behalf of the owning task and already holds its lock (its own
    // fault, or a reclaim runner that try-locked the victim), so the try edge cannot fail.
    bool evicted = kernel_->EvictPage(page, /*flush_if_dirty=*/true);
    HIPEC_CHECK(evicted);
  }
  UntrackAlloc(page);
  kernel_->daemon().ReturnFrame(page);
  HIPEC_CHECK(container->allocated_frames > 0);
  --container->allocated_frames;
  --total_specific_;
  counters_.Add(kCtrFramesReleased);
  NotifyDecision("release");
}

mach::VmPage* GlobalFrameManager::FlushExchange(Container* container, mach::VmPage* page) {
  PollCompletions();
  sim::ScopedLock lock(mu_);
  HIPEC_CHECK_MSG(page->owner == container, "Flush of a frame the application does not own");
  counters_.Add(kCtrFlushes);

  bool was_dirty = page->modified;
  uint64_t block = 0;
  if (page->object != nullptr) {
    if (was_dirty) {
      page->object->MarkPagedOut(page->offset);
      block = page->object->BlockFor(page->offset);
    }
    // Caller holds the owning task's lock (see ReleaseFrame).
    bool evicted = kernel_->EvictPage(page, /*flush_if_dirty=*/false);  // we handle the write
    HIPEC_CHECK(evicted);
  }
  if (!was_dirty) {
    counters_.Add(kCtrFlushesClean);
    kernel_->tracer().Record(kernel_->clock().now(), sim::TraceCategory::kManager, 5,
                             container->id(), 0);
    NotifyDecision("flush-clean");
    return page;
  }

  mach::VmPage* replacement = reserve_.DequeueHead();
  if (replacement == nullptr) {
    // Reserve exhausted: fall back to a synchronous write. This is exactly the executor-
    // stalling situation the exchange design exists to avoid (§4.3.1), so count it loudly.
    counters_.Add(kCtrFlushesSync);
    kernel_->disk().WritePageSync(block);
    page->modified = false;
    kernel_->tracer().Record(kernel_->clock().now(), sim::TraceCategory::kManager, 4,
                             container->id(), block);
    NotifyDecision("flush-sync");
    return page;
  }

  // Exchange: the dirty frame joins the laundry and is written back later; the clean reserve
  // frame takes its place in the application's allocation.
  replacement->owner = container;
  replacement->user_word = 0;  // reserve frames may carry a previous owner's score
  UntrackAlloc(page);
  TrackAlloc(replacement);
  page->owner = this;
  page->modified = false;  // contents are en route to disk
  laundry_.EnqueueTail(page, kernel_->clock().now());
  kernel_->disk().WritePageAsync(block, &GlobalFrameManager::LaunderDone, page);
  counters_.Add(kCtrFlushesAsync);
  kernel_->tracer().Record(kernel_->clock().now(), sim::TraceCategory::kManager, 3,
                           container->id(), block);
  NotifyDecision("flush-exchange");
  return replacement;
}

void GlobalFrameManager::LaunderDone(void* ctx) {
  auto* page = static_cast<mach::VmPage*>(ctx);
  auto* self = static_cast<GlobalFrameManager*>(page->owner);
  // Deterministic: fires during a foreground Advance. Real threads: fires from
  // PollCompletions (before mu_ is taken) or DrainWrites, so take the manager lock here.
  sim::ScopedLock lock(self->mu_);
  self->laundry_.Remove(page);
  self->reserve_.EnqueueTail(page, self->kernel_->clock().now());
  self->counters_.Add(kCtrLaundryDone);
}

bool GlobalFrameManager::MigrateFrame(Container* from, mach::VmPage* page, uint64_t target_id) {
  PollCompletions();
  sim::ScopedLock lock(mu_);
  HIPEC_CHECK_MSG(page->owner == from, "Migrate of a frame the application does not own");
  HIPEC_CHECK_MSG(page->queue == nullptr, "Migrate of a page still on a queue");
  Container* target = nullptr;
  for (Container* c : containers_) {
    if (c->id() == target_id) {
      target = c;
      break;
    }
  }
  if (target == nullptr || target == from || !target->accepts_migration ||
      target->task()->terminated()) {
    counters_.Add(kCtrMigrationsRejected);
    NotifyDecision("migrate-reject");
    return false;
  }
  if (page->object != nullptr) {
    // Caller holds the owning task's lock (see ReleaseFrame).
    bool evicted = kernel_->EvictPage(page, /*flush_if_dirty=*/true);
    HIPEC_CHECK(evicted);
  }
  HIPEC_CHECK(from->allocated_frames > 0);
  --from->allocated_frames;
  ++target->allocated_frames;  // total_specific_ unchanged: the frame stays specific
  page->owner = target;
  page->user_word = 0;  // the source policy's score means nothing to the target
  target->free_q().EnqueueTail(page, kernel_->clock().now());
  counters_.Add(kCtrMigrations);
  NotifyDecision("migrate");
  return true;
}

// ------------------------------------------------------------------ reclamation

size_t GlobalFrameManager::NormalReclaim(size_t needed, Container* exclude) {
  size_t got = 0;
  // Walk containers in the configured victim order (FAFR = creation order, the paper's
  // policy); each victim's own ReclaimFrame policy decides *which* pages it gives up.
  // Iterate over a snapshot: a misbehaving victim is terminated inside the runner, which
  // removes it from containers_.
  std::vector<Container*> snapshot = containers_;
  switch (config_.reclaim_order) {
    case ReclaimOrder::kFafr:
      break;
    case ReclaimOrder::kRoundRobin:
      if (!snapshot.empty()) {
        size_t shift = reclaim_cursor_++ % snapshot.size();
        std::rotate(snapshot.begin(),
                    snapshot.begin() + static_cast<ptrdiff_t>(shift), snapshot.end());
      }
      break;
    case ReclaimOrder::kLargestFirst:
      std::stable_sort(snapshot.begin(), snapshot.end(), [](Container* a, Container* b) {
        return a->allocated_frames > b->allocated_frames;
      });
      break;
  }
  for (Container* c : snapshot) {
    if (got >= needed) {
      break;
    }
    if (c == exclude || c->task()->terminated()) {
      continue;
    }
    size_t surplus =
        c->allocated_frames > c->min_frames() ? c->allocated_frames - c->min_frames() : 0;
    if (surplus == 0 || !reclaim_runner_) {
      continue;
    }
    size_t ask = std::min(surplus, needed - got);
    uint64_t victim_id = c->id();
    size_t released = reclaim_runner_(c, ask);  // may free c; do not touch c afterwards
    got += released;
    counters_.Add(kCtrNormalReclaims, static_cast<int64_t>(released));
    kernel_->tracer().Record(kernel_->clock().now(), sim::TraceCategory::kReclaim, 0,
                             victim_id, released);
  }
  return got;
}

size_t GlobalFrameManager::ForcedReclaim(size_t needed, Container* exclude) {
  size_t got = 0;
  // One kReclaim(code=1) trace event per run of consecutive seizures from the same victim,
  // so a large seizure does not flood the ring with per-frame events.
  uint64_t run_victim = 0;
  uint64_t run_frames = 0;
  auto emit_run = [&] {
    if (run_frames > 0) {
      kernel_->tracer().Record(kernel_->clock().now(), sim::TraceCategory::kReclaim, 1,
                               run_victim, run_frames);
      run_frames = 0;
    }
  };
  mach::VmPage* page = alloc_head_;
  while (page != nullptr && got < needed) {
    mach::VmPage* next = page->alloc_next;
    auto* owner = static_cast<Container*>(page->owner);
    if (owner != nullptr && owner != exclude && owner != reinterpret_cast<Container*>(this) &&
        owner->allocated_frames > owner->min_frames()) {
      // Seizing touches the victim's private queues and pmap state, all guarded by the
      // victim's task lock — which ranks below the manager lock held here, so it may only
      // be try-locked (the Linux-shrinker escape). A busy victim's frame is skipped; the
      // FAFR walk continues with the next-oldest frame. Always succeeds deterministically.
      sim::ScopedTryLock victim_lock(owner->task()->mutex());
      if (!victim_lock.owns()) {
        page = next;
        continue;
      }
      if (run_frames > 0 && run_victim != owner->id()) {
        emit_run();
      }
      run_victim = owner->id();
      ++run_frames;
      if (page->queue != nullptr) {
        page->queue.load()->Remove(page);
      }
      // Seize. Dirty contents must be saved; forced reclamation is a desperation path, so the
      // write is charged synchronously to the requester.
      if (page->object != nullptr && page->modified) {
        page->object->MarkPagedOut(page->offset);
        uint64_t block = page->object->BlockFor(page->offset);
        kernel_->disk().WritePageSync(block);
      }
      bool evicted = kernel_->EvictPage(page, /*flush_if_dirty=*/false);
      HIPEC_CHECK(evicted);  // victim task lock held
      UntrackAlloc(page);
      --owner->allocated_frames;
      ++owner->frames_force_reclaimed;
      --total_specific_;
      kernel_->daemon().ReturnFrame(page);
      ++got;
      counters_.Add(kCtrForcedReclaims);
    }
    page = next;
  }
  emit_run();
  if (got > 0 && obs::ProbesEnabled()) {
    probes_.Record(kPrbForcedReclaimFrames, static_cast<int64_t>(got));
  }
  return got;
}

void GlobalFrameManager::RemoveContainer(Container* container) {
  // Recursive entry is sanctioned: reclamation can terminate a victim whose teardown lands
  // back here while the reclaiming thread still holds mu_. The caller executes on behalf of
  // the container's task and holds its lock, so every EvictPage below must succeed.
  sim::ScopedLock lock(mu_);
  // Collect every frame the container holds: its three standard queues, user queues, and any
  // page variables holding off-queue pages.
  auto drain_queue = [&](mach::PageQueue& q) {
    while (mach::VmPage* page = q.DequeueHead()) {
      if (page->object != nullptr) {
        bool evicted =
            kernel_->EvictPage(page, /*flush_if_dirty=*/container->object()->file_backed());
        HIPEC_CHECK(evicted);
      }
      UntrackAlloc(page);
      kernel_->daemon().ReturnFrame(page);
      HIPEC_CHECK(container->allocated_frames > 0);
      --container->allocated_frames;
      --total_specific_;
    }
  };
  drain_queue(container->free_q());
  drain_queue(container->active_q());
  drain_queue(container->inactive_q());
  for (auto& q : container->user_queues()) {
    drain_queue(*q);
  }
  // Off-queue pages referenced only by page-variable operands.
  for (size_t i = 0; i < OperandArray::kEntries; ++i) {
    const OperandEntry& e = container->operands().entry(static_cast<uint8_t>(i));
    if (e.type == OperandType::kPage && e.page != nullptr && e.page->owner == container &&
        e.page->queue == nullptr) {
      mach::VmPage* page = e.page;
      if (page->object != nullptr) {
        bool evicted =
            kernel_->EvictPage(page, /*flush_if_dirty=*/container->object()->file_backed());
        HIPEC_CHECK(evicted);
      }
      UntrackAlloc(page);
      kernel_->daemon().ReturnFrame(page);
      HIPEC_CHECK(container->allocated_frames > 0);
      --container->allocated_frames;
      --total_specific_;
      container->operands().WritePage(static_cast<uint8_t>(i), nullptr);
    }
  }
  // Recovery sweep: a buggy or malicious policy may have leaked frames (dequeued them and
  // overwritten the only page variable that referenced them). They are unreachable through
  // the container's structures, so find them by scanning physical memory — part of what a
  // stronger security checker "could do more" of (§6).
  if (container->allocated_frames > 0) {
    kernel_->ForEachFrame([&](mach::VmPage* page) {
      if (page->owner == container) {
        if (page->queue != nullptr) {
          page->queue.load()->Remove(page);
        }
        if (page->object != nullptr) {
          bool evicted = kernel_->EvictPage(page, /*flush_if_dirty=*/false);
          HIPEC_CHECK(evicted);
        }
        UntrackAlloc(page);
        kernel_->daemon().ReturnFrame(page);
        HIPEC_CHECK(container->allocated_frames > 0);
        --container->allocated_frames;
        --total_specific_;
        counters_.Add(kCtrLeakedFramesRecovered);
      }
    });
  }
  HIPEC_CHECK_MSG(container->allocated_frames == 0,
                  "container still holds " << container->allocated_frames
                                           << " frames after teardown");
  std::erase(containers_, container);
  counters_.Add(kCtrContainersRemoved);
  NotifyDecision("remove-container");
}

}  // namespace hipec::core
