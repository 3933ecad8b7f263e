#include "mach/pageout_daemon.h"

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "mach/kernel.h"
#include "sim/check.h"

namespace hipec::mach {

namespace {

// Interned counter ids: array-indexed adds on the fault path, no string lookups.
const sim::CounterId kCtrSecondChances = sim::InternCounter("pageout.second_chances");
const sim::CounterId kCtrEvictions = sim::InternCounter("pageout.evictions");
const sim::CounterId kCtrBalanceRuns = sim::InternCounter("pageout.balance_runs");
const sim::CounterId kCtrPagesExamined = sim::InternCounter("pageout.pages_examined");
const sim::CounterId kCtrDesperationReclaims = sim::InternCounter("pageout.desperation_reclaims");
const sim::CounterId kCtrAllocForFault = sim::InternCounter("pageout.alloc_for_fault");
const sim::CounterId kCtrFramesToManager = sim::InternCounter("pageout.frames_to_manager");
const sim::CounterId kCtrEvictLockMisses = sim::InternCounter("pageout.evict_lock_misses");

// The calling thread's attached magazine, if any. Keyed by daemon so a thread that outlives
// one kernel and joins another never serves stale frames.
thread_local FrameMagazine* tls_magazine = nullptr;
thread_local const PageoutDaemon* tls_magazine_daemon = nullptr;

size_t ResolveQueueShards(const Kernel* kernel, size_t requested) {
  if (requested != 0) {
    return std::min(requested, PageoutDaemon::kMaxQueueShards);
  }
  if (!kernel->concurrent()) {
    // Deterministic mode: one shard, so Balance/AllocForFault walk the exact queue-operation
    // sequence of the pre-sharding daemon and golden fingerprints stay byte-identical.
    return 1;
  }
  size_t hw = std::thread::hardware_concurrency();
  return std::clamp<size_t>(hw, 1, PageoutDaemon::kMaxQueueShards);
}

}  // namespace

PageoutDaemon::QueueShard::QueueShard(size_t index)
    : mu(sim::LockRank::kDaemon),
      active("vm_page_queue_active." + std::to_string(index)),
      inactive("vm_page_queue_inactive." + std::to_string(index)) {}

PageoutDaemon::PageoutDaemon(Kernel* kernel, PageoutTargets targets, size_t free_pool_shards,
                             size_t queue_shards)
    : kernel_(kernel), targets_(targets), pool_(free_pool_shards) {
  size_t n = ResolveQueueShards(kernel, queue_shards);
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<QueueShard>(i));
  }
}

void PageoutDaemon::EnableConcurrent() {
  concurrent_ = true;
  for (auto& shard : shards_) {
    shard->mu.Enable(true);
  }
  pool_.EnableConcurrent();
  counters_.EnableConcurrent();
}

size_t PageoutDaemon::HomeShard() const {
  if (!concurrent_) {
    // Deterministic mode is single-threaded (and single-sharded): fixed home.
    return 0;
  }
  static std::atomic<size_t> next_thread{0};
  thread_local size_t thread_stripe = next_thread.fetch_add(1, std::memory_order_relaxed);
  return thread_stripe % shards_.size();
}

PageoutDaemon::QueueShard* PageoutDaemon::ShardForQueue(const PageQueue* q) const {
  for (const auto& shard : shards_) {
    if (&shard->active == q || &shard->inactive == q) {
      return shard.get();
    }
  }
  return nullptr;
}

FrameMagazine* PageoutDaemon::ThreadMagazine() const {
  return tls_magazine_daemon == this ? tls_magazine : nullptr;
}

void PageoutDaemon::AttachThreadMagazine(FrameMagazine* magazine) {
  HIPEC_CHECK_MSG(magazine->pool() == &pool_, "magazine belongs to another pool");
  tls_magazine = magazine;
  tls_magazine_daemon = this;
}

void PageoutDaemon::DetachThreadMagazine() {
  tls_magazine = nullptr;
  tls_magazine_daemon = nullptr;
}

void PageoutDaemon::AddBootFrame(VmPage* page) {
  pool_.AddBootFrame(page);
}

void PageoutDaemon::Balance() {
  sim::Nanos now = kernel_->clock().now();
  size_t examined = 0;
  size_t home = HomeShard();

  // Phase 1: refill the inactive queues from the active queues, clearing reference bits so
  // a second reference can be detected (the "second chance"). The inactive target is global:
  // each shard contributes until the pooled total reaches it, home shard first, stealing
  // from siblings' active queues when home runs dry — the free pool's drain discipline.
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (inactive_total_.load(std::memory_order_relaxed) >= targets_.inactive_target) {
      break;
    }
    QueueShard& shard = *shards_[(home + i) % shards_.size()];
    sim::ScopedLock lock(shard.mu);
    while (inactive_total_.load(std::memory_order_relaxed) < targets_.inactive_target &&
           !shard.active.empty()) {
      VmPage* page = shard.active.head();
      // Busy brackets the off-queue instant between the two queue stores so a racing
      // Unqueue/ReactivateIfInactive never misreads "queue == nullptr" as off-every-queue.
      page->busy.store(true, std::memory_order_release);
      shard.active.Remove(page);
      active_total_.fetch_sub(1, std::memory_order_relaxed);
      page->reference.store(false, std::memory_order_relaxed);
      shard.inactive.EnqueueTail(page, now);
      page->busy.store(false, std::memory_order_release);
      inactive_total_.fetch_add(1, std::memory_order_relaxed);
      ++examined;
    }
  }

  // Phase 2: refill the free pool from the inactive queues.
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (pool_.count() >= targets_.free_target) {
      break;
    }
    QueueShard& shard = *shards_[(home + i) % shards_.size()];
    sim::ScopedLock lock(shard.mu);
    while (pool_.count() < targets_.free_target && !shard.inactive.empty()) {
      VmPage* page = shard.inactive.head();
      page->busy.store(true, std::memory_order_release);
      shard.inactive.Remove(page);
      inactive_total_.fetch_sub(1, std::memory_order_relaxed);
      ++examined;
      if (page->reference.load(std::memory_order_relaxed)) {
        // Referenced while inactive: give it a second chance on the active queue.
        page->reference.store(false, std::memory_order_relaxed);
        shard.active.EnqueueTail(page, now);
        active_total_.fetch_add(1, std::memory_order_relaxed);
        page->busy.store(false, std::memory_order_release);
        counters_.Add(kCtrSecondChances);
        continue;
      }
      if (!kernel_->EvictPage(page, /*flush_if_dirty=*/true)) {
        // Real-threads mode only: the mapping task's lock was busy (try edge). Park the page
        // on the active queue and move on; the inactive queue shrank, so the loop terminates.
        shard.active.EnqueueTail(page, now);
        active_total_.fetch_add(1, std::memory_order_relaxed);
        page->busy.store(false, std::memory_order_release);
        counters_.Add(kCtrEvictLockMisses);
        continue;
      }
      pool_.Put(page, now);
      page->busy.store(false, std::memory_order_release);
      counters_.Add(kCtrEvictions);
    }
  }

  counters_.Add(kCtrBalanceRuns);
  counters_.Add(kCtrPagesExamined, static_cast<int64_t>(examined));
  kernel_->ChargePageoutScan(examined);
}

VmPage* PageoutDaemon::AllocForFault() {
  if (pool_.count() <= targets_.free_min) {
    Balance();
    // The free pool ran dry while serving a non-specific fault: that is memory pressure.
    // Tell the HiPEC layer (it may adapt partition_burst and reclaim specific frames).
    // Deliberately outside any daemon lock: the notification re-enters the frame manager at
    // rank kManager < kDaemon, which would invert the hierarchy under a shard lock.
    kernel_->NotifyMemoryPressure();
  }
  FrameMagazine* magazine = ThreadMagazine();
  VmPage* page = magazine != nullptr ? magazine->Take(kernel_->clock().now()) : pool_.Take();
  if (page == nullptr) {
    Balance();
    page = pool_.Take();
    if (page == nullptr) {
      // Desperation: reclaim ignoring reference bits, shard by shard from home. EvictPage
      // can fail only in real-threads mode (task-lock try edge); park such pages on the
      // active queue and keep scanning. The per-shard budget (snapshot of its population)
      // bounds the walk: each iteration either succeeds or re-parks a page we will not
      // re-examine within budget, so the loop terminates.
      sim::Nanos now = kernel_->clock().now();
      size_t home = HomeShard();
      for (size_t i = 0; i < shards_.size() && page == nullptr; ++i) {
        QueueShard& shard = *shards_[(home + i) % shards_.size()];
        sim::ScopedLock lock(shard.mu);
        size_t budget = shard.inactive.count() + shard.active.count();
        for (size_t j = 0; j < budget && page == nullptr; ++j) {
          bool from_inactive = !shard.inactive.empty();
          VmPage* victim = from_inactive ? shard.inactive.head() : shard.active.head();
          if (victim == nullptr) {
            break;
          }
          victim->busy.store(true, std::memory_order_release);
          (from_inactive ? shard.inactive : shard.active).Remove(victim);
          if (from_inactive) {
            inactive_total_.fetch_sub(1, std::memory_order_relaxed);
          } else {
            active_total_.fetch_sub(1, std::memory_order_relaxed);
          }
          if (kernel_->EvictPage(victim, /*flush_if_dirty=*/true)) {
            counters_.Add(kCtrDesperationReclaims);
            page = victim;
            // Stays busy=false-after-clear but off-queue: it now belongs to the faulting
            // thread, and nothing else can reach it until it is re-entered into an object.
            victim->busy.store(false, std::memory_order_release);
          } else {
            shard.active.EnqueueTail(victim, now);
            active_total_.fetch_add(1, std::memory_order_relaxed);
            victim->busy.store(false, std::memory_order_release);
            counters_.Add(kCtrEvictLockMisses);
          }
        }
      }
    }
  }
  if (page != nullptr) {
    counters_.Add(kCtrAllocForFault);
  }
  return page;
}

bool PageoutDaemon::AllocFramesForManager(size_t n, PageQueue* out, void* owner) {
  // No daemon-wide lock exists anymore; the GlobalFrameManager's own lock (rank kManager)
  // serializes every caller of this path, and the collect-commit-rollback below already
  // tolerated fault threads racing the pool, so nothing further is needed.
  if (AvailableForManager() < n) {
    Balance();
  }
  if (AvailableForManager() < n) {
    return false;
  }
  sim::Nanos now = kernel_->clock().now();
  // Collect first, commit second: concurrent fault threads can race the admission check
  // above (it reads the relaxed pool count), so a shortfall puts everything back.
  std::vector<VmPage*> got;
  got.reserve(n);
  while (got.size() < n) {
    VmPage* page = pool_.Take();
    if (page == nullptr) {
      break;
    }
    got.push_back(page);
  }
  if (got.size() < n) {
    for (VmPage* page : got) {
      pool_.Put(page, now);
    }
    return false;
  }
  for (VmPage* page : got) {
    page->owner = owner;
    page->user_word = 0;  // policy scratch must not leak between owners
    out->EnqueueTail(page, now);
  }
  counters_.Add(kCtrFramesToManager, static_cast<int64_t>(n));
  return true;
}

void PageoutDaemon::ReturnFrame(VmPage* page) {
  HIPEC_CHECK_MSG(page->queue.load(std::memory_order_relaxed) == nullptr,
                  "frame still on a queue");
  HIPEC_CHECK_MSG(page->object == nullptr, "frame still resident in an object");
  HIPEC_CHECK_MSG(!page->has_mapping, "frame still mapped");
  page->owner = nullptr;
  page->reference.store(false, std::memory_order_relaxed);
  page->modified = false;
  page->wired = false;
  sim::Nanos now = kernel_->clock().now();
  FrameMagazine* magazine = ThreadMagazine();
  if (magazine != nullptr) {
    magazine->Put(page, now);
  } else {
    pool_.Put(page, now);
  }
}

void PageoutDaemon::Activate(VmPage* page) {
  QueueShard& shard = *shards_[HomeShard()];
  sim::ScopedLock lock(shard.mu);
  shard.active.EnqueueTail(page, kernel_->clock().now());
  active_total_.fetch_add(1, std::memory_order_relaxed);
}

void PageoutDaemon::ReactivateIfInactive(VmPage* page) {
  for (;;) {
    PageQueue* q = page->queue.load(std::memory_order_acquire);
    if (q == nullptr) {
      if (page->busy.load(std::memory_order_acquire)) {
        // Mid-transition inside a balance pass; it cannot evict (we hold the mapping task's
        // lock), so the page lands on a daemon queue momentarily. Wait it out.
        std::this_thread::yield();
        continue;
      }
      // Stable off-queue (e.g. wired): nothing to reactivate.
      if (page->queue.load(std::memory_order_acquire) == nullptr) {
        return;
      }
      continue;
    }
    QueueShard* shard = ShardForQueue(q);
    if (shard == nullptr || q != &shard->inactive) {
      // On an active queue, a container queue, or the free pool: not our business.
      return;
    }
    sim::ScopedLock lock(shard->mu);
    if (page->queue.load(std::memory_order_relaxed) != q) {
      continue;  // Moved between the resolve and the lock; retry.
    }
    shard->inactive.Remove(page);
    inactive_total_.fetch_sub(1, std::memory_order_relaxed);
    shard->active.EnqueueTail(page, kernel_->clock().now());
    active_total_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
}

void PageoutDaemon::Unqueue(VmPage* page) {
  for (;;) {
    PageQueue* q = page->queue.load(std::memory_order_acquire);
    if (q == nullptr) {
      if (page->busy.load(std::memory_order_acquire)) {
        // In flight between daemon queues; the holder cannot evict it (the caller holds the
        // mapping task's lock), so it will reappear on a queue. Spin past the window.
        std::this_thread::yield();
        continue;
      }
      if (page->queue.load(std::memory_order_acquire) == nullptr) {
        return;  // Genuinely off every queue.
      }
      continue;
    }
    QueueShard* shard = ShardForQueue(q);
    if (shard == nullptr) {
      // A container/private queue, which the caller's task lock already guards.
      q->Remove(page);
      return;
    }
    sim::ScopedLock lock(shard->mu);
    if (page->queue.load(std::memory_order_relaxed) != q) {
      continue;  // Raced with a balance move; resolve again.
    }
    q->Remove(page);
    if (q == &shard->active) {
      active_total_.fetch_sub(1, std::memory_order_relaxed);
    } else {
      inactive_total_.fetch_sub(1, std::memory_order_relaxed);
    }
    return;
  }
}

size_t PageoutDaemon::AvailableForManager() const {
  // The last free_min frames are reserved so the kernel's own fault path cannot starve.
  size_t free = pool_.count();
  return free > targets_.free_min ? free - targets_.free_min : 0;
}

bool PageoutDaemon::OwnsActiveQueue(const PageQueue* q) const {
  if (q == nullptr) {
    return false;
  }
  for (const auto& shard : shards_) {
    if (&shard->active == q) {
      return true;
    }
  }
  return false;
}

bool PageoutDaemon::OwnsInactiveQueue(const PageQueue* q) const {
  if (q == nullptr) {
    return false;
  }
  for (const auto& shard : shards_) {
    if (&shard->inactive == q) {
      return true;
    }
  }
  return false;
}

}  // namespace hipec::mach
