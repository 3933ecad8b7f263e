// Concurrency primitives under real threads: the thread-safe stats sinks (sim/stats.h,
// obs/probe.h), the rank-tagged locks (sim/lock.h), and the real clock's deadline queue
// (sim/clock.h). These are the pieces every real-threads component leans on; each test
// hammers one of them from 8 threads and then asserts exact totals — the sinks promise
// no lost updates, not just no crashes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <random>

#include "mach/frame_pool.h"
#include "mach/kernel.h"
#include "mach/pageout_daemon.h"
#include "obs/probe.h"
#include "sim/clock.h"
#include "sim/lock.h"
#include "sim/stats.h"

namespace hipec {
namespace {

constexpr int kThreads = 8;
constexpr int kOpsPerThread = 20'000;

void HammerFromThreads(int threads, const std::function<void(int)>& body) {
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&body, t] { body(t); });
  }
  for (std::thread& th : pool) {
    th.join();
  }
}

TEST(CounterSetConcurrencyTest, EightThreadHammerLosesNoUpdates) {
  const sim::CounterId a = sim::InternCounter("conctest.counter_a");
  const sim::CounterId b = sim::InternCounter("conctest.counter_b");
  sim::CounterSet counters;
  counters.EnableConcurrent();
  ASSERT_TRUE(counters.concurrent());

  HammerFromThreads(kThreads, [&](int t) {
    for (int i = 0; i < kOpsPerThread; ++i) {
      counters.Add(a);
      counters.Add(b, t + 1);  // per-thread distinct delta so interleavings differ
    }
  });

  EXPECT_EQ(counters.Get(a), int64_t{kThreads} * kOpsPerThread);
  // sum over t of (t+1) * kOpsPerThread = kOps * kThreads(kThreads+1)/2
  EXPECT_EQ(counters.Get(b), int64_t{kOpsPerThread} * kThreads * (kThreads + 1) / 2);
}

TEST(CounterSetConcurrencyTest, LateInternedIdsLandInOverflowExactly) {
  sim::CounterSet counters;
  counters.EnableConcurrent();
  // Interned *after* EnableConcurrent sized the slabs: must take the overflow path and
  // still be exact under contention.
  const sim::CounterId late =
      sim::InternCounter("conctest.late_counter_beyond_slab_capacity");
  HammerFromThreads(kThreads, [&](int) {
    for (int i = 0; i < 1000; ++i) {
      counters.Add(late);
    }
  });
  EXPECT_EQ(counters.Get(late), int64_t{kThreads} * 1000);
}

TEST(CounterRegistryConcurrencyTest, ConcurrentInterningIsIdempotent) {
  std::vector<std::vector<sim::CounterId>> ids(kThreads);
  HammerFromThreads(kThreads, [&](int t) {
    for (int i = 0; i < 64; ++i) {
      ids[t].push_back(sim::CounterNames().Intern("conctest.shared_name_" + std::to_string(i)));
    }
  });
  // Every thread resolved each name to the same id, and distinct names got distinct ids.
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(ids[t], ids[0]);
  }
  for (size_t i = 1; i < ids[0].size(); ++i) {
    EXPECT_NE(ids[0][i], ids[0][i - 1]);
  }
}

TEST(ProbeSetConcurrencyTest, EightThreadHammerCountsEverySample) {
  const obs::ProbeId probe = obs::InternProbe("conctest.hammer_probe");
  obs::ScopedProbes enabled(true);
  obs::ProbeSet probes;
  probes.EnableConcurrent();
  HammerFromThreads(kThreads, [&](int t) {
    for (int i = 0; i < 5000; ++i) {
      probes.Record(probe, (t + 1) * 10);
    }
  });
  const obs::Histogram* hist = probes.Find(probe);
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), uint64_t{kThreads} * 5000);
}

TEST(OrderedMutexTest, DisabledMutexIsANoOpAndTryLockAlwaysOwns) {
  sim::OrderedMutex mu(sim::LockRank::kManager);  // disabled by default
  EXPECT_FALSE(mu.enabled());
  {
    sim::ScopedLock lock(mu);  // must not block or assert
    sim::ScopedTryLock try_lock(mu);
    EXPECT_TRUE(try_lock.owns());  // deterministic-mode callers take the success path
  }
}

TEST(OrderedMutexTest, EnabledMutexIsRecursiveAndExcludesOtherThreads) {
  sim::OrderedMutex mu(sim::LockRank::kManager, /*enabled=*/true);
  sim::ScopedLock outer(mu);
  sim::ScopedLock inner(mu);  // recursion on the same mutex is allowed
  std::atomic<bool> other_owned{true};
  std::thread other([&] {
    sim::ScopedTryLock try_lock(mu);
    other_owned.store(try_lock.owns());
  });
  other.join();
  EXPECT_FALSE(other_owned.load());  // a different thread must fail the try-lock
}

TEST(OrderedMutexTest, EnabledMutexSerializesEightWriters) {
  sim::OrderedMutex mu(sim::LockRank::kLeaf, /*enabled=*/true);
  int64_t plain = 0;  // deliberately non-atomic: the lock is the only protection
  HammerFromThreads(kThreads, [&](int) {
    for (int i = 0; i < kOpsPerThread; ++i) {
      sim::ScopedLock lock(mu);
      ++plain;
    }
  });
  EXPECT_EQ(plain, int64_t{kThreads} * kOpsPerThread);
}

TEST(WorldLockTest, ExclusiveHolderSeesNoSharedHolders) {
  sim::WorldLock world(/*enabled=*/true);
  std::atomic<int> shared_inside{0};
  std::atomic<bool> stop{false};
  std::atomic<int64_t> audits_clean{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        sim::SharedWorldGuard guard(world);
        shared_inside.fetch_add(1, std::memory_order_acq_rel);
        shared_inside.fetch_sub(1, std::memory_order_acq_rel);
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    sim::ExclusiveWorldGuard guard(world);
    // With the world held exclusive, no reader can be inside its shared section.
    ASSERT_EQ(shared_inside.load(std::memory_order_acquire), 0);
    audits_clean.fetch_add(1);
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& th : readers) {
    th.join();
  }
  EXPECT_EQ(audits_clean.load(), 200);
}

TEST(RealClockTest, NowIsMonotonicAndStartsNearZero)  {
  sim::RealClock clock;
  EXPECT_FALSE(clock.deterministic());
  sim::Nanos a = clock.now();
  sim::Nanos b = clock.now();
  EXPECT_GE(a, 0);
  EXPECT_GE(b, a);
  // Advance is a no-op: host time passes by itself.
  clock.Advance(10 * sim::kSecond);
  EXPECT_LT(clock.now(), 10 * sim::kSecond);
}

TEST(RealClockTest, PollDueFiresOnlyDueDeadlinesUnlessForced) {
  sim::RealClock clock;
  std::atomic<int> fired{0};
  clock.ScheduleAfter(60 * sim::kSecond, [&] { fired.fetch_add(1); }, "far-future");
  EXPECT_EQ(clock.PollDue(), 0u);  // not due yet
  EXPECT_EQ(fired.load(), 0);
  EXPECT_EQ(clock.pending_events(), 1u);
  EXPECT_EQ(clock.PollDue(/*fire_all=*/true), 1u);  // DrainWrites-style force-fire
  EXPECT_EQ(fired.load(), 1);
  EXPECT_EQ(clock.pending_events(), 0u);
}

TEST(RealClockTest, CancelRemovesAPendingDeadline) {
  sim::RealClock clock;
  std::atomic<int> fired{0};
  sim::Clock::EventId id =
      clock.ScheduleAfter(60 * sim::kSecond, [&] { fired.fetch_add(1); }, "cancel-me");
  EXPECT_TRUE(clock.Cancel(id));
  EXPECT_FALSE(clock.Cancel(id));  // second cancel finds nothing
  EXPECT_EQ(clock.PollDue(/*fire_all=*/true), 0u);
  EXPECT_EQ(fired.load(), 0);
}

TEST(RealClockTest, ConcurrentScheduleCancelPollIsSafeAndExact) {
  sim::RealClock clock;
  std::atomic<int> fired{0};
  // Half the threads schedule-and-cancel (never fires), half schedule far-future events
  // that the final force-fire must all deliver.
  HammerFromThreads(kThreads, [&](int t) {
    for (int i = 0; i < 500; ++i) {
      sim::Clock::EventId id = clock.ScheduleAfter(
          60 * sim::kSecond, [&] { fired.fetch_add(1, std::memory_order_relaxed); },
          "hammer");
      if (t % 2 == 0) {
        ASSERT_TRUE(clock.Cancel(id));
      }
      clock.PollDue();  // exercises poll-vs-schedule interleaving; nothing is due
    }
  });
  const auto expected = uint64_t{kThreads} / 2 * 500;
  EXPECT_EQ(clock.pending_events(), expected);
  while (clock.pending_events() > 0) {
    clock.PollDue(/*fire_all=*/true);
  }
  EXPECT_EQ(fired.load(), static_cast<int>(expected));
}

// --- Sharded pageout daemon ----------------------------------------------------------------
//
// The daemon's active/inactive queues are sharded like the free pool (one OrderedMutex per
// shard); these tests pin the shard-count policy, the magazine frame cache, and — the real
// point — that 8 threads racing the fault/return/activate/balance paths never lose a frame.

mach::KernelParams RealThreadsParams(uint64_t total_frames, uint64_t reserved) {
  mach::KernelParams params;
  params.total_frames = total_frames;
  params.kernel_reserved_frames = reserved;
  params.exec_mode = sim::ExecMode::kRealThreads;
  return params;
}

// Checks per-shard queue sanity and that the lock-free count accessors match the queues.
void ExpectDaemonQueuesConsistent(mach::PageoutDaemon& daemon) {
  size_t active_sum = 0;
  size_t inactive_sum = 0;
  for (size_t i = 0; i < daemon.queue_shard_count(); ++i) {
    ASSERT_EQ(daemon.active_queue(i).count(), daemon.active_queue(i).CountByTraversal());
    ASSERT_EQ(daemon.inactive_queue(i).count(), daemon.inactive_queue(i).CountByTraversal());
    active_sum += daemon.active_queue(i).count();
    inactive_sum += daemon.inactive_queue(i).count();
  }
  EXPECT_EQ(daemon.active_count(), active_sum);
  EXPECT_EQ(daemon.inactive_count(), inactive_sum);
}

TEST(PageoutDaemonShardingTest, DeterministicModeCollapsesToOneShard) {
  // Byte-identical golden fingerprints depend on the deterministic build reproducing the
  // single-queue daemon exactly; the shard-count default must therefore be 1 there.
  mach::KernelParams params;
  params.total_frames = 256;
  params.kernel_reserved_frames = 32;
  mach::Kernel kernel(params);
  EXPECT_EQ(kernel.daemon().queue_shard_count(), 1u);
}

TEST(PageoutDaemonShardingTest, RealThreadsModeHonorsAndClampsShardRequests) {
  {
    mach::KernelParams params = RealThreadsParams(256, 32);
    params.daemon_shards = 4;
    mach::Kernel kernel(params);
    EXPECT_EQ(kernel.daemon().queue_shard_count(), 4u);
  }
  {
    mach::KernelParams params = RealThreadsParams(256, 32);
    params.daemon_shards = 1024;  // absurd request clamps to the compile-time ceiling
    mach::Kernel kernel(params);
    EXPECT_EQ(kernel.daemon().queue_shard_count(), mach::PageoutDaemon::kMaxQueueShards);
  }
  {
    mach::KernelParams params = RealThreadsParams(256, 32);
    params.daemon_shards = 0;  // default: hardware_concurrency, clamped to [1, ceiling]
    mach::Kernel kernel(params);
    EXPECT_GE(kernel.daemon().queue_shard_count(), 1u);
    EXPECT_LE(kernel.daemon().queue_shard_count(), mach::PageoutDaemon::kMaxQueueShards);
  }
}

TEST(FrameMagazineTest, TakePutFlushConservesFrames) {
  mach::KernelParams params = RealThreadsParams(256, 32);
  mach::Kernel kernel(params);
  mach::ShardedFramePool& pool = kernel.daemon().free_pool();
  const size_t boot_free = pool.count();
  const sim::Nanos now = kernel.clock().now();

  mach::FrameMagazine magazine(&pool, /*capacity=*/8, "conctest_magazine");
  // An empty magazine refills a half-capacity batch from the pool on the first Take.
  mach::VmPage* page = magazine.Take(now);
  ASSERT_NE(page, nullptr);
  EXPECT_EQ(magazine.count() + pool.count() + 1, boot_free);
  magazine.Put(page, now);
  // Cached frames still count as global_free in the conservation snapshot — the magazine
  // registry lets Owns() classify them.
  mach::FrameAccounting acc = kernel.ComputeFrameAccounting();
  EXPECT_EQ(acc.unaccounted, 0u);
  EXPECT_EQ(acc.global_free, boot_free);

  // Overfilling past capacity spills half back to the pool instead of growing unbounded.
  std::vector<mach::VmPage*> held;
  while (mach::VmPage* p = pool.Take()) {
    held.push_back(p);
  }
  for (mach::VmPage* p : held) {
    magazine.Put(p, now);
    EXPECT_LE(magazine.count(), magazine.capacity());
  }
  magazine.Flush(now);
  EXPECT_EQ(magazine.count(), 0u);
  EXPECT_EQ(pool.count(), boot_free);
}

TEST(PageoutDaemonShardingTest, EightThreadDirectAllocReturnBalanceHammer) {
  // Races the daemon's raw entry points (no tasks, no mappings): AllocForFault,
  // ReturnFrame, Activate, Balance, plus per-thread magazines on half the threads. Every
  // frame must be back on a daemon-visible queue when the dust settles.
  mach::KernelParams params = RealThreadsParams(512, 32);
  params.daemon_shards = 4;
  params.pageout.free_target = 64;
  params.pageout.inactive_target = 128;
  mach::Kernel kernel(params);
  mach::PageoutDaemon& daemon = kernel.daemon();
  const size_t boot_free = daemon.free_count();

  HammerFromThreads(kThreads, [&](int t) {
    std::unique_ptr<mach::FrameMagazine> magazine;
    if (t % 2 == 0) {
      magazine = std::make_unique<mach::FrameMagazine>(
          &daemon.free_pool(), /*capacity=*/16, "hammer_magazine." + std::to_string(t));
      daemon.AttachThreadMagazine(magazine.get());
    }
    std::mt19937_64 rng(static_cast<uint64_t>(t) * 7919 + 1);
    std::vector<mach::VmPage*> held;
    for (int i = 0; i < 4000; ++i) {
      switch (rng() % 8) {
        case 0:
        case 1:
        case 2:
          if (mach::VmPage* p = daemon.AllocForFault()) {
            held.push_back(p);
          }
          break;
        case 3:
        case 4:
          if (!held.empty()) {
            daemon.ReturnFrame(held.back());
            held.pop_back();
          }
          break;
        case 5:
        case 6:
          if (!held.empty()) {
            // Hand the frame to the daemon's LRU queues; Balance cycles it back to the
            // pool eventually (no mapping, so eviction always succeeds).
            daemon.Activate(held.back());
            held.pop_back();
          }
          break;
        default:
          daemon.Balance();
          break;
      }
    }
    for (mach::VmPage* p : held) {
      daemon.ReturnFrame(p);
    }
    if (magazine != nullptr) {
      daemon.DetachThreadMagazine();
      magazine->Flush(kernel.clock().now());
    }
  });

  ExpectDaemonQueuesConsistent(daemon);
  EXPECT_EQ(daemon.free_count() + daemon.active_count() + daemon.inactive_count(),
            boot_free);
  mach::FrameAccounting acc = kernel.ComputeFrameAccounting();
  EXPECT_EQ(acc.unaccounted, 0u);
  EXPECT_EQ(acc.Sum(), acc.total);
}

TEST(PageoutDaemonShardingTest, EightTenantFaultEvictionChurnKeepsAccountingExact) {
  // The full kernel paths under memory oversubscription: 8 tasks fault 1536 pages against
  // 448 free frames, so every thread is simultaneously faulting (AllocForFault), evicting
  // other tenants' pages (Balance + desperation), wiring (Unqueue), soft-faulting
  // (ReactivateIfInactive), and tearing down regions mid-run.
  mach::KernelParams params = RealThreadsParams(512, 64);
  params.daemon_shards = 4;
  params.pageout.free_target = 32;
  params.pageout.free_min = 8;
  params.pageout.inactive_target = 64;
  mach::Kernel kernel(params);
  using mach::kPageSize;

  constexpr int kTenants = 8;
  constexpr uint64_t kPagesPerTenant = 192;
  std::vector<mach::Task*> tasks(kTenants);
  std::vector<uint64_t> addrs(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    tasks[t] = kernel.CreateTask("hammer." + std::to_string(t));
    addrs[t] = kernel.VmAllocate(tasks[t], kPagesPerTenant * kPageSize);
  }

  HammerFromThreads(kTenants, [&](int t) {
    std::mt19937_64 rng(static_cast<uint64_t>(t) * 104729 + 7);
    for (int i = 0; i < 3000 && !tasks[t]->terminated(); ++i) {
      const uint64_t page = rng() % kPagesPerTenant;
      kernel.Touch(tasks[t], addrs[t] + page * kPageSize, (rng() & 1) != 0);
      if (i % 512 == 100) {
        kernel.daemon().Balance();
      }
      if (i % 512 == 300) {
        kernel.VmWire(tasks[t], addrs[t] + (rng() % kPagesPerTenant) * kPageSize,
                      kPageSize);
      }
      if (i % 1024 == 700) {
        kernel.VmDeallocate(tasks[t], addrs[t]);
        addrs[t] = kernel.VmAllocate(tasks[t], kPagesPerTenant * kPageSize);
      }
    }
  });

  ExpectDaemonQueuesConsistent(kernel.daemon());
  mach::FrameAccounting acc = kernel.ComputeFrameAccounting();
  EXPECT_EQ(acc.unaccounted, 0u);
  EXPECT_EQ(acc.Sum(), acc.total);

  for (int t = 0; t < kTenants; ++t) {
    if (!tasks[t]->terminated()) {
      kernel.TerminateTask(tasks[t], "hammer done");
    }
  }
  acc = kernel.ComputeFrameAccounting();
  EXPECT_EQ(acc.unaccounted, 0u);
  EXPECT_EQ(acc.Sum(), acc.total);
  // Every frame came home: nothing is wired or queued once the tenants are gone.
  EXPECT_EQ(kernel.daemon().free_count(),
            params.total_frames - params.kernel_reserved_frames);
}

}  // namespace
}  // namespace hipec
