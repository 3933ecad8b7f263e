// Unit tests for the disk model: service times, calibration, asynchronous write-back, and
// allocation-free reads.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "disk/disk_model.h"
#include "sim/clock.h"

namespace {

// Every operator new in this test binary, counted by the replacement below.
std::atomic<uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace hipec::disk {
namespace {

using sim::kMillisecond;
using sim::Nanos;
using sim::VirtualClock;

TEST(DiskParamsTest, DerivedQuantities) {
  DiskParams p = DiskParams::Era1994();
  // 6000 rpm -> 10 ms per revolution.
  EXPECT_NEAR(static_cast<double>(p.RevolutionNs()), 10.0 * kMillisecond,
              0.02 * kMillisecond);
  // A 4 KB page is 8 sectors of a 64-sector track.
  EXPECT_NEAR(static_cast<double>(p.PageTransferNs()),
              static_cast<double>(p.RevolutionNs()) * 8.0 / 64.0, 1.0);
  EXPECT_GT(p.BlocksPerCylinder(), 0);
}

TEST(DiskModelTest, ReadAdvancesClockByServiceTime) {
  VirtualClock clock;
  DiskModel disk(&clock, DiskParams::Era1994(), /*seed=*/1);
  Nanos t = disk.ReadPage(12345);
  EXPECT_EQ(clock.now(), t);
  EXPECT_GT(t, 0);
}

// Table 3 implies ~7.66 ms of disk time per random 4 KB page fault. The model must average
// near that for random blocks.
TEST(DiskModelTest, RandomReadCalibration) {
  VirtualClock clock;
  DiskModel disk(&clock, DiskParams::Era1994(), /*seed=*/2);
  sim::Rng rng(3);
  constexpr int kReads = 4000;
  Nanos start = clock.now();
  for (int i = 0; i < kReads; ++i) {
    disk.ReadPage(rng.Below(1'000'000));
  }
  double mean = static_cast<double>(clock.now() - start) / kReads;
  EXPECT_NEAR(mean, 7.66 * kMillisecond, 0.8 * kMillisecond);
}

TEST(DiskModelTest, SequentialReadsFasterThanRandom) {
  VirtualClock clock_seq;
  DiskModel seq(&clock_seq, DiskParams::Era1994(), /*seed=*/4);
  for (int i = 0; i < 500; ++i) {
    seq.ReadPage(static_cast<uint64_t>(i));
  }

  VirtualClock clock_rand;
  DiskModel rand_disk(&clock_rand, DiskParams::Era1994(), /*seed=*/4);
  sim::Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    rand_disk.ReadPage(rng.Below(1'000'000));
  }
  EXPECT_LT(clock_seq.now(), clock_rand.now());
}

TEST(DiskModelTest, AsyncWriteReturnsImmediately) {
  VirtualClock clock;
  DiskModel disk(&clock, DiskParams::Era1994(), /*seed=*/6);
  Nanos before = clock.now();
  disk.WritePageAsync(42);
  EXPECT_EQ(clock.now(), before);  // no synchronous charge
  EXPECT_EQ(disk.pending_writes(), 1u);
}

TEST(DiskModelTest, WritesDrainViaEvents) {
  VirtualClock clock;
  DiskModel disk(&clock, DiskParams::Era1994(), /*seed=*/7);
  int completed = 0;
  for (int i = 0; i < 10; ++i) {
    disk.WritePageAsync(static_cast<uint64_t>(i) * 1000, [&] { ++completed; });
  }
  disk.DrainWrites();
  EXPECT_EQ(completed, 10);
  EXPECT_EQ(disk.pending_writes(), 0u);
  EXPECT_EQ(disk.counters().Get("disk.writes_done"), 10);
}

TEST(DiskModelTest, ReadWaitsWhenWriteQueueSaturated) {
  DiskParams p = DiskParams::Era1994();
  p.write_queue_limit = 4;
  VirtualClock clock;
  DiskModel disk(&clock, p, /*seed=*/8);
  for (int i = 0; i < 8; ++i) {
    disk.WritePageAsync(static_cast<uint64_t>(i) * 500);
  }
  EXPECT_GT(disk.pending_writes(), 4u);
  disk.ReadPage(99);  // must wait for the queue to fall below the limit
  EXPECT_LE(disk.pending_writes() - (disk.pending_writes() > 0 ? 1 : 0),
            p.write_queue_limit);
}

TEST(DiskModelTest, ElevatorServesNearestCylinderFirst) {
  DiskParams p = DiskParams::Era1994();
  VirtualClock clock;
  DiskModel disk(&clock, p, /*seed=*/9, WriteScheduling::kElevator);
  // Head starts at cylinder 0. Queue writes at far and near cylinders; after the first
  // (already-in-flight FIFO) write, the elevator should pick the nearer one.
  uint64_t blocks_per_cyl = static_cast<uint64_t>(p.BlocksPerCylinder());
  disk.WritePageAsync(0);                        // starts immediately
  disk.WritePageAsync(900 * blocks_per_cyl);     // far
  disk.WritePageAsync(3 * blocks_per_cyl);       // near
  disk.DrainWrites();
  EXPECT_EQ(disk.counters().Get("disk.writes_done"), 3);
}

// After the first read has sized the counter array, reads allocate nothing, however many
// there are: the model keeps no per-read history.
TEST(DiskModelTest, ReadsAreAllocationFreeAfterWarmUp) {
  VirtualClock clock;
  DiskModel disk(&clock, DiskParams::Era1994(), /*seed=*/12);
  disk.ReadPage(0);
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (uint64_t i = 0; i < 100'000; ++i) {
    disk.ReadPage(i * 37 % 4096);
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
}

TEST(DiskModelTest, DeterministicAcrossRuns) {
  auto run = [] {
    VirtualClock clock;
    DiskModel disk(&clock, DiskParams::Era1994(), /*seed=*/10);
    sim::Rng rng(11);
    for (int i = 0; i < 200; ++i) {
      disk.ReadPage(rng.Below(500'000));
    }
    return clock.now();
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace hipec::disk
