// Unit tests for the disk model: service times, calibration, asynchronous write-back, and
// allocation-free reads.
#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "disk/disk_model.h"
#include "sim/clock.h"

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
    disk.WritePageAsync(
        static_cast<uint64_t>(i) * 1000, [](void* count) { ++*static_cast<int*>(count); },
        &completed);
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

// After a first read and write have sized the counter array, the write ring and the event
// heap, reads and asynchronous writes with completions allocate nothing, however many there
// are: the model keeps no per-read history and a completion is a function pointer.
TEST(DiskModelTest, ReadsAreAllocationFreeAfterWarmUp) {
  VirtualClock clock;
  DiskModel disk(&clock, DiskParams::Era1994(), /*seed=*/12);
  uint64_t completed = 0;
  const DiskModel::WriteDone count = [](void* n) { ++*static_cast<uint64_t*>(n); };
  disk.ReadPage(0);
  disk.WritePageAsync(0, count, &completed);
  disk.DrainWrites();
  const uint64_t before = alloc_counter::AllocationCount();
  for (uint64_t i = 0; i < 100'000; ++i) {
    disk.ReadPage(i * 37 % 4096);
    if (i % 3 == 0) {
      disk.WritePageAsync(i * 53 % 4096, count, &completed);
    }
  }
  disk.DrainWrites();
  EXPECT_EQ(alloc_counter::AllocationCount() - before, 0u);
  EXPECT_EQ(completed, 1u + 33'334u);
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
