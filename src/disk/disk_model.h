// A mechanical disk model in the style of Ruemmler & Wilkes, "An Introduction to Disk Drive
// Modeling" (IEEE Computer, 1994) — the reference the paper itself cites for disk behaviour.
//
// Service time for a request = controller overhead + seek (a + b*sqrt(cylinder distance))
// + rotational latency + transfer. Parameters default to an early-90s SCSI drive tuned so a
// random 4 KB page read averages ~7.66 ms, the per-fault disk component implied by Table 3
// (82 485.5 ms for 10 240 faults => ~8.05 ms/fault, of which ~392 us is the in-kernel path).
//
// Reads are synchronous: they advance the virtual clock by the service time (plus any time
// spent waiting behind a saturated write queue). Writes are asynchronous: the page is queued
// and drained by scheduled events — this is what lets the HiPEC `Flush` command return
// immediately, as §4.3.1 ("I/O Handling") requires.
#ifndef HIPEC_DISK_DISK_MODEL_H_
#define HIPEC_DISK_DISK_MODEL_H_

#include <cstdint>
#include <vector>

#include "obs/probe.h"
#include "sim/clock.h"
#include "sim/lock.h"
#include "sim/random.h"
#include "sim/stats.h"

namespace hipec::disk {

inline constexpr uint64_t kPageSize = 4096;

struct DiskParams {
  int64_t cylinders = 1200;
  int64_t heads = 8;
  int64_t sectors_per_track = 64;     // 512 B sectors -> 32 KB per track
  double rpm = 6000.0;                // 10 ms per revolution
  sim::Nanos controller_overhead_ns = 300 * sim::kMicrosecond;
  sim::Nanos seek_base_ns = 600 * sim::kMicrosecond;         // head settle
  sim::Nanos seek_per_sqrt_cyl_ns = 25 * sim::kMicrosecond;  // a + b*sqrt(d) seek curve

  // Maximum pending asynchronous writes before further writers stall.
  size_t write_queue_limit = 256;

  // Solid-state mode (the "new hardware architecture, such as flash RAM" of the paper's §6):
  // no seek or rotation; reads take controller + transfer time, writes pay an erase penalty.
  bool solid_state = false;
  sim::Nanos flash_read_ns = 350 * sim::kMicrosecond;   // 4 KB at ~12 MB/s
  double flash_write_penalty = 4.0;                     // erase-before-write

  // An early-90s flash storage card (SunDisk-class).
  static DiskParams Flash1994() {
    DiskParams p;
    p.solid_state = true;
    p.controller_overhead_ns = 150 * sim::kMicrosecond;
    return p;
  }

  // One full revolution.
  sim::Nanos RevolutionNs() const {
    return static_cast<sim::Nanos>(60.0 * sim::kSecond / rpm);
  }
  // Time to transfer one 4 KB page once the head is on-sector.
  sim::Nanos PageTransferNs() const {
    double sectors = static_cast<double>(kPageSize) / 512.0;
    return static_cast<sim::Nanos>(static_cast<double>(RevolutionNs()) * sectors /
                                   static_cast<double>(sectors_per_track));
  }
  int64_t BlocksPerCylinder() const { return heads * sectors_per_track * 512 / 4096; }

  // Parameters calibrated for the Table 3 reproduction (see module comment).
  static DiskParams Era1994() { return DiskParams{}; }
};

// Scheduling discipline for draining the asynchronous write queue.
enum class WriteScheduling {
  kFifo,      // drain in arrival order
  kElevator,  // nearest-cylinder-first
};

class DiskModel {
 public:
  // Completion callback of an asynchronous write, called with the context it was queued with.
  using WriteDone = void (*)(void*);

  // Works against either clock flavour: with a VirtualClock, reads advance virtual time and
  // write completions are discrete events; with a RealClock, service times stamp deadlines
  // and completions fire when some thread polls the clock (the frame manager does, at its
  // entry points). One rank-kDisk lock serializes the mechanical state — there is one head.
  DiskModel(sim::Clock* clock, DiskParams params, uint64_t seed,
            WriteScheduling sched = WriteScheduling::kFifo);
  DiskModel(const DiskModel&) = delete;
  DiskModel& operator=(const DiskModel&) = delete;

  // Arms the disk lock and the stats sinks for real-threads mode.
  void EnableConcurrent();

  // Reads one 4 KB page at `block` (block = page-sized unit). Advances the virtual clock by
  // the full service time and returns it. If the write queue is over its limit, the read also
  // waits for it to drain below the limit first (charged to the caller). The wait is a
  // virtual-time construct: under a real clock a saturated queue is simply allowed to grow
  // (completions drain as they are polled).
  sim::Nanos ReadPage(uint64_t block);

  // Queues one 4 KB page write at `block` and returns immediately. The write is performed by
  // scheduled events; `on_complete(ctx)` (optional) runs when the platters have it, without
  // the disk lock held.
  void WritePageAsync(uint64_t block, WriteDone on_complete = nullptr, void* ctx = nullptr);

  // Synchronous write: advances the clock by the full service time. Used only by fallback
  // paths (e.g. a HiPEC Flush when the frame manager's clean reserve is empty).
  sim::Nanos WritePageSync(uint64_t block);

  // Blocks until all queued writes have completed: advances virtual time event by event, or
  // (real clock) force-fires every scheduled completion.
  void DrainWrites();

  size_t pending_writes() const {
    sim::ScopedLock lock(mu_);
    return write_queue_.size() + (write_in_flight_ ? 1 : 0);
  }

  // Deterministic service time for moving the head from its current position to `block` and
  // transferring one page (or, in solid-state mode, the flat flash access time). Advances
  // the modelled head state.
  sim::Nanos ServiceTimeNs(uint64_t block, bool is_write = false);

  // Fault injection (scenario engine): every read pays this much extra service time until the
  // injection is cleared with 0. Models a degraded drive / saturated bus latency spike.
  void InjectReadLatency(sim::Nanos extra_ns) {
    sim::ScopedLock lock(mu_);
    injected_read_ns_ = extra_ns;
  }
  sim::Nanos injected_read_latency() const {
    sim::ScopedLock lock(mu_);
    return injected_read_ns_;
  }

  const DiskParams& params() const { return params_; }
  sim::CounterSet& counters() { return counters_; }
  obs::ProbeSet& probes() { return probes_; }

 private:
  struct PendingWrite {
    uint64_t block = 0;
    WriteDone on_complete = nullptr;
    void* ctx = nullptr;
  };

  // The queued writes, oldest first, in a ring that doubles when full and never shrinks, so
  // once it reaches the high-water mark queueing allocates nothing. hipecd's flushes can
  // outrun the disk ~50 to 1, leaving ~10^5 writes queued, so popping the oldest is O(1) and
  // entries stay small.
  class WriteRing {
   public:
    size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    // The i-th oldest write.
    PendingWrite& operator[](size_t i) { return slots_[(head_ + i) & (slots_.size() - 1)]; }
    void PushBack(PendingWrite write);
    // Removes the i-th oldest write; the others keep their order.
    PendingWrite Take(size_t i);

   private:
    std::vector<PendingWrite> slots_;  // capacity: 0 or a power of two
    size_t head_ = 0;
    size_t count_ = 0;
  };

  int64_t CylinderOf(uint64_t block) const {
    return static_cast<int64_t>(block / static_cast<uint64_t>(params_.BlocksPerCylinder())) %
           params_.cylinders;
  }
  sim::Nanos SeekNs(int64_t from_cyl, int64_t to_cyl) const;
  // Starts the next queued write if none is in flight; mu_ must be held.
  void MaybeStartWriteLocked();
  PendingWrite PopNextWrite();
  // The in-flight write's completion event.
  void CompleteWrite();

  sim::Clock* clock_;
  // Serializes head position, RNG, the write queue, and the stats sinks (one spindle).
  mutable sim::OrderedMutex mu_{sim::LockRank::kDisk};
  DiskParams params_;
  sim::Rng rng_;
  WriteScheduling sched_;
  int64_t head_cylinder_ = 0;
  sim::Nanos injected_read_ns_ = 0;
  bool write_in_flight_ = false;
  PendingWrite in_flight_;
  WriteRing write_queue_;
  sim::CounterSet counters_;
  obs::ProbeSet probes_;
};

}  // namespace hipec::disk

#endif  // HIPEC_DISK_DISK_MODEL_H_
