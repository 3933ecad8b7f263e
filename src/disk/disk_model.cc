#include "disk/disk_model.h"

#include <cmath>
#include <cstdlib>
#include <utility>

#include "sim/check.h"

namespace hipec::disk {

namespace {

// Interned counter ids: array-indexed adds on the fault path, no string lookups.
const sim::CounterId kCtrReads = sim::InternCounter("disk.reads");
const sim::CounterId kCtrWritesQueued = sim::InternCounter("disk.writes_queued");
const sim::CounterId kCtrWritesSync = sim::InternCounter("disk.writes_sync");
const sim::CounterId kCtrWritesDone = sim::InternCounter("disk.writes_done");

// Probe ids: read service-time distribution (including queue-wait and injected latency).
const obs::ProbeId kPrbReadNs = obs::InternProbe("disk.read_ns");

}  // namespace

DiskModel::DiskModel(sim::Clock* clock, DiskParams params, uint64_t seed,
                     WriteScheduling sched)
    : clock_(clock), params_(params), rng_(seed), sched_(sched) {
  HIPEC_CHECK(clock != nullptr);
  HIPEC_CHECK(params_.cylinders > 0 && params_.heads > 0 && params_.sectors_per_track > 0);
}

void DiskModel::EnableConcurrent() {
  mu_.Enable(true);
  counters_.EnableConcurrent();
  probes_.EnableConcurrent();
}

sim::Nanos DiskModel::SeekNs(int64_t from_cyl, int64_t to_cyl) const {
  int64_t distance = std::llabs(to_cyl - from_cyl);
  if (distance == 0) {
    return 0;
  }
  return params_.seek_base_ns +
         static_cast<sim::Nanos>(static_cast<double>(params_.seek_per_sqrt_cyl_ns) *
                                 std::sqrt(static_cast<double>(distance)));
}

sim::Nanos DiskModel::ServiceTimeNs(uint64_t block, bool is_write) {
  sim::ScopedLock lock(mu_);
  if (params_.solid_state) {
    sim::Nanos transfer =
        is_write ? static_cast<sim::Nanos>(static_cast<double>(params_.flash_read_ns) *
                                           params_.flash_write_penalty)
                 : params_.flash_read_ns;
    return params_.controller_overhead_ns + transfer;
  }
  int64_t target = CylinderOf(block);
  sim::Nanos seek = SeekNs(head_cylinder_, target);
  head_cylinder_ = target;
  // Rotational position is not tracked exactly; latency is uniform over one revolution.
  auto rotation = static_cast<sim::Nanos>(
      rng_.Uniform() * static_cast<double>(params_.RevolutionNs()));
  return params_.controller_overhead_ns + seek + rotation + params_.PageTransferNs();
}

sim::Nanos DiskModel::ReadPage(uint64_t block) {
  sim::ScopedLock lock(mu_);
  sim::Nanos start = clock_->now();
  // Reads wait only if the write queue is saturated (back-pressure), mirroring how the global
  // frame manager's laundry throttles under heavy flushing. Waiting on the event queue is a
  // virtual-time construct; under a real clock the queue simply grows until polled.
  if (clock_->deterministic()) {
    while (write_queue_.size() >= params_.write_queue_limit) {
      sim::Nanos deadline = clock_->next_deadline();
      HIPEC_CHECK_MSG(deadline >= 0, "write queue saturated with no drain event pending");
      clock_->AdvanceTo(deadline);
    }
  }
  sim::Nanos service = ServiceTimeNs(block) + injected_read_ns_;
  clock_->Advance(service);
  counters_.Add(kCtrReads);
  sim::Nanos total = clock_->deterministic() ? clock_->now() - start : service;
  if (obs::ProbesEnabled()) {
    probes_.Record(kPrbReadNs, total);
  }
  return total;
}

void DiskModel::WritePageAsync(uint64_t block, WriteDone on_complete, void* ctx) {
  sim::ScopedLock lock(mu_);
  counters_.Add(kCtrWritesQueued);
  write_queue_.PushBack(PendingWrite{block, on_complete, ctx});
  MaybeStartWriteLocked();
}

sim::Nanos DiskModel::WritePageSync(uint64_t block) {
  sim::ScopedLock lock(mu_);
  sim::Nanos service = ServiceTimeNs(block, /*is_write=*/true);
  clock_->Advance(service);
  counters_.Add(kCtrWritesSync);
  return service;
}

void DiskModel::WriteRing::PushBack(PendingWrite write) {
  if (count_ == slots_.size()) {
    std::vector<PendingWrite> grown(slots_.empty() ? 16 : 2 * slots_.size());
    for (size_t i = 0; i < count_; ++i) {
      grown[i] = (*this)[i];
    }
    slots_.swap(grown);
    head_ = 0;
  }
  ++count_;
  (*this)[count_ - 1] = write;
}

DiskModel::PendingWrite DiskModel::WriteRing::Take(size_t i) {
  PendingWrite write = (*this)[i];
  // Close the gap from the old end: FIFO takes i == 0 and moves nothing.
  for (; i > 0; --i) {
    (*this)[i] = (*this)[i - 1];
  }
  head_ = (head_ + 1) & (slots_.size() - 1);
  --count_;
  return write;
}

DiskModel::PendingWrite DiskModel::PopNextWrite() {
  HIPEC_CHECK(!write_queue_.empty());
  // FIFO takes the oldest write; the elevator the oldest of those nearest the head.
  const size_t candidates = sched_ == WriteScheduling::kElevator ? write_queue_.size() : 1;
  size_t best = 0;
  int64_t best_distance = INT64_MAX;
  for (size_t i = 0; i < candidates; ++i) {
    int64_t d = std::llabs(CylinderOf(write_queue_[i].block) - head_cylinder_);
    if (d < best_distance) {
      best_distance = d;
      best = i;
    }
  }
  return write_queue_.Take(best);
}

void DiskModel::MaybeStartWriteLocked() {
  if (write_in_flight_ || write_queue_.empty()) {
    return;
  }
  write_in_flight_ = true;
  in_flight_ = PopNextWrite();
  sim::Nanos service = ServiceTimeNs(in_flight_.block, /*is_write=*/true);
  clock_->ScheduleAfter(service, [this] { CompleteWrite(); }, "disk-write-complete");
}

void DiskModel::CompleteWrite() {
  PendingWrite done;
  {
    sim::ScopedLock lock(mu_);
    counters_.Add(kCtrWritesDone);
    write_in_flight_ = false;
    done = in_flight_;
  }
  // Run the callback without the disk lock: completion handlers re-enter higher layers
  // (frame manager laundry) whose locks rank below kDisk.
  if (done.on_complete != nullptr) {
    done.on_complete(done.ctx);
  }
  sim::ScopedLock lock(mu_);
  MaybeStartWriteLocked();
}

void DiskModel::DrainWrites() {
  if (clock_->deterministic()) {
    while (pending_writes() > 0) {
      sim::Nanos deadline = clock_->next_deadline();
      HIPEC_CHECK_MSG(deadline >= 0, "pending writes but no completion event");
      clock_->AdvanceTo(deadline);
    }
    return;
  }
  // Real clock: force-fire scheduled completions until the chain is exhausted (each
  // completion may start the next queued write).
  while (pending_writes() > 0) {
    clock_->PollDue(/*fire_all=*/true);
  }
}

}  // namespace hipec::disk
