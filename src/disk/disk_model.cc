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

void DiskModel::WritePageAsync(uint64_t block, std::function<void()> on_complete) {
  sim::ScopedLock lock(mu_);
  counters_.Add(kCtrWritesQueued);
  write_queue_.push_back(PendingWrite{block, std::move(on_complete)});
  MaybeStartWriteLocked();
}

sim::Nanos DiskModel::WritePageSync(uint64_t block) {
  sim::ScopedLock lock(mu_);
  sim::Nanos service = ServiceTimeNs(block, /*is_write=*/true);
  clock_->Advance(service);
  counters_.Add(kCtrWritesSync);
  return service;
}

DiskModel::PendingWrite DiskModel::PopNextWrite() {
  HIPEC_CHECK(!write_queue_.empty());
  if (sched_ == WriteScheduling::kFifo) {
    PendingWrite w = std::move(write_queue_.front());
    write_queue_.pop_front();
    return w;
  }
  // Elevator: nearest cylinder to the current head position.
  size_t best = 0;
  int64_t best_distance = std::llabs(CylinderOf(write_queue_[0].block) - head_cylinder_);
  for (size_t i = 1; i < write_queue_.size(); ++i) {
    int64_t d = std::llabs(CylinderOf(write_queue_[i].block) - head_cylinder_);
    if (d < best_distance) {
      best_distance = d;
      best = i;
    }
  }
  PendingWrite w = std::move(write_queue_[best]);
  write_queue_.erase(write_queue_.begin() + static_cast<ptrdiff_t>(best));
  return w;
}

void DiskModel::MaybeStartWriteLocked() {
  if (write_in_flight_ || write_queue_.empty()) {
    return;
  }
  write_in_flight_ = true;
  PendingWrite w = PopNextWrite();
  sim::Nanos service = ServiceTimeNs(w.block, /*is_write=*/true);
  auto on_complete = std::move(w.on_complete);
  // The completion releases the disk lock before running on_complete: completion handlers
  // re-enter higher layers (frame manager laundry) whose locks rank below kDisk.
  clock_->ScheduleAfter(
      service,
      [this, on_complete = std::move(on_complete)]() {
        {
          sim::ScopedLock lock(mu_);
          counters_.Add(kCtrWritesDone);
          write_in_flight_ = false;
        }
        if (on_complete) {
          on_complete();
        }
        sim::ScopedLock lock(mu_);
        MaybeStartWriteLocked();
      },
      "disk-write-complete");
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
