// The global frame manager (§4.3.1): the pageout daemon extended to partition the centralized
// frame pool into per-application private lists. Implements the paper's four tasks:
//
//   * Balance      — the partition_burst watermark (default 50% of post-boot free frames)
//                    bounds the total frames held by all specific applications.
//   * Allocation   — minFrame admission at registration; all-or-nothing grants for the
//                    Request command.
//   * Deallocation — normal reclamation (FAFR: First Allocated, First Reclaimed, walking the
//                    container list and running each victim's ReclaimFrame event) and forced
//                    reclamation (seizing frames from the global allocation-time-ordered
//                    frame list, flushing dirty ones).
//   * I/O handling — the Flush command releases the dirty page to the manager and receives a
//                    clean frame from the reserve immediately; the write happens later, so
//                    the policy executor never waits on the disk.
#ifndef HIPEC_HIPEC_FRAME_MANAGER_H_
#define HIPEC_HIPEC_FRAME_MANAGER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "hipec/container.h"
#include "mach/kernel.h"
#include "obs/probe.h"
#include "sim/lock.h"
#include "sim/stats.h"

namespace hipec::core {

// Victim-selection order for normal reclamation. The paper implements FAFR and calls the
// frame allocation/deallocation policy out as future work (§6); the alternatives exist for
// the reclamation ablation.
enum class ReclaimOrder {
  kFafr,          // First Allocated, First Reclaimed (container creation order) — the paper
  kRoundRobin,    // rotate the starting victim across reclamation rounds
  kLargestFirst,  // biggest surplus first
};

struct FrameManagerConfig {
  // partition_burst = fraction * (free frames after boot). The paper fixes 50%.
  double partition_burst_fraction = 0.5;
  // Clean frames kept aside for Flush exchanges.
  size_t reserve_frames = 64;
  ReclaimOrder reclaim_order = ReclaimOrder::kFafr;

  // Extension (§4.3.1 future work): "an adaptable or dynamically adjustable partition_burst".
  // When enabled, the watermark drifts between the min/max fractions: toward max while
  // specific requests are being rejected and the global daemon is idle, toward min while
  // non-specific applications are paging and no specific request has been denied.
  bool adaptive_burst = false;
  double burst_min_fraction = 0.25;
  double burst_max_fraction = 0.90;
  // Step per adjustment, as a fraction of post-boot free frames.
  double burst_step_fraction = 0.05;
  // Minimum virtual time between adjustments (pressure notifications arrive per fault).
  sim::Nanos burst_adapt_interval_ns = 250 * sim::kMillisecond;
};

class GlobalFrameManager {
 public:
  GlobalFrameManager(mach::Kernel* kernel, FrameManagerConfig config);
  GlobalFrameManager(const GlobalFrameManager&) = delete;
  GlobalFrameManager& operator=(const GlobalFrameManager&) = delete;

  // Arms the manager lock and stats sinks for real-threads mode. The lock (rank kManager,
  // recursive — victim teardown re-enters RemoveContainer) serializes every manager
  // decision; reaching *into* a victim task happens only through try-lock edges
  // (DESIGN.md §10). Real-mode disk completions are polled at each entry point, before the
  // manager lock is taken, so laundry returns need no extra thread.
  void EnableConcurrent();
  sim::OrderedMutex& mutex() const { return mu_; }

  // Runs a container's ReclaimFrame event asking it to release up to `n` frames and returns
  // how many were actually released; installed by the engine (the manager cannot depend on
  // the executor directly). If the policy misbehaves the runner may terminate the victim —
  // the container may be freed by the time the runner returns, so the manager must not touch
  // it afterwards.
  using ReclaimRunner = std::function<size_t(Container*, size_t)>;
  void SetReclaimRunner(ReclaimRunner runner) { reclaim_runner_ = std::move(runner); }

  // Invoked after every completed manager decision (admission, request, release, flush,
  // migration, container removal) with a short decision name. The scenario engine's invariant
  // auditor hangs off this hook; it must not allocate or free frames. Decisions nested inside
  // reclamation (a victim policy Releasing frames mid-Request) fire the hook too — manager
  // state is consistent at each of those boundaries.
  using DecisionHook = std::function<void(const char* decision)>;
  void SetDecisionHook(DecisionHook hook) { decision_hook_ = std::move(hook); }

  // --- Registration ---------------------------------------------------------------------------

  // Grants the container its minFrame pages onto its private free list. All-or-nothing; on
  // failure the container is untouched and the application "can either run as a non-specific
  // application or terminate and retry later".
  bool AdmitContainer(Container* container);

  // Returns every frame the container holds (on any private queue or in a page variable) to
  // the global pool and forgets the container.
  void RemoveContainer(Container* container);

  // --- The Request / Release / Flush commands -------------------------------------------------

  // All-or-nothing grant of `n` more frames onto `dest`. Rejected when the burst watermark or
  // free memory cannot accommodate it even after reclamation.
  bool RequestFrames(Container* container, size_t n, mach::PageQueue* dest);

  // Gives one frame (off-queue, owned by `container`) back to the global pool.
  void ReleaseFrame(Container* container, mach::VmPage* page);

  // Flush: takes a (possibly dirty) page. If dirty, its contents are queued for asynchronous
  // write-back and a clean frame from the reserve is returned in exchange; if the reserve is
  // empty the write is synchronous and the same frame is returned. Clean pages are returned
  // unchanged. The returned frame is what the policy should continue using.
  mach::VmPage* FlushExchange(Container* container, mach::VmPage* page);

  // Low-memory signal from the pageout daemon (via the engine): the adaptive watermark
  // reacts here, so non-specific pressure is seen even when no specific application is
  // making allocation calls.
  void OnMemoryPressure();

  // Extension (§6): migrates one frame (off-queue, owned by `from`) to the container whose
  // id is `target_id`. Succeeds only if the target exists, is not the source, and registered
  // with accepts_migration; dirty contents are flushed and the frame lands on the target's
  // private free list.
  bool MigrateFrame(Container* from, mach::VmPage* page, uint64_t target_id);

  // --- Introspection --------------------------------------------------------------------------

  size_t partition_burst() const { return partition_burst_; }
  size_t total_specific() const { return total_specific_; }
  const std::vector<Container*>& containers() const { return containers_; }
  size_t reserve_count() const { return reserve_.count(); }
  size_t laundry_count() const { return laundry_.count(); }
  sim::CounterSet& counters() { return counters_; }
  obs::ProbeSet& probes() { return probes_; }

  // Frames owned by the manager itself (reserve + laundry); for the conservation invariant.
  size_t manager_owned() const { return reserve_.count() + laundry_.count(); }

  // Frames stocked into the Flush reserve at boot. Flush exchanges swap frames one-for-one,
  // so reserve + laundry must equal this at every decision boundary (audited invariant).
  size_t stocked_reserve() const { return stocked_reserve_; }

  // Head of the global allocation-time-ordered frame list (FAFR forced-reclamation order);
  // walk with VmPage::alloc_next. Exposed for the invariant auditor.
  const mach::VmPage* alloc_head() const { return alloc_head_; }

 private:
  // Real-threads mode: fire any due disk completions (laundry returns) before a decision.
  // Called before mu_ is taken — the completion callbacks acquire it themselves.
  void PollCompletions();
  // Disk completion of a FlushExchange write-back: moves the laundered page (`ctx`) from the
  // laundry to the reserve. The page's owner, while in the laundry, is the manager itself.
  static void LaunderDone(void* ctx);
  // Makes >= n frames available in the daemon's free pool (balance, then normal reclamation,
  // then forced reclamation). Returns false if even that fails.
  bool EnsureManagerFrames(size_t n, Container* requester);
  // Keeps total_specific_ + n within partition_burst, reclaiming from other applications.
  bool CheckBurst(Container* requester, size_t n);
  // Moves `n` frames from the daemon onto `dest`, owned and accounted to `container`.
  // False only when a concurrent allocator won the race after EnsureManagerFrames.
  [[nodiscard]] bool GrantFrames(Container* container, size_t n, mach::PageQueue* dest);

  size_t NormalReclaim(size_t needed, Container* exclude);
  size_t ForcedReclaim(size_t needed, Container* exclude);

  // Adaptive-burst adjustment, run before each allocation decision when enabled.
  void MaybeAdaptBurst();

  void TrackAlloc(mach::VmPage* page);
  void UntrackAlloc(mach::VmPage* page);

  void NotifyDecision(const char* decision) {
    if (decision_hook_) {
      decision_hook_(decision);
    }
  }

  mach::Kernel* kernel_;
  FrameManagerConfig config_;
  // One lock for every manager decision: burst accounting, the FAFR list, reserve/laundry,
  // and the container list all mutate together within a decision, so finer locks would buy
  // contention-prone consistency repair, not parallelism (decisions are rare next to faults).
  mutable sim::OrderedMutex mu_{sim::LockRank::kManager};
  size_t partition_burst_;
  size_t total_specific_ = 0;

  // Registration order == FAFR victim order ("the newly created container is added to the end
  // of the list that links all containers").
  std::vector<Container*> containers_;

  mach::PageQueue reserve_;
  mach::PageQueue laundry_;

  // Global allocation-time-ordered frame list for forced reclamation.
  mach::VmPage* alloc_head_ = nullptr;
  mach::VmPage* alloc_tail_ = nullptr;

  ReclaimRunner reclaim_runner_;
  DecisionHook decision_hook_;
  size_t reclaim_cursor_ = 0;
  size_t stocked_reserve_ = 0;
  uint64_t next_alloc_seq_ = 1;

  // Adaptive-burst state.
  size_t boot_free_frames_ = 0;
  int64_t last_daemon_evictions_ = 0;
  int64_t last_requests_rejected_ = 0;
  sim::Nanos last_adapt_ns_ = -1;

  sim::CounterSet counters_;
  obs::ProbeSet probes_;
};

}  // namespace hipec::core

#endif  // HIPEC_HIPEC_FRAME_MANAGER_H_
