// The kernel facade: physical memory, tasks, address maps, the fault path, the pageout
// daemon, the disk, and the virtual clock — the substrate HiPEC is implemented on.
//
// Two kernel builds are modelled, as in §5.2:
//   * the unmodified Mach kernel (`hipec_build = false`), and
//   * the modified HiPEC kernel (`hipec_build = true`), which pays an extra check on every
//     fault ("is this address in a region controlled by a specific application?") and hosts
//     the security-checker thread.
#ifndef HIPEC_MACH_KERNEL_H_
#define HIPEC_MACH_KERNEL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "disk/disk_model.h"
#include "mach/emm.h"
#include "mach/pageout_daemon.h"
#include "mach/pmap.h"
#include "mach/vm_map.h"
#include "mach/vm_object.h"
#include "mach/vm_page.h"
#include "sim/clock.h"
#include "sim/cost_model.h"
#include "sim/lock.h"
#include "sim/stats.h"
#include "sim/trace.h"

namespace hipec::mach {

// True when the HIPEC_JIT environment variable selects the policy JIT (set and not "0").
// Read once per KernelParams construction so a test or CI job flips the whole suite's
// dispatch engine without touching call sites.
bool DefaultJitMode();

struct KernelParams {
  // 64 MB machine, like the paper's Acer Altos 10000.
  uint64_t total_frames = 16384;
  // Frames wired by the kernel at boot (text, data, zones, buffers).
  uint64_t kernel_reserved_frames = 2048;
  PageoutTargets pageout;
  // Build flavour (see file comment).
  bool hipec_build = false;
  sim::CostModel costs;
  disk::DiskParams disk;
  uint64_t seed = 0x1994;
  // Execution mode (sim/clock.h): the deterministic virtual-clock reference mode, or real
  // threads on a monotonic clock with the lock hierarchy armed (DESIGN.md §10).
  sim::ExecMode exec_mode = sim::ExecMode::kDeterministic;
  // Shards in the global free-frame pool (mach/frame_pool.h).
  size_t free_pool_shards = ShardedFramePool::kDefaultShards;
  // Shards in the pageout daemon's active/inactive queues (mach/pageout_daemon.h). 0 = pick
  // the default: 1 in deterministic mode, hardware_concurrency() (clamped) in real-threads.
  size_t daemon_shards = 0;
  // Run policies through the install-time template JIT (hipec/jit.h) instead of the IR
  // interpreter. Safe to enable anywhere: hosts without an emitter fall back to the
  // interpreter per event. Defaults from the HIPEC_JIT environment variable.
  bool jit_mode = DefaultJitMode();
};

// The execution context threaded through every kernel-side component (frame manager,
// checker, engine, executor) in place of reaching back into kernel singletons: which clock
// time comes from, which tracer events go to, which cost model charges derive from, and
// which execution mode — and therefore locking discipline — is in force.
//
// The vclock/clock split is the hot-path contract: `vclock` is non-null exactly in
// deterministic mode, so per-command charging is a devirtualized inline call behind one
// predictable branch, and real-threads mode (where host time passes by itself) pays nothing.
struct KernelContext {
  sim::Clock* clock = nullptr;
  sim::VirtualClock* vclock = nullptr;  // non-null iff deterministic
  sim::Tracer* tracer = nullptr;
  const sim::CostModel* costs = nullptr;
  sim::ExecMode mode = sim::ExecMode::kDeterministic;

  bool concurrent() const { return mode == sim::ExecMode::kRealThreads; }
  sim::Nanos now() const { return vclock != nullptr ? vclock->now() : clock->now(); }
  // Charges modelled cost: advances virtual time, or does nothing under a real clock.
  void Charge(sim::Nanos ns) const {
    if (vclock != nullptr) {
      vclock->Advance(ns);
    }
  }
};

// Context handed to the HiPEC engine when a fault lands in a specific region.
struct FaultContext {
  Task* task;
  VmMapEntry* entry;
  uint64_t vaddr;
  uint64_t object_offset;
  bool is_write;
};

// Hook through which the HiPEC engine (src/hipec) plugs into the fault path without the mach
// layer depending on it.
class FaultInterceptor {
 public:
  virtual ~FaultInterceptor() = default;
  // Handles a fault in a region whose object has a container. Returns false if the fault
  // could not be handled (the kernel then terminates the task).
  virtual bool HandleFault(const FaultContext& ctx) = 0;
  // Invoked before the kernel tears down a specific region, so private frames are returned.
  virtual void OnRegionTeardown(Task* task, VmMapEntry* entry) = 0;

  // Low-memory notification: the pageout daemon could not restore its free target while
  // serving a non-specific fault. Called from the fault path (foreground), so implementations
  // may reclaim, adapt watermarks, and charge time. Default: ignore.
  virtual void OnMemoryPressure() {}
};

// Snapshot of where every physical frame currently is; used by the conservation invariant.
struct FrameAccounting {
  size_t total = 0;
  size_t global_free = 0;
  size_t global_active = 0;
  size_t global_inactive = 0;
  size_t container_owned = 0;  // frames on HiPEC private queues (owner != nullptr)
  size_t manager_owned = 0;    // frames held by the frame manager itself (reserve + laundry)
  size_t wired = 0;
  size_t unaccounted = 0;  // should be 0 between operations

  size_t Sum() const {
    return global_free + global_active + global_inactive + container_owned + manager_owned +
           wired + unaccounted;
  }
};

class Kernel {
 public:
  explicit Kernel(KernelParams params);
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;
  ~Kernel();

  // --- Task and object management -----------------------------------------------------------

  Task* CreateTask(const std::string& name);
  void TerminateTask(Task* task, const std::string& reason);

  // Creates a file-like object with dedicated disk blocks (a memory-mappable data file).
  VmObject* CreateFileObject(const std::string& name, uint64_t size_bytes);

  // Creates an anonymous (zero-fill, swap-backed) object not yet mapped anywhere. Used by
  // vm_allocate() and by vm_allocate_hipec().
  VmObject* CreateAnonObject(uint64_t size_bytes);

  // Routes an object's backing-store traffic through an external pager (EMM interface).
  void AttachPager(VmObject* object, ExternalPager* pager) { object->pager = pager; }

  // Object lookup by id (used by pagers servicing messages).
  VmObject* FindObject(uint64_t object_id) const;

  // --- System calls (each charges the syscall cost) ------------------------------------------

  // vm_allocate(): anonymous, zero-filled, swap-backed region. Returns the region address.
  uint64_t VmAllocate(Task* task, uint64_t size_bytes);

  // vm_map(): maps a file object into the address space. Returns the region address.
  uint64_t VmMapFile(Task* task, VmObject* object);

  // vm_deallocate(): removes the region starting at `start`, freeing resident frames.
  void VmDeallocate(Task* task, uint64_t start);

  // Fault-in and wire [vaddr, vaddr+size): the pages are removed from replacement queues.
  void VmWire(Task* task, uint64_t vaddr, uint64_t size_bytes);

  // A null system call (used by Table 4 and by the upcall/IPC baselines).
  void NullSyscall();

  // Creates a wired, write-protected region (the "wired down user-level area" holding a HiPEC
  // command buffer, §4.1). Frames are taken from the global pool and never paged.
  uint64_t MapWiredRegion(Task* task, uint64_t size_bytes);

  // --- Memory access -------------------------------------------------------------------------

  // One user-level access. Returns false if the task is (or becomes) terminated.
  bool Touch(Task* task, uint64_t vaddr, bool is_write);

  // Touches every page of [vaddr, vaddr+size) once.
  bool TouchRange(Task* task, uint64_t vaddr, uint64_t size_bytes, bool is_write);

  // Asynchronously writes back the page mapped at `vaddr` if it is resident and dirty.
  // Takes the same world/task locks as Touch, so external front-ends (hipecd's drain loop)
  // may call it from any thread. Returns false only if the task is terminated; a clean or
  // non-resident page is a successful no-op.
  bool FlushAddress(Task* task, uint64_t vaddr);

  // --- Services used by the daemon and the HiPEC engine ---------------------------------------

  // Unmaps, optionally flushes (if dirty), and removes the page from its object. The page must
  // already be off all queues. After this the frame is free to reuse.
  //
  // Returns false only in real-threads mode, when the mapping task's lock could not be
  // acquired without inverting the hierarchy (manager/daemon → task is a try-lock edge,
  // DESIGN.md §10); the caller must requeue the page and pick another victim. Always true in
  // deterministic mode and whenever the caller already holds the task lock.
  [[nodiscard]] bool EvictPage(VmPage* page, bool flush_if_dirty);

  // Asynchronously writes a resident dirty page to its backing store and clears the dirty bit.
  void FlushPageAsync(VmPage* page);

  // Installs `page` as the resident page for (entry, vaddr): disk read if the data is only on
  // disk, object insert, pmap enter, bits set. Charges the fault-path base cost.
  void InstallPage(Task* task, VmMapEntry* entry, uint64_t vaddr, VmPage* page, bool is_write);

  void ChargePageoutScan(size_t pages_examined);

  // CPU time consumed by kernel threads (the security checker) while no foreground
  // computation is running. Event callbacks cannot advance the clock themselves, so they
  // accumulate their cost here and the next foreground operation pays it. Atomic because the
  // real-threads checker charges from its own thread.
  void AddDeferredCharge(sim::Nanos ns) {
    pending_charge_ns_.fetch_add(ns, std::memory_order_relaxed);
  }
  sim::Nanos pending_deferred_charge() const {
    return pending_charge_ns_.load(std::memory_order_relaxed);
  }

  // --- Components ----------------------------------------------------------------------------

  sim::Clock& clock() { return *clock_ptr_; }
  // The virtual clock, or nullptr in real-threads mode. Hot paths that charge modelled time
  // use this (one null check instead of a virtual call); code that needs RunUntil() or
  // dispatching() must run in deterministic mode and may CHECK it non-null.
  sim::VirtualClock* virtual_clock() { return vclock_.get(); }
  const KernelContext& ctx() const { return ctx_; }
  sim::ExecMode exec_mode() const { return params_.exec_mode; }
  bool concurrent() const { return params_.exec_mode == sim::ExecMode::kRealThreads; }
  sim::Tracer& tracer() { return tracer_; }
  const sim::CostModel& costs() const { return params_.costs; }
  disk::DiskModel& disk() { return *disk_; }
  PageoutDaemon& daemon() { return *daemon_; }
  Pmap& pmap() { return pmap_; }
  sim::CounterSet& counters() { return counters_; }
  const KernelParams& params() const { return params_; }
  bool hipec_build() const { return params_.hipec_build; }

  // The stop-the-world lock for cross-cutting audits in real-threads mode: fault threads
  // hold it shared for the duration of each kernel entry point; the invariant auditor takes
  // it exclusive to see a quiesced machine. No-op in deterministic mode.
  sim::WorldLock& world() { return world_; }

  void SetFaultInterceptor(FaultInterceptor* interceptor) { interceptor_ = interceptor; }

  // Forwards the daemon's low-memory signal to the interceptor (re-entrancy guarded; in
  // real-threads mode the guard is per-machine, so concurrent notifications coalesce —
  // pressure handling is advisory and the loser's fault path re-checks the watermarks).
  void NotifyMemoryPressure() {
    if (interceptor_ == nullptr) {
      return;
    }
    bool expected = false;
    if (!in_pressure_notification_.compare_exchange_strong(expected, true,
                                                           std::memory_order_acq_rel)) {
      return;
    }
    interceptor_->OnMemoryPressure();
    in_pressure_notification_.store(false, std::memory_order_release);
  }

  // Frames that were free once the kernel finished booting; partition_burst derives from it.
  uint64_t boot_free_frames() const { return boot_free_frames_; }

  // `manager_owner` (when non-null) is the frame manager's self-ownership tag: frames whose
  // owner equals it are classified manager_owned instead of container_owned, letting the
  // scenario auditor state the conservation invariant per pool.
  FrameAccounting ComputeFrameAccounting(const void* manager_owner = nullptr) const;

  // Visits every physical frame (wired or not). Used by recovery paths (leaked-frame sweeps)
  // and invariant checks; `fn` must not allocate or free frames.
  template <typename Fn>
  void ForEachFrame(Fn&& fn) {
    for (VmPage& page : frames_) {
      fn(&page);
    }
  }

  uint64_t AllocSwapBlocks(uint64_t n_pages);

 private:
  // Touch's body, for callers that already hold the world lock (shared) and the task lock
  // and have checked that the task is live.
  bool TouchLocked(Task* task, uint64_t vaddr, bool is_write);
  void DefaultFault(Task* task, VmMapEntry* entry, uint64_t vaddr, bool is_write);
  // EvictPage with the task-lock edge already resolved by the caller.
  void EvictPageLocked(VmPage* page, bool flush_if_dirty);
  uint64_t AllocSwapBlocksLocked(uint64_t n_pages);

  KernelParams params_;
  // Exactly one clock exists per kernel; clock_ptr_ is the erased view, vclock_ the
  // deterministic fast path (null in real-threads mode).
  std::unique_ptr<sim::VirtualClock> vclock_;
  std::unique_ptr<sim::RealClock> rclock_;
  sim::Clock* clock_ptr_ = nullptr;
  std::unique_ptr<disk::DiskModel> disk_;
  std::vector<VmPage> frames_;
  std::unique_ptr<PageoutDaemon> daemon_;
  Pmap pmap_;
  // Guards tasks_/objects_/id counters/swap cursor — pure bookkeeping, rank kLeaf.
  mutable sim::OrderedMutex structure_mu_{sim::LockRank::kLeaf};
  std::vector<std::unique_ptr<Task>> tasks_;
  std::vector<std::unique_ptr<VmObject>> objects_;
  FaultInterceptor* interceptor_ = nullptr;
  sim::CounterSet counters_;
  uint64_t next_object_id_ = 1;
  uint64_t next_task_id_ = 1;
  uint64_t next_disk_block_ = 1'000'000;  // swap + file blocks allocated upward from here
  uint64_t boot_free_frames_ = 0;
  std::atomic<sim::Nanos> pending_charge_ns_{0};
  std::atomic<bool> in_pressure_notification_{false};
  sim::WorldLock world_;
  sim::Tracer tracer_;
  KernelContext ctx_;
};

}  // namespace hipec::mach

#endif  // HIPEC_MACH_KERNEL_H_
