// The machine-independent page structure, modelled on Mach's `struct vm_page`.
//
// One VmPage exists per physical frame. A page is linked onto at most one replacement queue
// at a time (global free/active/inactive queues, or a HiPEC container's private queues), plus
// — independently — the global allocation-ordered list the frame manager walks during forced
// reclamation (§4.3.1 "Deallocation").
#ifndef HIPEC_MACH_VM_PAGE_H_
#define HIPEC_MACH_VM_PAGE_H_

#include <atomic>
#include <cstdint>

#include "sim/clock.h"

namespace hipec::mach {

inline constexpr uint64_t kPageSize = 4096;
inline constexpr uint64_t kPageShift = 12;

class VmObject;
class PageQueue;
class Task;

struct VmPage {
  // Identity.
  uint32_t frame_number = 0;

  // Object residency: which VM object (and offset within it) this frame currently caches.
  VmObject* object = nullptr;
  uint64_t offset = 0;  // page-aligned byte offset within `object`

  // Replacement-queue linkage (intrusive, owned by PageQueue). `queue` is atomic because the
  // sharded pageout daemon resolves a page's shard from it *before* taking that shard's lock
  // (then re-checks under the lock); the links themselves are only ever touched under the
  // lock guarding the owning queue. All PageQueue-internal accesses are relaxed — the shard
  // mutexes order the transitions; the atomic only makes the pre-lock read well-defined.
  VmPage* q_prev = nullptr;
  VmPage* q_next = nullptr;
  std::atomic<PageQueue*> queue{nullptr};

  // State bits.
  bool wired = false;     // never paged (kernel memory, command buffers, pinned tables)
  // In flight between daemon queues: set (release) by a balance/desperation pass that holds a
  // page off-queue momentarily while deciding its fate, cleared (release) once the page has
  // landed. Unqueue() — called with the mapping task's lock held, which pins the page's
  // residency — spins on it so "queue == nullptr" is never mistaken for "off every queue"
  // while a concurrent balance pass is mid-transition.
  std::atomic<bool> busy{false};
  // pmap-emulated reference bit. Atomic because the fault path sets it under the task lock
  // while a pageout-daemon balance pass clears it under a shard lock only; every access is
  // relaxed, as on hardware. The policy JIT reads and writes it as a plain byte.
  std::atomic<bool> reference{false};
  bool modified = false;  // pmap-emulated modify (dirty) bit

  // Simulator-maintained recency, used by the LRU/MRU complex commands. On real Mach this is
  // approximated with reference-bit sampling (Draves, "Page Replacement and Reference Bit
  // Emulation in Mach"); the simulator can afford exact times.
  sim::Nanos last_reference_ns = 0;
  // Time this page was appended to its current queue (FIFO arrival order).
  sim::Nanos enqueue_ns = 0;
  // Policy-visible per-page scratch word: written/read by the PageWord command, rewritten by
  // AgeScores and ranked by WeightedSelect. Belongs to the owning container's policy; zeroed
  // whenever the frame is granted to a new owner so scores never leak between containers,
  // and again before the frame is installed for a fault, so every new page starts at 0.
  int64_t user_word = 0;

  // Private-pool ownership: the HiPEC container this frame is allocated to, or nullptr when
  // the frame belongs to the global pool. Opaque at this layer.
  void* owner = nullptr;

  // Allocation-ordered list for FAFR forced reclamation (only frames with owner != nullptr).
  VmPage* alloc_prev = nullptr;
  VmPage* alloc_next = nullptr;
  bool on_alloc_list = false;
  // Monotonic stamp assigned when the frame manager appends the frame to the allocation
  // list; the scenario invariant auditor verifies the list stays sorted by it (FAFR order).
  uint64_t alloc_seq = 0;

  // Reverse mapping. The reproduction uses a single-mapping model (no page sharing between
  // tasks), which covers every experiment in the paper.
  Task* mapped_task = nullptr;
  uint64_t mapped_vaddr = 0;
  bool has_mapping = false;
};

}  // namespace hipec::mach

#endif  // HIPEC_MACH_VM_PAGE_H_
