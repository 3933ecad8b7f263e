// Per-task address maps, modelled on Mach's `vm_map`: an ordered set of entries, each mapping
// a contiguous virtual range onto a VM object. The *region* — one map entry — is HiPEC's unit
// of specific control (§3).
//
// Each entry also holds the pmap translations of its pages (mach/pmap.h) in a radix page
// table indexed by page number within the entry, so a fault finds the entry once and then
// both tests and installs its translation by index, without a per-task hash table.
#ifndef HIPEC_MACH_VM_MAP_H_
#define HIPEC_MACH_VM_MAP_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

#include "mach/page_table.h"
#include "mach/vm_object.h"
#include "sim/lock.h"

namespace hipec::mach {

struct VmMapEntry {
  uint64_t start = 0;  // inclusive
  uint64_t end = 0;    // exclusive
  VmObject* object = nullptr;
  uint64_t object_offset = 0;  // object offset corresponding to `start`
  // Read-only region; writes terminate the task. Used for wired HiPEC command buffers (§4.1).
  bool write_protected = false;
  // The pmap translation of each page of the range, or nullptr. Written only by Pmap, with
  // the owning task's lock held.
  PageTable<VmPage*> translations{(end - start) >> kPageShift};

  uint64_t size() const { return end - start; }
  uint64_t OffsetOf(uint64_t vaddr) const {
    return object_offset + ((vaddr - start) & ~(kPageSize - 1));
  }
  // Page number of `vaddr` within the entry: its slot in `translations`.
  uint64_t PageIndex(uint64_t vaddr) const { return (vaddr - start) >> kPageShift; }
};

class VmMap {
 public:
  VmMap() = default;
  VmMap(const VmMap&) = delete;
  VmMap& operator=(const VmMap&) = delete;

  // Finds the entry containing `vaddr`, or nullptr.
  VmMapEntry* Lookup(uint64_t vaddr);
  const VmMapEntry* Lookup(uint64_t vaddr) const;

  // Inserts a mapping at a kernel-chosen address; returns the start address.
  uint64_t Insert(VmObject* object, uint64_t object_offset, uint64_t size,
                  bool write_protected = false);

  // Inserts a mapping at a fixed address; the range must be free.
  void InsertAt(uint64_t start, VmObject* object, uint64_t object_offset, uint64_t size,
                bool write_protected = false);

  // Removes the entry starting at `start`, which must have no translation left; returns the
  // removed entry.
  VmMapEntry Remove(uint64_t start);

  size_t entry_count() const { return entries_.size(); }

  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    for (const auto& [start, entry] : entries_) {
      fn(entry);
    }
  }

 private:
  // Keyed by entry start address.
  std::map<uint64_t, VmMapEntry> entries_;
  // Simple bump allocator for kernel-chosen addresses; user address space is vast relative to
  // the experiments, so freed ranges are not recycled.
  uint64_t next_free_ = 0x0000'1000'0000ULL;
};

// A Mach task: an address space plus termination state. Thread scheduling is handled by the
// workload models; the kernel only needs the address space and fault accounting here.
//
// Concurrency: mutex() (rank kTask) guards the address map, the pmap translations in its
// entries, and pages mapped into it. Fault threads take it blocking at kernel entry; the
// manager and daemon reach it only via try_lock (DESIGN.md §10). The terminated flag is a
// relaxed atomic so the checker and other tasks' fault paths can poll it lock-free; the
// reason string is written once, under the task lock, before the flag is raised.
class Task {
 public:
  Task(uint64_t id, std::string name) : id_(id), name_(std::move(name)) {}
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  uint64_t id() const { return id_; }
  const std::string& name() const { return name_; }
  VmMap& map() { return map_; }
  const VmMap& map() const { return map_; }

  sim::OrderedMutex& mutex() const { return mu_; }

  bool terminated() const { return terminated_.load(std::memory_order_acquire); }
  const std::string& termination_reason() const { return termination_reason_; }
  void Terminate(const std::string& reason) {
    if (terminated_.load(std::memory_order_relaxed)) {
      return;
    }
    termination_reason_ = reason;
    terminated_.store(true, std::memory_order_release);
  }

 private:
  uint64_t id_;
  std::string name_;
  mutable sim::OrderedMutex mu_{sim::LockRank::kTask};
  VmMap map_;
  std::atomic<bool> terminated_{false};
  std::string termination_reason_;
};

}  // namespace hipec::mach

#endif  // HIPEC_MACH_VM_MAP_H_
