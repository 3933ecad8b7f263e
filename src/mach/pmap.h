// Physical map (pmap) emulation: per-task virtual-to-physical translations plus the
// reference/modify bits the HiPEC `Ref`/`Mod`/`Set` commands and the pageout daemon consult.
//
// The reproduction uses a single-mapping model — a frame is mapped into at most one task at a
// time — which covers every experiment in the paper (no experiment shares pages).
#ifndef HIPEC_MACH_PMAP_H_
#define HIPEC_MACH_PMAP_H_

#include <atomic>
#include <cstdint>

#include "mach/vm_map.h"
#include "mach/vm_page.h"

namespace hipec::mach {

// Thread-safety contract (DESIGN.md §10): translations of a task are guarded by that task's
// rank-kTask lock, which every mutator of those translations holds (fault path blocking,
// manager/daemon via try_lock through the page's mapped_task). The translations live in the
// task's map entries (VmMapEntry::translations), one page-table slot per page of the region,
// so there is no shared pmap-wide structure: task creation — which happens mid-run under the
// M:N scheduler — never resizes anything a concurrent fault in another task could be
// reading. This class is just the protocol (single-mapping checks, the VmPage mapping
// back-pointers, the global mapping count).
class Pmap {
 public:
  Pmap() = default;
  Pmap(const Pmap&) = delete;
  Pmap& operator=(const Pmap&) = delete;

  // Installs a translation for `vaddr`, which lies in `entry`, a map entry of `task`. The
  // page must not currently be mapped anywhere. Writes through the mapping fault when the
  // entry is write-protected.
  void Enter(Task* task, VmMapEntry* entry, uint64_t vaddr, VmPage* page);

  // Translation lookup; nullptr on miss, including an address outside every map entry.
  VmPage* Lookup(const Task* task, uint64_t vaddr) const;
  static VmPage* Lookup(const VmMapEntry& entry, uint64_t vaddr) {
    return entry.translations.Get(entry.PageIndex(vaddr));
  }

  // Tears down the translation for `page` (no-op if unmapped). Resolves the owning task
  // and map entry through the page's mapping back-pointers; the caller holds that task's
  // lock.
  void RemovePage(VmPage* page);

  // True if writes through the current mapping of `page` must fault.
  bool IsWriteProtected(const VmPage* page) const;

  size_t mapping_count() const { return count_.load(std::memory_order_relaxed); }

 private:
  // The map entry `page` is mapped through; CHECKs that it exists.
  static VmMapEntry* MappedEntry(const VmPage* page);

  std::atomic<size_t> count_{0};
};

}  // namespace hipec::mach

#endif  // HIPEC_MACH_PMAP_H_
