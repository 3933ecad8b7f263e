#include "mach/pmap.h"

#include "sim/check.h"

namespace hipec::mach {

void Pmap::Enter(Task* task, VmMapEntry* entry, uint64_t vaddr, VmPage* page) {
  HIPEC_CHECK_MSG(!page->has_mapping,
                  "frame " << page->frame_number << " is already mapped (single-mapping model)");
  HIPEC_CHECK_MSG(vaddr >= entry->start && vaddr < entry->end, "vaddr outside its map entry");
  const uint64_t index = entry->PageIndex(vaddr);
  HIPEC_CHECK_MSG(entry->translations.Get(index) == nullptr, "vaddr already translated");
  entry->translations.Set(index, page);
  page->has_mapping = true;
  page->mapped_task = task;
  page->mapped_vaddr = vaddr & ~(kPageSize - 1);
  count_.fetch_add(1, std::memory_order_relaxed);
}

VmPage* Pmap::Lookup(const Task* task, uint64_t vaddr) const {
  const VmMapEntry* entry = task->map().Lookup(vaddr);
  return entry == nullptr ? nullptr : Lookup(*entry, vaddr);
}

VmMapEntry* Pmap::MappedEntry(const VmPage* page) {
  VmMapEntry* entry = page->mapped_task->map().Lookup(page->mapped_vaddr);
  HIPEC_CHECK_MSG(entry != nullptr, "mapped page outside every map entry of its task");
  return entry;
}

void Pmap::RemovePage(VmPage* page) {
  if (!page->has_mapping) {
    return;
  }
  VmMapEntry* entry = MappedEntry(page);
  const uint64_t index = entry->PageIndex(page->mapped_vaddr);
  HIPEC_CHECK(entry->translations.Get(index) == page);
  entry->translations.Set(index, nullptr);
  page->has_mapping = false;
  page->mapped_task = nullptr;
  page->mapped_vaddr = 0;
  count_.fetch_sub(1, std::memory_order_relaxed);
}

bool Pmap::IsWriteProtected(const VmPage* page) const {
  return page->has_mapping && MappedEntry(page)->write_protected;
}

}  // namespace hipec::mach
