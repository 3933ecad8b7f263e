#include "mach/vm_map.h"

#include <utility>

#include "sim/check.h"

namespace hipec::mach {

VmMapEntry* VmMap::Lookup(uint64_t vaddr) {
  auto it = entries_.upper_bound(vaddr);
  if (it == entries_.begin()) {
    return nullptr;
  }
  --it;
  VmMapEntry& entry = it->second;
  return (vaddr >= entry.start && vaddr < entry.end) ? &entry : nullptr;
}

const VmMapEntry* VmMap::Lookup(uint64_t vaddr) const {
  return const_cast<VmMap*>(this)->Lookup(vaddr);
}

uint64_t VmMap::Insert(VmObject* object, uint64_t object_offset, uint64_t size,
                       bool write_protected) {
  uint64_t start = next_free_;
  next_free_ += (size + kPageSize - 1) & ~(kPageSize - 1);
  next_free_ += kPageSize;  // guard page between regions
  InsertAt(start, object, object_offset, size, write_protected);
  return start;
}

void VmMap::InsertAt(uint64_t start, VmObject* object, uint64_t object_offset, uint64_t size,
                     bool write_protected) {
  HIPEC_CHECK_MSG(start % kPageSize == 0 && size % kPageSize == 0 && size > 0,
                  "unaligned or empty mapping");
  HIPEC_CHECK_MSG(object_offset + size <= object->size(), "mapping beyond object");
  HIPEC_CHECK_MSG(Lookup(start) == nullptr && Lookup(start + size - 1) == nullptr,
                  "mapping overlaps an existing entry");
  entries_.emplace(start, VmMapEntry{start, start + size, object, object_offset,
                                     write_protected});
}

VmMapEntry VmMap::Remove(uint64_t start) {
  auto it = entries_.find(start);
  HIPEC_CHECK_MSG(it != entries_.end(), "no map entry at this address");
  HIPEC_CHECK_MSG(it->second.translations.empty(), "removing a region with pages still mapped");
  VmMapEntry entry = std::move(it->second);
  entries_.erase(it);
  return entry;
}

}  // namespace hipec::mach
