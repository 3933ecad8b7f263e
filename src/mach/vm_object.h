// VM objects, modelled on Mach's `vm_object`: a pager-backed segment of data (a memory-mapped
// file or an anonymous region backed by the default pager / swap). HiPEC mounts its container
// under the VM object (§4.1), so the object carries an opaque container pointer.
//
// Residency and the paged-out marks are radix page tables indexed by page number
// (mach/page_table.h), so installing and evicting a page on the fault path allocates nothing.
#ifndef HIPEC_MACH_VM_OBJECT_H_
#define HIPEC_MACH_VM_OBJECT_H_

#include <cstdint>
#include <string>

#include "mach/page_table.h"
#include "mach/vm_page.h"

namespace hipec::mach {

class ExternalPager;

class VmObject {
 public:
  // `disk_base_block` is the first 4 KB block of this object's backing store. For anonymous
  // objects the blocks are swap space, used only for offsets that have been paged out.
  VmObject(uint64_t id, std::string name, uint64_t size_bytes, bool file_backed,
           uint64_t disk_base_block);
  VmObject(const VmObject&) = delete;
  VmObject& operator=(const VmObject&) = delete;

  uint64_t id() const { return id_; }
  const std::string& name() const { return name_; }
  uint64_t size() const { return size_bytes_; }
  bool file_backed() const { return file_backed_; }

  // Residency. Lookup returns nullptr for an offset beyond the object.
  VmPage* Lookup(uint64_t offset) const { return resident_.Get(offset >> kPageShift); }
  void InsertPage(VmPage* page, uint64_t offset);
  void RemovePage(VmPage* page);

  // Backing store. A fault must read from disk when the data exists only on disk: always for
  // file-backed objects, and for anonymous objects only at offsets previously paged out.
  uint64_t BlockFor(uint64_t offset) const { return disk_base_block_ + (offset >> kPageShift); }
  bool NeedsDiskRead(uint64_t offset) const {
    return file_backed_ || paged_out_.Get(offset >> kPageShift) != 0;
  }
  // CHECKs that `offset` lies within the object.
  void MarkPagedOut(uint64_t offset) { paged_out_.Set(offset >> kPageShift, 1); }

  // HiPEC container mounted under this object (opaque at this layer; owned by the engine).
  void* container = nullptr;

  // External pager supplying/storing this object's data through the EMM interface (emm.h);
  // nullptr means the kernel pages the object directly against the disk.
  ExternalPager* pager = nullptr;

  // Walks resident pages in offset order; `fn` must not mutate residency.
  template <typename Fn>
  void ForEachResident(Fn&& fn) const {
    resident_.ForEach([&fn](uint64_t index, VmPage* page) { fn(index << kPageShift, page); });
  }

 private:
  uint64_t id_;
  std::string name_;
  uint64_t size_bytes_;
  bool file_backed_;
  uint64_t disk_base_block_;
  PageTable<VmPage*> resident_;
  PageTable<uint8_t> paged_out_;  // 1 where the data was written to the backing store
};

}  // namespace hipec::mach

#endif  // HIPEC_MACH_VM_OBJECT_H_
