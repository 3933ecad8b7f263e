#include "mach/vm_object.h"

#include <utility>

#include "sim/check.h"

namespace hipec::mach {

VmObject::VmObject(uint64_t id, std::string name, uint64_t size_bytes, bool file_backed,
                   uint64_t disk_base_block)
    : id_(id),
      name_(std::move(name)),
      size_bytes_(size_bytes),
      file_backed_(file_backed),
      disk_base_block_(disk_base_block),
      resident_(size_bytes >> kPageShift),
      paged_out_(size_bytes >> kPageShift) {
  HIPEC_CHECK_MSG(size_bytes % kPageSize == 0, "object size must be page aligned");
}

void VmObject::InsertPage(VmPage* page, uint64_t offset) {
  HIPEC_CHECK_MSG(offset % kPageSize == 0, "unaligned offset");
  HIPEC_CHECK_MSG(offset < size_bytes_, "offset beyond object size");
  HIPEC_CHECK_MSG(page->object == nullptr, "page already resident in an object");
  HIPEC_CHECK_MSG(resident_.Get(offset >> kPageShift) == nullptr,
                  "offset already has a resident page");
  resident_.Set(offset >> kPageShift, page);
  page->object = this;
  page->offset = offset;
}

void VmObject::RemovePage(VmPage* page) {
  HIPEC_CHECK_MSG(page->object == this, "page not resident in this object");
  HIPEC_CHECK(resident_.Get(page->offset >> kPageShift) == page);
  resident_.Set(page->offset >> kPageShift, nullptr);
  page->object = nullptr;
  page->offset = 0;
}

}  // namespace hipec::mach
