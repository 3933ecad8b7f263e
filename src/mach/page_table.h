// A sparse radix page table: one slot per page of a fixed range, in 512-slot nodes.
//
// VM objects keep their resident pages in one and map entries their translations, so the
// fault path indexes an array instead of hashing into a node-based map: a fault installs and
// evicts without touching the heap. Memory follows the pages touched, not the range: a node
// is allocated the first time a slot below it is written and freed only with the table, so
// hipecd's 2^22-page regions and the 2^40-page regions a `.hpt` trace may declare cost a
// few nodes per touched neighbourhood. A table of up to 512 pages is a single leaf sized to
// the range, so a small region costs a few bytes per page.
#ifndef HIPEC_MACH_PAGE_TABLE_H_
#define HIPEC_MACH_PAGE_TABLE_H_

#include <cstdint>
#include <type_traits>
#include <utility>

#include "sim/check.h"

namespace hipec::mach {

template <typename T>
class PageTable {
  static_assert(std::is_trivially_copyable_v<T>, "slots hold plain values");

 public:
  static constexpr int kBits = 9;
  static constexpr uint64_t kSlots = uint64_t{1} << kBits;  // per node

  // A table over page indices [0, pages). The depth is fixed here: 1 level up to 512
  // pages, 2 up to 2^18, ..., 5 for 2^40.
  explicit PageTable(uint64_t pages) : pages_(pages), levels_(LevelsFor(pages)) {}
  PageTable(PageTable&& other) noexcept
      : pages_(other.pages_),
        levels_(other.levels_),
        root_(std::exchange(other.root_, nullptr)) {}
  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;
  PageTable& operator=(PageTable&&) = delete;
  ~PageTable() { Free(root_, levels_); }

  int levels() const { return levels_; }

  // Slot `i`, or T{} when `i` is out of range or no node below it was ever written.
  T Get(uint64_t i) const {
    if (i >= pages_) {
      return T{};
    }
    const void* node = root_;
    for (int level = levels_ - 1; level > 0 && node != nullptr; --level) {
      node = static_cast<void* const*>(node)[Slot(i, level)];
    }
    return node == nullptr ? T{} : static_cast<const T*>(node)[Slot(i, 0)];
  }

  // Writes slot `i`, which must be in range, allocating the nodes on its path the first
  // time.
  void Set(uint64_t i, T value) {
    HIPEC_CHECK_MSG(i < pages_, "page " << i << " beyond a " << pages_ << "-page table");
    void** link = &root_;
    for (int level = levels_ - 1; level > 0; --level) {
      if (*link == nullptr) {
        *link = new void*[kSlots]();
      }
      link = &static_cast<void**>(*link)[Slot(i, level)];
    }
    if (*link == nullptr) {
      *link = new T[LeafSlots()]();
    }
    static_cast<T*>(*link)[Slot(i, 0)] = value;
  }

  // Calls fn(index, value) for every slot not equal to T{}, in index order. `fn` must not
  // write the table.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    Visit(root_, levels_, 0, fn);
  }

  // True when every slot is T{}.
  bool empty() const {
    bool any = false;
    ForEach([&any](uint64_t, T) { any = true; });
    return !any;
  }

 private:
  // Nodes are plain arrays: an interior node holds kSlots child pointers, a leaf holds
  // LeafSlots() values.
  static constexpr uint64_t kMask = kSlots - 1;

  static int LevelsFor(uint64_t pages) {
    int levels = 1;
    while (levels * kBits < 64 && pages > (uint64_t{1} << (levels * kBits))) {
      ++levels;
    }
    return levels;
  }
  static uint64_t Slot(uint64_t i, int level) { return (i >> (level * kBits)) & kMask; }
  // A one-level table's only leaf covers exactly the range.
  uint64_t LeafSlots() const { return levels_ == 1 ? pages_ : kSlots; }

  static void Free(void* node, int levels) {
    if (node == nullptr) {
      return;
    }
    if (levels == 1) {
      delete[] static_cast<T*>(node);
      return;
    }
    auto* children = static_cast<void**>(node);
    for (uint64_t s = 0; s < kSlots; ++s) {
      Free(children[s], levels - 1);
    }
    delete[] children;
  }

  // `prefix` is the index bits above this node's level.
  template <typename Fn>
  void Visit(const void* node, int levels, uint64_t prefix, Fn& fn) const {
    if (node == nullptr) {
      return;
    }
    if (levels == 1) {
      const auto* leaf = static_cast<const T*>(node);
      for (uint64_t s = 0; s < LeafSlots(); ++s) {
        if (leaf[s] != T{}) {
          fn((prefix << kBits) | s, leaf[s]);
        }
      }
      return;
    }
    const auto* children = static_cast<void* const*>(node);
    for (uint64_t s = 0; s < kSlots; ++s) {
      Visit(children[s], levels - 1, (prefix << kBits) | s, fn);
    }
  }

  uint64_t pages_;
  int levels_;
  void* root_ = nullptr;
};

}  // namespace hipec::mach

#endif  // HIPEC_MACH_PAGE_TABLE_H_
