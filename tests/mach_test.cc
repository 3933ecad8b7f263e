// Unit and integration tests for the Mach-like VM substrate.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mach/kernel.h"
#include "mach/page_queue.h"
#include "mach/page_table.h"
#include "mach/pmap.h"
#include "mach/vm_map.h"
#include "mach/vm_object.h"
#include "mach/vm_page.h"
#include "mach/zone.h"
#include "sim/check.h"

namespace hipec::mach {
namespace {

// ---------------------------------------------------------------- Zone

struct ZonedThing {
  explicit ZonedThing(int v) : value(v) {}
  int value;
};

TEST(ZoneTest, AllocAndFree) {
  Zone<ZonedThing> zone("things", 4);
  ZonedThing* a = zone.Alloc(1);
  ZonedThing* b = zone.Alloc(2);
  EXPECT_EQ(a->value, 1);
  EXPECT_EQ(b->value, 2);
  EXPECT_EQ(zone.live(), 2u);
  zone.Free(a);
  EXPECT_EQ(zone.live(), 1u);
  // Freed slot is recycled.
  ZonedThing* c = zone.Alloc(3);
  EXPECT_EQ(c, a);
  zone.Free(b);
  zone.Free(c);
  EXPECT_EQ(zone.live(), 0u);
}

TEST(ZoneTest, GrowsInChunks) {
  Zone<ZonedThing> zone("things", 2);
  std::vector<ZonedThing*> all;
  for (int i = 0; i < 7; ++i) {
    all.push_back(zone.Alloc(i));
  }
  EXPECT_EQ(zone.capacity(), 8u);  // 4 chunks of 2
  EXPECT_EQ(zone.total_allocs(), 7u);
  for (auto* p : all) {
    zone.Free(p);
  }
}

// ---------------------------------------------------------------- PageQueue

TEST(PageQueueTest, FifoOrder) {
  PageQueue q("q");
  VmPage a, b, c;
  q.EnqueueTail(&a, 0);
  q.EnqueueTail(&b, 1);
  q.EnqueueTail(&c, 2);
  EXPECT_EQ(q.count(), 3u);
  EXPECT_EQ(q.DequeueHead(), &a);
  EXPECT_EQ(q.DequeueHead(), &b);
  EXPECT_EQ(q.DequeueHead(), &c);
  EXPECT_EQ(q.DequeueHead(), nullptr);
}

TEST(PageQueueTest, HeadInsertAndTailRemove) {
  PageQueue q("q");
  VmPage a, b;
  q.EnqueueHead(&a, 0);
  q.EnqueueHead(&b, 0);  // b, a
  EXPECT_EQ(q.DequeueTail(), &a);
  EXPECT_EQ(q.DequeueTail(), &b);
}

TEST(PageQueueTest, RemoveFromMiddle) {
  PageQueue q("q");
  VmPage a, b, c;
  q.EnqueueTail(&a, 0);
  q.EnqueueTail(&b, 0);
  q.EnqueueTail(&c, 0);
  q.Remove(&b);
  EXPECT_EQ(q.count(), 2u);
  EXPECT_EQ(q.CountByTraversal(), 2u);
  EXPECT_EQ(b.queue, nullptr);
  EXPECT_EQ(q.DequeueHead(), &a);
  EXPECT_EQ(q.DequeueHead(), &c);
}

TEST(PageQueueTest, DoubleEnqueueThrows) {
  PageQueue q("q"), r("r");
  VmPage a;
  q.EnqueueTail(&a, 0);
  EXPECT_THROW(r.EnqueueTail(&a, 0), sim::CheckFailure);
  EXPECT_THROW(q.EnqueueHead(&a, 0), sim::CheckFailure);
}

TEST(PageQueueTest, RemoveFromWrongQueueThrows) {
  PageQueue q("q"), r("r");
  VmPage a;
  q.EnqueueTail(&a, 0);
  EXPECT_THROW(r.Remove(&a), sim::CheckFailure);
}

TEST(PageQueueTest, ContainsTracksMembership) {
  PageQueue q("q");
  VmPage a;
  EXPECT_FALSE(q.Contains(&a));
  q.EnqueueTail(&a, 0);
  EXPECT_TRUE(q.Contains(&a));
}

TEST(PageQueueTest, ForEachVisitsInOrder) {
  PageQueue q("q");
  VmPage pages[5];
  for (auto& p : pages) {
    q.EnqueueTail(&p, 0);
  }
  std::vector<VmPage*> seen;
  q.ForEach([&](VmPage* p) {
    seen.push_back(p);
    return true;
  });
  ASSERT_EQ(seen.size(), 5u);
  EXPECT_EQ(seen.front(), &pages[0]);
  EXPECT_EQ(seen.back(), &pages[4]);
}

// ---------------------------------------------------------------- PageTable

TEST(PageTableTest, DepthFollowsTheRange) {
  EXPECT_EQ(PageTable<uint8_t>(1).levels(), 1);
  EXPECT_EQ(PageTable<uint8_t>(512).levels(), 1);
  EXPECT_EQ(PageTable<uint8_t>(513).levels(), 2);
  EXPECT_EQ(PageTable<uint8_t>(uint64_t{1} << 18).levels(), 2);
  EXPECT_EQ(PageTable<uint8_t>((uint64_t{1} << 18) + 1).levels(), 3);
  EXPECT_EQ(PageTable<uint8_t>(uint64_t{1} << 40).levels(), 5);
}

TEST(PageTableTest, SparseSlotsReadBackAndVisitInIndexOrder) {
  const uint64_t pages = uint64_t{1} << 40;
  PageTable<uint64_t> table(pages);
  EXPECT_TRUE(table.empty());
  const std::vector<uint64_t> written = {pages - 1, 0, 513, uint64_t{1} << 30, 7};
  for (uint64_t i : written) {
    table.Set(i, i + 1);
  }
  EXPECT_EQ(table.Get(0), 1u);
  EXPECT_EQ(table.Get(pages - 1), pages);
  EXPECT_EQ(table.Get(1), 0u);                  // written leaf, unwritten slot
  EXPECT_EQ(table.Get(uint64_t{1} << 20), 0u);  // no node below it
  EXPECT_EQ(table.Get(pages), 0u);              // out of range
  EXPECT_THROW(table.Set(pages, 1), sim::CheckFailure);

  std::vector<uint64_t> visited;
  table.ForEach([&](uint64_t i, uint64_t value) {
    EXPECT_EQ(value, i + 1);
    visited.push_back(i);
  });
  EXPECT_EQ(visited, (std::vector<uint64_t>{0, 7, 513, uint64_t{1} << 30, pages - 1}));
  EXPECT_FALSE(table.empty());
  for (uint64_t i : written) {
    table.Set(i, 0);
  }
  EXPECT_TRUE(table.empty());

  PageTable<uint8_t> small(3);  // one leaf of exactly three slots
  small.Set(2, 1);
  EXPECT_THROW(small.Set(3, 1), sim::CheckFailure);
  visited.clear();
  small.ForEach([&](uint64_t i, uint8_t) { visited.push_back(i); });
  EXPECT_EQ(visited, (std::vector<uint64_t>{2}));
}

// ---------------------------------------------------------------- VmObject / VmMap

TEST(VmObjectTest, InsertLookupRemove) {
  VmObject obj(1, "o", 10 * kPageSize, false, 100);
  VmPage page;
  obj.InsertPage(&page, 2 * kPageSize);
  EXPECT_EQ(obj.Lookup(2 * kPageSize), &page);
  EXPECT_EQ(obj.Lookup(3 * kPageSize), nullptr);
  EXPECT_EQ(obj.Lookup(10 * kPageSize), nullptr);  // beyond the object
  EXPECT_EQ(page.object, &obj);
  obj.RemovePage(&page);
  EXPECT_EQ(obj.Lookup(2 * kPageSize), nullptr);
  EXPECT_EQ(page.object, nullptr);
}

TEST(VmObjectTest, DiskReadDecision) {
  VmObject file(1, "file", 4 * kPageSize, /*file_backed=*/true, 100);
  VmObject anon(2, "anon", 4 * kPageSize, /*file_backed=*/false, 200);
  EXPECT_TRUE(file.NeedsDiskRead(0));
  EXPECT_FALSE(anon.NeedsDiskRead(0));
  anon.MarkPagedOut(kPageSize);
  EXPECT_TRUE(anon.NeedsDiskRead(kPageSize));
  EXPECT_FALSE(anon.NeedsDiskRead(0));
  EXPECT_FALSE(anon.NeedsDiskRead(4 * kPageSize));  // beyond the object
  EXPECT_THROW(anon.MarkPagedOut(4 * kPageSize), sim::CheckFailure);
  EXPECT_EQ(file.BlockFor(2 * kPageSize), 102u);
}

TEST(VmObjectTest, DoubleInsertThrows) {
  VmObject obj(1, "o", 4 * kPageSize, false, 0);
  VmPage a, b;
  obj.InsertPage(&a, 0);
  EXPECT_THROW(obj.InsertPage(&b, 0), sim::CheckFailure);
}

TEST(VmObjectTest, ForEachResidentVisitsInOffsetOrder) {
  VmObject obj(1, "o", 1024 * kPageSize, false, 0);
  VmPage pages[3];
  obj.InsertPage(&pages[0], 900 * kPageSize);
  obj.InsertPage(&pages[1], 3 * kPageSize);
  obj.InsertPage(&pages[2], 512 * kPageSize);
  std::vector<uint64_t> offsets;
  obj.ForEachResident([&](uint64_t offset, VmPage* page) {
    EXPECT_EQ(page->offset, offset);
    offsets.push_back(offset / kPageSize);
  });
  EXPECT_EQ(offsets, (std::vector<uint64_t>{3, 512, 900}));
}

TEST(VmMapTest, LookupFindsContainingEntry) {
  VmMap map;
  VmObject obj(1, "o", 16 * kPageSize, false, 0);
  uint64_t start = map.Insert(&obj, 0, 16 * kPageSize);
  EXPECT_NE(map.Lookup(start), nullptr);
  EXPECT_NE(map.Lookup(start + 5 * kPageSize + 7), nullptr);
  EXPECT_EQ(map.Lookup(start + 16 * kPageSize), nullptr);
  EXPECT_EQ(map.Lookup(start - 1), nullptr);
}

TEST(VmMapTest, EntriesDoNotOverlap) {
  VmMap map;
  VmObject a(1, "a", 4 * kPageSize, false, 0);
  VmObject b(2, "b", 4 * kPageSize, false, 100);
  uint64_t sa = map.Insert(&a, 0, 4 * kPageSize);
  uint64_t sb = map.Insert(&b, 0, 4 * kPageSize);
  EXPECT_GE(sb, sa + 4 * kPageSize);
  EXPECT_THROW(map.InsertAt(sa, &b, 0, 4 * kPageSize), sim::CheckFailure);
}

TEST(VmMapTest, OffsetOfAlignsToPage) {
  VmMap map;
  VmObject obj(1, "o", 8 * kPageSize, false, 0);
  uint64_t start = map.Insert(&obj, 0, 8 * kPageSize);
  const VmMapEntry* entry = map.Lookup(start);
  EXPECT_EQ(entry->OffsetOf(start + kPageSize + 123), kPageSize);
}

TEST(VmMapTest, RemoveReturnsEntry) {
  VmMap map;
  VmObject obj(1, "o", 4 * kPageSize, false, 0);
  uint64_t start = map.Insert(&obj, 0, 4 * kPageSize);
  VmMapEntry entry = map.Remove(start);
  EXPECT_EQ(entry.object, &obj);
  EXPECT_EQ(map.Lookup(start), nullptr);
}

TEST(VmMapTest, RemoveWithAPageStillMappedThrows) {
  Task task(1, "t");
  VmObject obj(1, "o", 4 * kPageSize, false, 0);
  uint64_t start = task.map().Insert(&obj, 0, 4 * kPageSize);
  Pmap pmap;
  VmPage page;
  pmap.Enter(&task, task.map().Lookup(start), start + kPageSize, &page);
  EXPECT_THROW(task.map().Remove(start), sim::CheckFailure);
  pmap.RemovePage(&page);
  task.map().Remove(start);
  EXPECT_EQ(task.map().entry_count(), 0u);
}

// ---------------------------------------------------------------- Pmap

TEST(PmapTest, EnterLookupRemove) {
  Pmap pmap;
  Task task(1, "t");
  VmObject obj(1, "o", kPageSize, false, 0);
  task.map().InsertAt(0x10000, &obj, 0, kPageSize);
  VmPage page;
  pmap.Enter(&task, task.map().Lookup(0x10000), 0x10000, &page);
  EXPECT_EQ(pmap.Lookup(&task, 0x10000), &page);
  EXPECT_EQ(pmap.Lookup(&task, 0x10000 + 5), &page);  // same page
  EXPECT_EQ(pmap.Lookup(&task, 0x20000), nullptr);
  EXPECT_TRUE(page.has_mapping);
  pmap.RemovePage(&page);
  EXPECT_EQ(pmap.Lookup(&task, 0x10000), nullptr);
  EXPECT_FALSE(page.has_mapping);
  EXPECT_EQ(pmap.mapping_count(), 0u);
}

TEST(PmapTest, SingleMappingEnforced) {
  Pmap pmap;
  Task t1(1, "a"), t2(2, "b");
  VmObject o1(1, "o1", kPageSize, false, 0), o2(2, "o2", kPageSize, false, 0);
  t1.map().InsertAt(0x1000, &o1, 0, kPageSize);
  t2.map().InsertAt(0x2000, &o2, 0, kPageSize);
  VmPage page;
  pmap.Enter(&t1, t1.map().Lookup(0x1000), 0x1000, &page);
  EXPECT_THROW(pmap.Enter(&t2, t2.map().Lookup(0x2000), 0x2000, &page), sim::CheckFailure);
}

TEST(PmapTest, WriteProtectionRecorded) {
  Pmap pmap;
  Task task(1, "t");
  VmObject ro(1, "ro", kPageSize, false, 0), rw_obj(2, "rw", kPageSize, false, 0);
  task.map().InsertAt(0x1000, &ro, 0, kPageSize, /*write_protected=*/true);
  task.map().InsertAt(0x2000, &rw_obj, 0, kPageSize, /*write_protected=*/false);
  VmPage page, rw;
  pmap.Enter(&task, task.map().Lookup(0x1000), 0x1000, &page);
  pmap.Enter(&task, task.map().Lookup(0x2000), 0x2000, &rw);
  EXPECT_TRUE(pmap.IsWriteProtected(&page));
  EXPECT_FALSE(pmap.IsWriteProtected(&rw));
}

// ---------------------------------------------------------------- Kernel fault path

KernelParams SmallMachine() {
  KernelParams params;
  params.total_frames = 512;
  params.kernel_reserved_frames = 64;
  params.pageout.free_target = 32;
  params.pageout.free_min = 8;
  params.pageout.inactive_target = 96;
  return params;
}

TEST(KernelTest, BootAccounting) {
  Kernel kernel(SmallMachine());
  FrameAccounting acc = kernel.ComputeFrameAccounting();
  EXPECT_EQ(acc.total, 512u);
  EXPECT_EQ(acc.wired, 64u);
  EXPECT_EQ(acc.global_free, 448u);
  EXPECT_EQ(acc.unaccounted, 0u);
  EXPECT_EQ(kernel.boot_free_frames(), 448u);
}

TEST(KernelTest, ZeroFillFaultOnAnonymousRegion) {
  Kernel kernel(SmallMachine());
  Task* task = kernel.CreateTask("t");
  uint64_t addr = kernel.VmAllocate(task, 8 * kPageSize);
  EXPECT_TRUE(kernel.Touch(task, addr, false));
  EXPECT_EQ(kernel.counters().Get("kernel.page_faults"), 1);
  EXPECT_EQ(kernel.counters().Get("kernel.zero_fills"), 1);
  EXPECT_EQ(kernel.counters().Get("kernel.disk_fills"), 0);
  // Second touch is a TLB hit: no new fault.
  EXPECT_TRUE(kernel.Touch(task, addr + 100, true));
  EXPECT_EQ(kernel.counters().Get("kernel.page_faults"), 1);
}

TEST(KernelTest, FileBackedFaultReadsDisk) {
  Kernel kernel(SmallMachine());
  Task* task = kernel.CreateTask("t");
  VmObject* file = kernel.CreateFileObject("data", 8 * kPageSize);
  uint64_t addr = kernel.VmMapFile(task, file);
  sim::Nanos before = kernel.clock().now();
  EXPECT_TRUE(kernel.Touch(task, addr, false));
  EXPECT_EQ(kernel.counters().Get("kernel.disk_fills"), 1);
  // Fault cost includes a multi-millisecond disk read.
  EXPECT_GT(kernel.clock().now() - before, 2 * sim::kMillisecond);
}

TEST(KernelTest, SegfaultTerminatesTask) {
  Kernel kernel(SmallMachine());
  Task* task = kernel.CreateTask("t");
  EXPECT_FALSE(kernel.Touch(task, 0xdead0000, false));
  EXPECT_TRUE(task->terminated());
  EXPECT_EQ(task->termination_reason(), "segmentation violation");
}

TEST(KernelTest, WriteToProtectedRegionTerminates) {
  Kernel kernel(SmallMachine());
  Task* task = kernel.CreateTask("t");
  VmObject* file = kernel.CreateFileObject("buf", 4 * kPageSize);
  uint64_t addr = task->map().Insert(file, 0, 4 * kPageSize, /*write_protected=*/true);
  EXPECT_TRUE(kernel.Touch(task, addr, false));   // reads are fine
  EXPECT_FALSE(kernel.Touch(task, addr, true));   // writes terminate
  EXPECT_TRUE(task->terminated());
  // Also when the write is the *first* access (hard fault path).
  Task* task2 = kernel.CreateTask("t2");
  uint64_t addr2 = task2->map().Insert(file, 0, 4 * kPageSize, /*write_protected=*/true);
  EXPECT_FALSE(kernel.Touch(task2, addr2 + kPageSize, true));
  EXPECT_TRUE(task2->terminated());
}

TEST(KernelTest, EvictionUnderMemoryPressure) {
  Kernel kernel(SmallMachine());
  Task* task = kernel.CreateTask("t");
  // 448 free frames; touch 600 pages to force replacement.
  uint64_t addr = kernel.VmAllocate(task, 600 * kPageSize);
  EXPECT_TRUE(kernel.TouchRange(task, addr, 600 * kPageSize, true));
  EXPECT_GT(kernel.daemon().counters().Get("pageout.evictions"), 0);
  // Dirty anonymous pages were flushed to swap on eviction.
  EXPECT_GT(kernel.counters().Get("kernel.pageouts"), 0);
  FrameAccounting acc = kernel.ComputeFrameAccounting();
  EXPECT_EQ(acc.unaccounted, 0u);
  EXPECT_EQ(acc.Sum(), acc.total);
}

TEST(KernelTest, RefaultAfterEvictionReadsSwap) {
  Kernel kernel(SmallMachine());
  Task* task = kernel.CreateTask("t");
  uint64_t addr = kernel.VmAllocate(task, 600 * kPageSize);
  EXPECT_TRUE(kernel.TouchRange(task, addr, 600 * kPageSize, true));
  // Page 0 was evicted (FIFO-ish); refault must read it back from swap, not zero-fill.
  int64_t disk_fills_before = kernel.counters().Get("kernel.disk_fills");
  EXPECT_TRUE(kernel.Touch(task, addr, false));
  EXPECT_GT(kernel.counters().Get("kernel.disk_fills"), disk_fills_before);
}

TEST(KernelTest, CleanEvictionZeroFillsOnRefault) {
  Kernel kernel(SmallMachine());
  Task* task = kernel.CreateTask("t");
  uint64_t addr = kernel.VmAllocate(task, 600 * kPageSize);
  // Read-only touches: pages are zero-filled, never dirtied.
  EXPECT_TRUE(kernel.TouchRange(task, addr, 600 * kPageSize, false));
  EXPECT_EQ(kernel.counters().Get("kernel.pageouts"), 0);
  int64_t zero_fills = kernel.counters().Get("kernel.zero_fills");
  EXPECT_TRUE(kernel.Touch(task, addr, false));
  if (kernel.counters().Get("kernel.page_faults") > 600) {
    // If page 0 was evicted, its refault is another zero-fill (contents were never saved).
    EXPECT_GT(kernel.counters().Get("kernel.zero_fills") +
                  kernel.counters().Get("kernel.soft_faults"),
              zero_fills);
  }
  EXPECT_EQ(kernel.counters().Get("kernel.disk_fills"), 0);
}

TEST(KernelTest, SecondChanceKeepsReferencedPages) {
  Kernel kernel(SmallMachine());
  Task* task = kernel.CreateTask("t");
  uint64_t addr = kernel.VmAllocate(task, 600 * kPageSize);
  // Keep re-touching page 0 while sweeping repeatedly. Whenever page 0 reaches the head of
  // the inactive queue its reference bit is set again, so the daemon must give it a second
  // chance instead of evicting it.
  for (int round = 0; round < 4; ++round) {
    for (uint64_t i = 0; i < 600; ++i) {
      ASSERT_TRUE(kernel.Touch(task, addr + i * kPageSize, false));
      ASSERT_TRUE(kernel.Touch(task, addr, false));
    }
  }
  EXPECT_GT(kernel.daemon().counters().Get("pageout.second_chances"), 0);
}

TEST(KernelTest, VmWirePinsPages) {
  Kernel kernel(SmallMachine());
  Task* task = kernel.CreateTask("t");
  uint64_t pinned = kernel.VmAllocate(task, 4 * kPageSize);
  kernel.VmWire(task, pinned, 4 * kPageSize);
  // Heavy pressure must not evict the wired pages.
  uint64_t addr = kernel.VmAllocate(task, 600 * kPageSize);
  EXPECT_TRUE(kernel.TouchRange(task, addr, 600 * kPageSize, true));
  int64_t faults = kernel.counters().Get("kernel.page_faults");
  EXPECT_TRUE(kernel.Touch(task, pinned, false));
  EXPECT_TRUE(kernel.Touch(task, pinned + 3 * kPageSize, false));
  EXPECT_EQ(kernel.counters().Get("kernel.page_faults"), faults);  // no refaults
}

TEST(KernelTest, DeallocateReturnsFrames) {
  Kernel kernel(SmallMachine());
  Task* task = kernel.CreateTask("t");
  uint64_t addr = kernel.VmAllocate(task, 100 * kPageSize);
  EXPECT_TRUE(kernel.TouchRange(task, addr, 100 * kPageSize, true));
  size_t free_before = kernel.daemon().free_count();
  kernel.VmDeallocate(task, addr);
  EXPECT_EQ(kernel.daemon().free_count(), free_before + 100);
  FrameAccounting acc = kernel.ComputeFrameAccounting();
  EXPECT_EQ(acc.unaccounted, 0u);
}

TEST(KernelTest, TerminateTaskTearsDownAddressSpace) {
  Kernel kernel(SmallMachine());
  Task* task = kernel.CreateTask("t");
  uint64_t a1 = kernel.VmAllocate(task, 50 * kPageSize);
  uint64_t a2 = kernel.VmAllocate(task, 30 * kPageSize);
  EXPECT_TRUE(kernel.TouchRange(task, a1, 50 * kPageSize, true));
  EXPECT_TRUE(kernel.TouchRange(task, a2, 30 * kPageSize, false));
  kernel.TerminateTask(task, "test");
  EXPECT_EQ(task->map().entry_count(), 0u);
  FrameAccounting acc = kernel.ComputeFrameAccounting();
  EXPECT_EQ(acc.global_free, 448u);
  EXPECT_EQ(acc.unaccounted, 0u);
}

TEST(KernelTest, SoftFaultAfterUnmapIsCheap) {
  // Evicting only the *mapping* (not residency) is not modelled separately, but a page that
  // another fault pushed to the inactive queue and that is refaulted before eviction must be
  // reactivated without disk I/O.
  Kernel kernel(SmallMachine());
  Task* task = kernel.CreateTask("t");
  uint64_t addr = kernel.VmAllocate(task, 8 * kPageSize);
  EXPECT_TRUE(kernel.TouchRange(task, addr, 8 * kPageSize, true));
  // Force the page onto the inactive queue by hand.
  VmPage* page = kernel.pmap().Lookup(task, addr);
  ASSERT_NE(page, nullptr);
  kernel.pmap().RemovePage(page);
  page->queue.load()->Remove(page);
  kernel.daemon().inactive_queue().EnqueueTail(page, kernel.clock().now());
  int64_t soft_before = kernel.counters().Get("kernel.soft_faults");
  EXPECT_TRUE(kernel.Touch(task, addr, false));
  EXPECT_EQ(kernel.counters().Get("kernel.soft_faults"), soft_before + 1);
  EXPECT_TRUE(kernel.daemon().active_queue().Contains(page));
}

TEST(KernelTest, FrameConservationUnderMixedLoad) {
  Kernel kernel(SmallMachine());
  Task* t1 = kernel.CreateTask("a");
  Task* t2 = kernel.CreateTask("b");
  uint64_t a1 = kernel.VmAllocate(t1, 300 * kPageSize);
  VmObject* file = kernel.CreateFileObject("f", 200 * kPageSize);
  uint64_t a2 = kernel.VmMapFile(t2, file);
  for (int round = 0; round < 3; ++round) {
    EXPECT_TRUE(kernel.TouchRange(t1, a1, 300 * kPageSize, true));
    EXPECT_TRUE(kernel.TouchRange(t2, a2, 200 * kPageSize, false));
    FrameAccounting acc = kernel.ComputeFrameAccounting();
    EXPECT_EQ(acc.Sum(), acc.total);
    EXPECT_EQ(acc.unaccounted, 0u);
  }
  kernel.TerminateTask(t1, "done");
  kernel.TerminateTask(t2, "done");
  FrameAccounting acc = kernel.ComputeFrameAccounting();
  EXPECT_EQ(acc.global_free, 448u);
}

TEST(KernelTest, HipecBuildChargesRegionCheckPerFault) {
  KernelParams plain = SmallMachine();
  KernelParams modified = SmallMachine();
  modified.hipec_build = true;

  auto run = [](KernelParams params) {
    Kernel kernel(params);
    Task* task = kernel.CreateTask("t");
    uint64_t addr = kernel.VmAllocate(task, 64 * kPageSize);
    kernel.TouchRange(task, addr, 64 * kPageSize, false);
    return kernel.clock().now();
  };
  sim::Nanos t_plain = run(plain);
  sim::Nanos t_modified = run(modified);
  EXPECT_EQ(t_modified - t_plain, 64 * plain.costs.hipec_region_check_ns);
}

TEST(KernelTest, NullSyscallCost) {
  Kernel kernel(SmallMachine());
  sim::Nanos before = kernel.clock().now();
  kernel.NullSyscall();
  EXPECT_EQ(kernel.clock().now() - before, kernel.costs().null_syscall_ns);
}

}  // namespace
}  // namespace hipec::mach
