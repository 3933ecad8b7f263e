#include "mach/kernel.h"

#include <cstdlib>
#include <utility>

#include "sim/check.h"

namespace hipec::mach {

bool DefaultJitMode() {
  const char* env = std::getenv("HIPEC_JIT");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

namespace {

// Interned once at startup; the fault path then bumps counters with an array index instead
// of a string-keyed map lookup per event (see sim::CounterNames).
const sim::CounterId kCtrTaskTerminations = sim::InternCounter("kernel.task_terminations");
const sim::CounterId kCtrVmAllocate = sim::InternCounter("kernel.vm_allocate");
const sim::CounterId kCtrVmMap = sim::InternCounter("kernel.vm_map");
const sim::CounterId kCtrVmDeallocate = sim::InternCounter("kernel.vm_deallocate");
const sim::CounterId kCtrWiredPages = sim::InternCounter("kernel.wired_pages");
const sim::CounterId kCtrNullSyscalls = sim::InternCounter("kernel.null_syscalls");
const sim::CounterId kCtrProtectionFaults = sim::InternCounter("kernel.protection_faults");
const sim::CounterId kCtrPageFaults = sim::InternCounter("kernel.page_faults");
const sim::CounterId kCtrHipecFaults = sim::InternCounter("kernel.hipec_faults");
const sim::CounterId kCtrSoftFaults = sim::InternCounter("kernel.soft_faults");
const sim::CounterId kCtrPagerFills = sim::InternCounter("kernel.pager_fills");
const sim::CounterId kCtrDiskFills = sim::InternCounter("kernel.disk_fills");
const sim::CounterId kCtrZeroFills = sim::InternCounter("kernel.zero_fills");
const sim::CounterId kCtrPagerWrites = sim::InternCounter("kernel.pager_writes");
const sim::CounterId kCtrPageouts = sim::InternCounter("kernel.pageouts");

}  // namespace

Kernel::Kernel(KernelParams params) : params_(params), frames_(params_.total_frames) {
  // frames_ is count-constructed in the init list: VmPage carries atomic members (queue,
  // busy) and is therefore not movable, so resize() after the fact would not compile.
  HIPEC_CHECK(params_.total_frames > params_.kernel_reserved_frames);

  // Exactly one clock, chosen by mode: the virtual clock is also reachable through vclock_
  // so hot paths charge time without a virtual call.
  if (params_.exec_mode == sim::ExecMode::kDeterministic) {
    vclock_ = std::make_unique<sim::VirtualClock>();
    clock_ptr_ = vclock_.get();
  } else {
    rclock_ = std::make_unique<sim::RealClock>();
    clock_ptr_ = rclock_.get();
  }

  disk_ = std::make_unique<disk::DiskModel>(clock_ptr_, params_.disk, params_.seed);
  daemon_ = std::make_unique<PageoutDaemon>(this, params_.pageout, params_.free_pool_shards,
                                            params_.daemon_shards);

  if (concurrent()) {
    // Arm every lock before any worker thread can exist (locks must not flip while held).
    structure_mu_.Enable(true);
    world_.Enable(true);
    daemon_->EnableConcurrent();
    disk_->EnableConcurrent();
    counters_.EnableConcurrent();
    tracer_.EnableConcurrent();
  }

  ctx_.clock = clock_ptr_;
  ctx_.vclock = vclock_.get();
  ctx_.tracer = &tracer_;
  ctx_.costs = &params_.costs;
  ctx_.mode = params_.exec_mode;

  for (uint64_t i = 0; i < params_.total_frames; ++i) {
    frames_[i].frame_number = static_cast<uint32_t>(i);
    if (i < params_.kernel_reserved_frames) {
      frames_[i].wired = true;  // kernel text/data/zones
    } else {
      daemon_->AddBootFrame(&frames_[i]);
    }
  }
  boot_free_frames_ = params_.total_frames - params_.kernel_reserved_frames;
}

Kernel::~Kernel() = default;

Task* Kernel::CreateTask(const std::string& name) {
  sim::ScopedLock lock(structure_mu_);
  tasks_.push_back(std::make_unique<Task>(next_task_id_++, name));
  Task* task = tasks_.back().get();
  if (concurrent()) {
    task->mutex().Enable(true);
  }
  return task;
}

void Kernel::TerminateTask(Task* task, const std::string& reason) {
  sim::ScopedLock task_lock(task->mutex());
  if (task->terminated()) {
    return;
  }
  task->Terminate(reason);
  counters_.Add(kCtrTaskTerminations);
  // Tear down the whole address space.
  std::vector<uint64_t> starts;
  task->map().ForEachEntry([&](const VmMapEntry& entry) { starts.push_back(entry.start); });
  for (uint64_t start : starts) {
    VmDeallocate(task, start);
  }
}

VmObject* Kernel::CreateAnonObject(uint64_t size_bytes) {
  sim::ScopedLock lock(structure_mu_);
  uint64_t base = AllocSwapBlocksLocked(size_bytes >> kPageShift);
  objects_.push_back(std::make_unique<VmObject>(next_object_id_++, "anon", size_bytes,
                                                /*file_backed=*/false, base));
  return objects_.back().get();
}

VmObject* Kernel::CreateFileObject(const std::string& name, uint64_t size_bytes) {
  HIPEC_CHECK_MSG(size_bytes % kPageSize == 0, "object size must be page aligned");
  sim::ScopedLock lock(structure_mu_);
  uint64_t base = AllocSwapBlocksLocked(size_bytes >> kPageShift);
  objects_.push_back(std::make_unique<VmObject>(next_object_id_++, name, size_bytes,
                                                /*file_backed=*/true, base));
  return objects_.back().get();
}

VmObject* Kernel::FindObject(uint64_t object_id) const {
  sim::ScopedLock lock(structure_mu_);
  for (const auto& object : objects_) {
    if (object->id() == object_id) {
      return object.get();
    }
  }
  return nullptr;
}

uint64_t Kernel::AllocSwapBlocks(uint64_t n_pages) {
  sim::ScopedLock lock(structure_mu_);
  return AllocSwapBlocksLocked(n_pages);
}

uint64_t Kernel::AllocSwapBlocksLocked(uint64_t n_pages) {
  uint64_t base = next_disk_block_;
  next_disk_block_ += n_pages;
  return base;
}

uint64_t Kernel::VmAllocate(Task* task, uint64_t size_bytes) {
  sim::ScopedLock task_lock(task->mutex());
  ctx_.Charge(params_.costs.null_syscall_ns);
  counters_.Add(kCtrVmAllocate);
  VmObject* object = CreateAnonObject(size_bytes);
  return task->map().Insert(object, 0, size_bytes);
}

uint64_t Kernel::VmMapFile(Task* task, VmObject* object) {
  sim::ScopedLock task_lock(task->mutex());
  ctx_.Charge(params_.costs.null_syscall_ns);
  counters_.Add(kCtrVmMap);
  return task->map().Insert(object, 0, object->size());
}

void Kernel::VmDeallocate(Task* task, uint64_t start) {
  sim::ScopedLock task_lock(task->mutex());
  counters_.Add(kCtrVmDeallocate);
  VmMapEntry* entry = task->map().Lookup(start);
  HIPEC_CHECK_MSG(entry != nullptr && entry->start == start, "vm_deallocate: no such region");
  VmObject* object = entry->object;

  if (object->container != nullptr && interceptor_ != nullptr) {
    // A specific region: the HiPEC engine returns the private frames itself.
    interceptor_->OnRegionTeardown(task, entry);
  } else {
    // Free every frame of this object that is mapped through this task. Dirty anonymous pages
    // are discarded (the region is going away); dirty file pages are flushed.
    std::vector<VmPage*> resident;
    object->ForEachResident([&](uint64_t, VmPage* page) { resident.push_back(page); });
    for (VmPage* page : resident) {
      daemon_->Unqueue(page);
      page->wired = false;
      // Holding the task lock, so the try edge inside EvictPage cannot fail.
      bool evicted = EvictPage(page, /*flush_if_dirty=*/object->file_backed());
      HIPEC_CHECK(evicted);
      daemon_->ReturnFrame(page);
    }
  }
  if (object->pager != nullptr) {
    object->pager->Terminate(object);
  }
  task->map().Remove(start);
}

void Kernel::VmWire(Task* task, uint64_t vaddr, uint64_t size_bytes) {
  ctx_.Charge(params_.costs.null_syscall_ns);
  // World before task, as in Touch; the faults go through TouchLocked so the world lock is
  // taken once.
  sim::SharedWorldGuard world(world_);
  sim::ScopedLock task_lock(task->mutex());
  for (uint64_t a = vaddr; a < vaddr + size_bytes; a += kPageSize) {
    if (task->terminated() || !TouchLocked(task, a, /*is_write=*/false)) {
      return;
    }
    VmPage* page = pmap_.Lookup(task, a);
    HIPEC_CHECK(page != nullptr);
    daemon_->Unqueue(page);
    page->wired = true;
  }
  counters_.Add(kCtrWiredPages, static_cast<int64_t>(size_bytes >> kPageShift));
}

void Kernel::NullSyscall() {
  ctx_.Charge(params_.costs.null_syscall_ns);
  counters_.Add(kCtrNullSyscalls);
}

uint64_t Kernel::MapWiredRegion(Task* task, uint64_t size_bytes) {
  sim::ScopedLock task_lock(task->mutex());
  ctx_.Charge(params_.costs.null_syscall_ns);
  size_bytes = (size_bytes + kPageSize - 1) & ~(kPageSize - 1);
  VmObject* object = CreateAnonObject(size_bytes);
  uint64_t start = task->map().Insert(object, 0, size_bytes, /*write_protected=*/true);
  VmMapEntry* entry = task->map().Lookup(start);
  for (uint64_t offset = 0; offset < size_bytes; offset += kPageSize) {
    VmPage* page = daemon_->AllocForFault();
    HIPEC_CHECK_MSG(page != nullptr, "out of memory wiring a command buffer");
    object->InsertPage(page, offset);
    pmap_.Enter(task, entry, start + offset, page);
    page->wired = true;
  }
  counters_.Add(kCtrWiredPages, static_cast<int64_t>(size_bytes >> kPageShift));
  return start;
}

bool Kernel::Touch(Task* task, uint64_t vaddr, bool is_write) {
  if (task->terminated()) {
    return false;
  }
  // Real-threads mode: participate in stop-the-world audits, then own this task's address
  // space for the duration of the access. Both are no-op branches in deterministic mode.
  sim::SharedWorldGuard world(world_);
  sim::ScopedLock task_lock(task->mutex());
  return TouchLocked(task, vaddr, is_write);
}

bool Kernel::TouchLocked(Task* task, uint64_t vaddr, bool is_write) {
  if (pending_charge_ns_.load(std::memory_order_relaxed) > 0) {
    sim::Nanos charge = pending_charge_ns_.exchange(0, std::memory_order_relaxed);
    ctx_.Charge(charge);
  }
  ctx_.Charge(params_.costs.memory_access_ns);

  // One map lookup serves both the translation test and, on a miss, the fault.
  VmMapEntry* entry = task->map().Lookup(vaddr);

  // TLB / page-table hit: no kernel involvement; the hardware sets reference/modify bits.
  if (VmPage* page = entry != nullptr ? Pmap::Lookup(*entry, vaddr) : nullptr;
      page != nullptr) {
    if (is_write && entry->write_protected) {
      counters_.Add(kCtrProtectionFaults);
      TerminateTask(task, "wrote to a write-protected region (wired HiPEC command buffer)");
      return false;
    }
    page->reference.store(true, std::memory_order_relaxed);
    if (is_write) {
      page->modified = true;
    }
    page->last_reference_ns = ctx_.now();
    return true;
  }

  // Page fault.
  counters_.Add(kCtrPageFaults);
  tracer_.Record(ctx_.now(), sim::TraceCategory::kFault, 0, task->id(), vaddr);
  if (params_.hipec_build) {
    // The modified kernel checks every fault against the specific-region table (§5.2).
    ctx_.Charge(params_.costs.hipec_region_check_ns);
  }
  if (entry == nullptr) {
    TerminateTask(task, "segmentation violation");
    return false;
  }
  if (is_write && entry->write_protected) {
    counters_.Add(kCtrProtectionFaults);
    TerminateTask(task, "wrote to a write-protected region (wired HiPEC command buffer)");
    return false;
  }

  if (entry->object->container != nullptr && interceptor_ != nullptr) {
    FaultContext ctx{task, entry, vaddr, entry->OffsetOf(vaddr), is_write};
    counters_.Add(kCtrHipecFaults);
    if (!interceptor_->HandleFault(ctx)) {
      if (!task->terminated()) {
        TerminateTask(task, "HiPEC policy failed to resolve a fault");
      }
      return false;
    }
    return !task->terminated();
  }

  DefaultFault(task, entry, vaddr, is_write);
  return !task->terminated();
}

bool Kernel::TouchRange(Task* task, uint64_t vaddr, uint64_t size_bytes, bool is_write) {
  for (uint64_t a = vaddr; a < vaddr + size_bytes; a += kPageSize) {
    if (!Touch(task, a, is_write)) {
      return false;
    }
  }
  return true;
}

bool Kernel::FlushAddress(Task* task, uint64_t vaddr) {
  if (task->terminated()) {
    return false;
  }
  sim::SharedWorldGuard world(world_);
  sim::ScopedLock task_lock(task->mutex());
  if (task->terminated()) {
    return false;
  }
  ctx_.Charge(params_.costs.memory_access_ns);
  VmPage* page = pmap_.Lookup(task, vaddr);
  if (page != nullptr && page->modified) {
    FlushPageAsync(page);
  }
  return true;
}

void Kernel::DefaultFault(Task* task, VmMapEntry* entry, uint64_t vaddr, bool is_write) {
  VmObject* object = entry->object;
  uint64_t offset = entry->OffsetOf(vaddr);

  // Soft fault: the data is still resident (e.g. on the inactive queue); just re-map it.
  if (VmPage* page = object->Lookup(offset); page != nullptr) {
    ctx_.Charge(params_.costs.fault_resident_ns);
    counters_.Add(kCtrSoftFaults);
    daemon_->ReactivateIfInactive(page);
    pmap_.Enter(task, entry, vaddr, page);
    page->reference.store(true, std::memory_order_relaxed);
    if (is_write) {
      page->modified = true;
    }
    page->last_reference_ns = ctx_.now();
    return;
  }

  VmPage* page = daemon_->AllocForFault();
  if (page == nullptr) {
    TerminateTask(task, "out of physical memory");
    return;
  }
  InstallPage(task, entry, vaddr, page, is_write);
  daemon_->Activate(page);
}

void Kernel::InstallPage(Task* task, VmMapEntry* entry, uint64_t vaddr, VmPage* page,
                         bool is_write) {
  ctx_.Charge(params_.costs.fault_base_ns);
  VmObject* object = entry->object;
  uint64_t offset = entry->OffsetOf(vaddr);

  if (object->NeedsDiskRead(offset)) {
    if (object->pager != nullptr) {
      // EMM path: ask the external pager (IPC round trip + user-level service).
      object->pager->RequestData(object, offset);
      counters_.Add(kCtrPagerFills);
      tracer_.Record(ctx_.now(), sim::TraceCategory::kFill, 2, object->id(), offset);
    } else {
      disk_->ReadPage(object->BlockFor(offset));
      tracer_.Record(ctx_.now(), sim::TraceCategory::kFill, 1, object->id(), offset);
    }
    counters_.Add(kCtrDiskFills);
  } else {
    counters_.Add(kCtrZeroFills);
    tracer_.Record(ctx_.now(), sim::TraceCategory::kFill, 0, object->id(), offset);
  }

  object->InsertPage(page, offset);
  pmap_.Enter(task, entry, vaddr, page);
  page->reference.store(true, std::memory_order_relaxed);
  page->modified = is_write;
  page->last_reference_ns = ctx_.now();
}

bool Kernel::EvictPage(VmPage* page, bool flush_if_dirty) {
  // The page's state (bits, pmap entry) belongs to the task it is mapped into; callers off
  // the fault path (daemon balance, manager reclaim) may only try-lock that task — blocking
  // would invert the hierarchy. A caller already holding the task lock (fault path,
  // teardown) re-enters recursively and always succeeds; so does deterministic mode.
  if (Task* task = page->has_mapping ? page->mapped_task : nullptr; task != nullptr) {
    sim::ScopedTryLock task_lock(task->mutex());
    if (!task_lock.owns()) {
      return false;
    }
    EvictPageLocked(page, flush_if_dirty);
    return true;
  }
  EvictPageLocked(page, flush_if_dirty);
  return true;
}

void Kernel::EvictPageLocked(VmPage* page, bool flush_if_dirty) {
  HIPEC_CHECK_MSG(page->queue.load(std::memory_order_relaxed) == nullptr,
                  "evicting a page still on a queue");
  if (page->has_mapping) {
    pmap_.RemovePage(page);
  }
  if (page->object != nullptr) {
    tracer_.Record(ctx_.now(), sim::TraceCategory::kEviction, page->modified ? 1 : 0,
                   page->frame_number, page->object->id());
  }
  if (page->object != nullptr) {
    if (page->modified && flush_if_dirty) {
      FlushPageAsync(page);
    }
    page->object->RemovePage(page);
  }
  page->reference.store(false, std::memory_order_relaxed);
  page->modified = false;
  page->busy = false;
}

void Kernel::FlushPageAsync(VmPage* page) {
  HIPEC_CHECK_MSG(page->object != nullptr, "flushing a page with no backing object");
  VmObject* object = page->object;
  if (object->pager != nullptr) {
    // EMM path: memory_object_data_write to the external pager.
    object->pager->WriteData(object, page->offset);
    counters_.Add(kCtrPagerWrites);
  } else {
    object->MarkPagedOut(page->offset);
    disk_->WritePageAsync(object->BlockFor(page->offset));
  }
  page->modified = false;
  counters_.Add(kCtrPageouts);
}

void Kernel::ChargePageoutScan(size_t pages_examined) {
  ctx_.Charge(static_cast<sim::Nanos>(pages_examined) *
              params_.costs.pageout_scan_per_page_ns);
}

FrameAccounting Kernel::ComputeFrameAccounting(const void* manager_owner) const {
  FrameAccounting acc;
  acc.total = frames_.size();
  const ShardedFramePool& pool = daemon_->free_pool();
  for (const VmPage& page : frames_) {
    const PageQueue* q = page.queue.load(std::memory_order_relaxed);
    if (page.wired) {
      ++acc.wired;
    } else if (pool.Owns(q)) {
      // Pool shard queues and registered thread magazines both count as free.
      ++acc.global_free;
    } else if (daemon_->OwnsActiveQueue(q)) {
      ++acc.global_active;
    } else if (daemon_->OwnsInactiveQueue(q)) {
      ++acc.global_inactive;
    } else if (manager_owner != nullptr && page.owner == manager_owner) {
      ++acc.manager_owned;
    } else if (page.owner != nullptr) {
      ++acc.container_owned;
    } else {
      ++acc.unaccounted;
    }
  }
  return acc;
}

}  // namespace hipec::mach
