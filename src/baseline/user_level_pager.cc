#include "baseline/user_level_pager.h"

#include <algorithm>

#include "sim/check.h"

namespace hipec::baseline {

namespace {

// Interned counter ids: array-indexed adds on the fault path, no string lookups.
const sim::CounterId kCtrUpcalls = sim::InternCounter("pager.upcalls");
const sim::CounterId kCtrIpcs = sim::InternCounter("pager.ipcs");
const sim::CounterId kCtrPremoDecisions = sim::InternCounter("pager.premo_decisions");
const sim::CounterId kCtrDecisions = sim::InternCounter("pager.decisions");
const sim::CounterId kCtrFaults = sim::InternCounter("pager.faults");

}  // namespace

UserLevelPager::UserLevelPager(mach::Kernel* kernel, PagerConfig config)
    : kernel_(kernel), config_(config) {
  kernel_->SetFaultInterceptor(this);
}

UserLevelPager::~UserLevelPager() { kernel_->SetFaultInterceptor(nullptr); }

uint64_t UserLevelPager::CreateRegion(mach::Task* task, uint64_t size_bytes,
                                      size_t pool_frames) {
  kernel_->clock().Advance(kernel_->costs().null_syscall_ns);
  auto region = std::make_unique<Region>();
  region->task = task;
  region->object = kernel_->CreateAnonObject(size_bytes);
  region->object->container = region.get();

  if (config_.mechanism != Mechanism::kPremoSyscall) {
    // Private pool: reserve the frames now, like a segment manager acquiring its cache.
    mach::PageQueue staging("baseline_staging");
    bool ok = kernel_->daemon().AllocFramesForManager(pool_frames, &staging, region.get());
    HIPEC_CHECK_MSG(ok, "baseline pager could not reserve its frame pool");
    while (mach::VmPage* page = staging.DequeueHead()) {
      region->free_frames.push_back(page);
    }
  }

  uint64_t addr = task->map().Insert(region->object, 0, size_bytes);
  regions_.push_back(std::move(region));
  return addr;
}

void UserLevelPager::ChargeCrossing() {
  const sim::CostModel& costs = kernel_->costs();
  switch (config_.mechanism) {
    case Mechanism::kUpcall:
      // Kernel -> user upcall and the return trap, plus user stack setup.
      kernel_->clock().Advance(costs.UpcallDecisionNs());
      counters_.Add(kCtrUpcalls);
      break;
    case Mechanism::kIpc:
      // One null-IPC round trip to the external pager.
      kernel_->clock().Advance(costs.IpcDecisionNs());
      counters_.Add(kCtrIpcs);
      break;
    case Mechanism::kPremoSyscall:
      // The decision itself runs at user level after an upcall-equivalent notification; the
      // policy then queries page information through PREMO system calls.
      kernel_->clock().Advance(costs.UpcallDecisionNs());
      kernel_->clock().Advance(static_cast<sim::Nanos>(config_.premo_info_syscalls) *
                               costs.null_syscall_ns);
      counters_.Add(kCtrPremoDecisions);
      break;
  }
  kernel_->clock().Advance(config_.user_compute_ns);
  counters_.Add(kCtrDecisions);
}

mach::VmPage* UserLevelPager::ChooseVictim(std::vector<mach::VmPage*>& resident) {
  HIPEC_CHECK(!resident.empty());
  size_t pick = 0;
  switch (config_.policy) {
    case policies::OraclePolicy::kFifo:
      pick = 0;
      break;
    case policies::OraclePolicy::kLru: {
      for (size_t i = 1; i < resident.size(); ++i) {
        if (resident[i]->last_reference_ns < resident[pick]->last_reference_ns) {
          pick = i;
        }
      }
      break;
    }
    case policies::OraclePolicy::kMru: {
      for (size_t i = 1; i < resident.size(); ++i) {
        if (resident[i]->last_reference_ns >= resident[pick]->last_reference_ns) {
          pick = i;
        }
      }
      break;
    }
    case policies::OraclePolicy::kClock:
      HIPEC_CHECK_MSG(false, "the user-level pager has no clock policy");
  }
  mach::VmPage* victim = resident[pick];
  resident.erase(resident.begin() + static_cast<ptrdiff_t>(pick));
  return victim;
}

bool UserLevelPager::HandleFault(const mach::FaultContext& ctx) {
  auto* region = static_cast<Region*>(ctx.entry->object->container);
  HIPEC_CHECK(region != nullptr);
  counters_.Add(kCtrFaults);

  mach::VmPage* frame = nullptr;
  if (config_.mechanism == Mechanism::kPremoSyscall) {
    // Shared pool: frames come from (and are reclaimed by) the global pageout daemon, so
    // other applications interfere. The user-level policy only picks which of *its own*
    // resident pages to give back when the system is under pressure.
    if (kernel_->daemon().free_count() > kernel_->daemon().targets().free_min) {
      frame = kernel_->daemon().AllocForFault();
    } else {
      ChargeCrossing();
      // Rebuild the resident list: the daemon may have stolen pages behind our back.
      std::erase_if(region->resident,
                    [&](mach::VmPage* p) { return p->object != region->object; });
      if (!region->resident.empty()) {
        frame = ChooseVictim(region->resident);
        if (frame->queue != nullptr) {
          frame->queue.load()->Remove(frame);
        }
        // The fault path holds the task lock, so the try edge inside EvictPage cannot fail.
        HIPEC_CHECK(kernel_->EvictPage(frame, /*flush_if_dirty=*/true));
      } else {
        frame = kernel_->daemon().AllocForFault();
      }
    }
    if (frame == nullptr) {
      return false;
    }
    kernel_->InstallPage(ctx.task, ctx.entry, ctx.vaddr, frame, ctx.is_write);
    kernel_->daemon().Activate(frame);  // shared pool: global queues manage it
    region->resident.push_back(frame);
    return true;
  }

  // Private pool (upcall / IPC).
  if (!region->free_frames.empty()) {
    frame = region->free_frames.front();
    region->free_frames.pop_front();
  } else {
    ChargeCrossing();  // the replacement decision crosses to user level
    frame = ChooseVictim(region->resident);
    HIPEC_CHECK(kernel_->EvictPage(frame, /*flush_if_dirty=*/true));  // task lock held
  }
  kernel_->InstallPage(ctx.task, ctx.entry, ctx.vaddr, frame, ctx.is_write);
  region->resident.push_back(frame);
  return true;
}

void UserLevelPager::OnRegionTeardown(mach::Task* task, mach::VmMapEntry* entry) {
  (void)task;
  auto* region = static_cast<Region*>(entry->object->container);
  HIPEC_CHECK(region != nullptr);
  auto give_back = [&](mach::VmPage* page) {
    if (page->queue != nullptr) {
      page->queue.load()->Remove(page);
    }
    if (page->object != nullptr) {
      HIPEC_CHECK(kernel_->EvictPage(page, /*flush_if_dirty=*/false));  // task lock held
    }
    kernel_->daemon().ReturnFrame(page);
  };
  for (mach::VmPage* page : region->free_frames) {
    give_back(page);
  }
  for (mach::VmPage* page : region->resident) {
    if (config_.mechanism == Mechanism::kPremoSyscall && page->object != region->object) {
      continue;  // already stolen by the daemon
    }
    give_back(page);
  }
  entry->object->container = nullptr;
  std::erase_if(regions_, [&](const auto& r) { return r.get() == region; });
}

}  // namespace hipec::baseline
