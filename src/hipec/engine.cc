#include "hipec/engine.h"

#include <unordered_set>
#include <utility>

#include "sim/check.h"

namespace hipec::core {
namespace {

// Interned counter ids — the fault path (HandleFault/RunReclaim) charges these on every
// event, so they must not cost a string-keyed lookup.
const sim::CounterId kCtrRegistrationsRejected =
    sim::InternCounter("engine.registrations_rejected");
const sim::CounterId kCtrAdmissionsRejected = sim::InternCounter("engine.admissions_rejected");
const sim::CounterId kCtrRegistrations = sim::InternCounter("engine.registrations");
const sim::CounterId kCtrPolicyTimeouts = sim::InternCounter("engine.policy_timeouts");
const sim::CounterId kCtrPolicyErrors = sim::InternCounter("engine.policy_errors");
const sim::CounterId kCtrBadReturnPages = sim::InternCounter("engine.bad_return_pages");
const sim::CounterId kCtrDirtyEvictions = sim::InternCounter("engine.dirty_evictions");
const sim::CounterId kCtrReusedFrames = sim::InternCounter("engine.reused_frames");
const sim::CounterId kCtrFaultsHandled = sim::InternCounter("engine.faults_handled");
const sim::CounterId kCtrReclaimFailures = sim::InternCounter("engine.reclaim_failures");
const sim::CounterId kCtrReclaimsRun = sim::InternCounter("engine.reclaims_run");
const sim::CounterId kCtrReclaimLockSkips = sim::InternCounter("engine.reclaim_lock_skips");
const sim::CounterId kCtrReclaimDebtRepaid = sim::InternCounter("engine.reclaim_debt_repaid");

// How many try_lock attempts (with a yield between them) RunReclaim spends on a busy
// victim before recording the ask as debt and moving on. A victim mid-fault typically
// frees its task lock within one scheduling quantum, so a handful of yields converts most
// would-be skips into successful passes without stalling the manager behind a pathological
// holder.
constexpr int kReclaimLockAttempts = 4;
const sim::CounterId kCtrLeaksDetected = sim::InternCounter("engine.leaks_detected");
const sim::CounterId kCtrMemoryPressure =
    sim::InternCounter("engine.memory_pressure_notifications");
const sim::CounterId kCtrTeardowns = sim::InternCounter("engine.teardowns");

}  // namespace

HipecEngine::HipecEngine(mach::Kernel* kernel, FrameManagerConfig manager_config)
    : kernel_(kernel),
      manager_(kernel, manager_config),
      executor_(kernel, &manager_),
      checker_(kernel, &manager_) {
  manager_.SetReclaimRunner(
      [this](Container* c, size_t ask) { return RunReclaim(c, ask); });
  kernel_->SetFaultInterceptor(this);
  if (kernel_->concurrent()) {
    EnableConcurrent();
  }
  checker_.Start();
}

void HipecEngine::EnableConcurrent() {
  mu_.Enable(true);
  manager_.EnableConcurrent();
  executor_.EnableConcurrent();
  checker_.EnableConcurrent();
  container_zone_.EnableConcurrent();
  counters_.EnableConcurrent();
}

HipecEngine::~HipecEngine() {
  checker_.Stop();
  kernel_->SetFaultInterceptor(nullptr);
}

void SetupStandardOperands(Container* container, const HipecOptions& options) {
  OperandArray& ops = container->operands();
  ops.DefineInt(std_ops::kScratch0, 0);
  ops.DefineQueue(std_ops::kFreeQueue, &container->free_q());
  ops.DefineQueueCount(std_ops::kFreeCount, &container->free_q());
  ops.DefineQueue(std_ops::kActiveQueue, &container->active_q());
  ops.DefineQueueCount(std_ops::kActiveCount, &container->active_q());
  ops.DefineQueue(std_ops::kInactiveQueue, &container->inactive_q());
  ops.DefineQueueCount(std_ops::kInactiveCount, &container->inactive_q());
  ops.DefineInt(std_ops::kFreeTarget, options.free_target);
  ops.DefineInt(std_ops::kInactiveTarget, options.inactive_target);
  ops.DefineInt(std_ops::kReservedTarget, options.reserved_target);
  ops.DefineInt(std_ops::kRequestSize, options.request_size);
  ops.DefinePage(std_ops::kPage);
  ops.DefineInt(std_ops::kFaultAddr, 0, /*read_only=*/false);
  ops.DefineInt(std_ops::kReclaimCount, 0);
  ops.DefineInt(std_ops::kResult, 0);
  ops.DefineInt(std_ops::kScratch1, 0);

  uint8_t index = std_ops::kUserBase;
  for (size_t i = 0; i < options.user_queue_count; ++i) {
    container->user_queues().push_back(std::make_unique<mach::PageQueue>(
        "hipec_user_q" + std::to_string(i) + "_" + std::to_string(container->id())));
    ops.DefineQueue(index++, container->user_queues().back().get());
  }
  for (size_t i = 0; i < options.user_int_count; ++i) {
    ops.DefineInt(index++, 0);
  }
  for (size_t i = 0; i < options.user_page_count; ++i) {
    ops.DefinePage(index++);
  }
  for (const HipecOptions::IntInit& init : options.user_int_inits) {
    ops.DefineInt(init.index, init.value, init.read_only);
  }
}

HipecRegion HipecEngine::Register(mach::Task* task, mach::VmObject* object,
                                  const PolicyProgram& program, const HipecOptions& options) {
  sim::ScopedLock lock(mu_);
  // Registration mutates the task's address map (buffer wiring, region insert) — own it for
  // the duration. Rank kTask > kEngine, and the manager lock (admission) nests above both.
  sim::ScopedLock task_lock(task->mutex());
  HipecRegion region;

  Container* container = container_zone_.Alloc(
      next_container_id_.fetch_add(1, std::memory_order_relaxed), task, object, program,
      options.min_frames,
      options.timeout_ns > 0 ? options.timeout_ns : kernel_->costs().policy_timeout_ns);
  SetupStandardOperands(container, options);

  // Static validation — the security checker's decode-and-verify pass. Charged per word (the
  // checker reads the whole buffer once). On success the decoded IR is cached on the
  // container, so the executor never re-parses the raw command buffer.
  kernel_->ctx().Charge(static_cast<sim::Nanos>(program.TotalWords()) *
                        kernel_->costs().command_decode_ns);
  DecodeResult decoded = SecurityChecker::StaticScan(program, container->operands());
  if (!decoded.errors.empty()) {
    container_zone_.Free(container);
    region.error = "policy rejected: " + FormatErrors(decoded.errors);
    counters_.Add(kCtrRegistrationsRejected);
    return region;
  }
  container->AdoptDecodedProgram(std::move(decoded.program));

  // Install-time compilation: translate the freshly decoded IR to native code while the
  // application is still inside the (already expensive) registration syscall, so the first
  // fault pays nothing. Compile() returns null on hosts without an emitter; the executor
  // then falls back to the interpreter per event.
  if (kernel_->params().jit_mode) {
    jit::CompileOptions jit_opts;
    jit_opts.deterministic = kernel_->ctx().vclock != nullptr;
    jit_opts.decode_ns = kernel_->costs().command_decode_ns;
    jit_opts.complex_ns = kernel_->costs().complex_command_ns;
    container->AdoptJitProgram(
        jit::Compile(container->decoded_program(), container->operands(), jit_opts));
  }

  // minFrame admission.
  if (!manager_.AdmitContainer(container)) {
    container_zone_.Free(container);
    region.error = "minFrame request cannot be satisfied";
    counters_.Add(kCtrAdmissionsRejected);
    return region;
  }

  // Wire the command buffer read-only into the application's address space.
  uint64_t buffer_bytes = program.TotalWords() * sizeof(uint32_t);
  container->buffer_vaddr = kernel_->MapWiredRegion(task, std::max<uint64_t>(buffer_bytes, 1));
  container->buffer_size = buffer_bytes;

  container->qos_weight = options.qos_weight == 0 ? 1 : options.qos_weight;
  container->accepts_migration = options.accepts_migration;
  container->strict_accounting = options.strict_accounting;

  object->container = container;
  region.ok = true;
  region.container = container;
  region.addr = task->map().Insert(object, 0, object->size());
  counters_.Add(kCtrRegistrations);
  return region;
}

HipecRegion HipecEngine::VmAllocateHipec(mach::Task* task, uint64_t size,
                                         const PolicyProgram& program,
                                         const HipecOptions& options) {
  kernel_->ctx().Charge(kernel_->costs().null_syscall_ns);
  return Register(task, kernel_->CreateAnonObject(size), program, options);
}

HipecRegion HipecEngine::VmMapHipec(mach::Task* task, mach::VmObject* object,
                                    const PolicyProgram& program, const HipecOptions& options) {
  kernel_->ctx().Charge(kernel_->costs().null_syscall_ns);
  return Register(task, object, program, options);
}

bool HipecEngine::HandleFault(const mach::FaultContext& ctx) {
  auto* container = static_cast<Container*>(ctx.entry->object->container);
  HIPEC_CHECK(container != nullptr);
  mach::Task* task = ctx.task;

  container->operands().WriteInt(std_ops::kFaultAddr, static_cast<int64_t>(ctx.vaddr));
  ExecResult result = executor_.ExecuteEvent(container, kEventPageFault);
  if (!result.ok()) {
    counters_.Add(result.outcome == ExecOutcome::kTimeout ? kCtrPolicyTimeouts
                                                          : kCtrPolicyErrors);
    kernel_->TerminateTask(task, "HiPEC: " + result.error);
    return true;  // handled — by terminating the offender (container is freed now)
  }
  if (!EnforceAccounting(container)) {
    return true;  // leak detected: offender terminated, frames recovered
  }

  mach::VmPage* page = nullptr;
  try {
    page = container->operands().ReadPageOrNull(result.return_operand);
  } catch (const PolicyError&) {
    page = nullptr;
  }
  if (page == nullptr || page->owner != container || page->queue != nullptr) {
    counters_.Add(kCtrBadReturnPages);
    kernel_->TerminateTask(task, "HiPEC: PageFault policy did not return a usable frame");
    return true;
  }

  // The frame may still cache other data (a reused victim the policy chose); evict it first.
  // The victim frame belongs to this container, so any mapping it has is into this task —
  // whose lock the fault path holds — and the evict cannot miss.
  if (page->object != nullptr) {
    if (page->modified) {
      counters_.Add(kCtrDirtyEvictions);
    }
    bool evicted = kernel_->EvictPage(page, /*flush_if_dirty=*/true);
    HIPEC_CHECK(evicted);
    counters_.Add(kCtrReusedFrames);
  }

  // Every newly installed page starts with score word 0. Whatever the policy left there
  // belongs to the frame's previous page, and whether that word survived depends on how the
  // frame came back (a reused clean victim keeps it, a Flush exchange hands out a zeroed
  // reserve frame) — that is, on disk timing.
  page->user_word = 0;
  kernel_->InstallPage(task, ctx.entry, ctx.vaddr, page, ctx.is_write);
  // Convention: the kernel appends the freshly faulted page to the container's active queue;
  // the policy reorganizes its queues on subsequent events. The page variable named by Return
  // is left pointing at the installed page, so a policy can classify "the previous fault's
  // page" at its next event (see examples/buffer_manager.cpp).
  container->active_q().EnqueueTail(page, kernel_->ctx().now());
  ++container->faults_handled;
  counters_.Add(kCtrFaultsHandled);
  return true;
}

size_t HipecEngine::RunReclaim(Container* container, size_t ask) {
  // The manager calls in holding its own lock; running the victim's policy mutates the
  // victim's container state, which its task lock owns. Manager → task is an inverted edge,
  // so it must be a try-acquisition (DESIGN.md §10). A bounded backoff absorbs victims that
  // are merely mid-fault; a victim that stays busy past the backoff is skipped this round,
  // but the ask is recorded as reclaim debt and added to the next pass that does land, so
  // repeated skips defer reclamation instead of cancelling it (the starvation fix).
  sim::ScopedBackoffTryLock victim_lock(container->task()->mutex(), kReclaimLockAttempts);
  if (!victim_lock.owns()) {
    // Cap the debt at the victim's current allocation (racy read — advisory only): asking
    // for more than it holds is meaningless, and the cap keeps the counter from growing
    // without bound while a hog monopolizes its own lock.
    size_t cap = container->allocated_frames;
    size_t debt = container->reclaim_debt.load(std::memory_order_relaxed);
    while (debt < cap &&
           !container->reclaim_debt.compare_exchange_weak(
               debt, std::min(cap, debt + ask), std::memory_order_relaxed)) {
    }
    counters_.Add(kCtrReclaimLockSkips);
    return 0;
  }
  size_t debt = container->reclaim_debt.exchange(0, std::memory_order_relaxed);
  if (debt > 0) {
    ask += debt;
    counters_.Add(kCtrReclaimDebtRepaid, static_cast<int64_t>(debt));
  }
  container->operands().WriteInt(std_ops::kReclaimCount, static_cast<int64_t>(ask));
  size_t before = container->allocated_frames;
  ExecResult result = executor_.ExecuteEvent(container, kEventReclaimFrame);
  if (!result.ok()) {
    counters_.Add(kCtrReclaimFailures);
    // Termination returns every remaining frame to the pool via OnRegionTeardown.
    kernel_->TerminateTask(container->task(), "HiPEC: " + result.error);
    return before;
  }
  size_t released = before - container->allocated_frames;
  container->frames_reclaimed_from += static_cast<int64_t>(released);
  counters_.Add(kCtrReclaimsRun);
  if (!EnforceAccounting(container)) {
    return before;  // terminated; everything it held is back in the pool
  }
  return released;
}

bool HipecEngine::AccountingConsistent(Container* container) const {
  size_t reachable = container->free_q().count() + container->active_q().count() +
                     container->inactive_q().count();
  for (const auto& queue : container->user_queues()) {
    reachable += queue->count();
  }
  // Off-queue frames referenced by page-variable operands (count each frame once).
  std::unordered_set<const mach::VmPage*> seen;
  for (size_t i = 0; i < OperandArray::kEntries; ++i) {
    const OperandEntry& entry = container->operands().entry(static_cast<uint8_t>(i));
    if (entry.type == OperandType::kPage && entry.page != nullptr &&
        entry.page->owner == container && entry.page->queue == nullptr &&
        seen.insert(entry.page).second) {
      ++reachable;
    }
  }
  return reachable == container->allocated_frames;
}

bool HipecEngine::EnforceAccounting(Container* container) {
  if (!container->strict_accounting || AccountingConsistent(container)) {
    return true;
  }
  counters_.Add(kCtrLeaksDetected);
  kernel_->TerminateTask(container->task(),
                         "HiPEC: policy leaked a frame (strict accounting)");
  return false;
}

void HipecEngine::OnMemoryPressure() {
  counters_.Add(kCtrMemoryPressure);
  manager_.OnMemoryPressure();
}

void HipecEngine::OnRegionTeardown(mach::Task* task, mach::VmMapEntry* entry) {
  (void)task;
  auto* container = static_cast<Container*>(entry->object->container);
  HIPEC_CHECK(container != nullptr);
  manager_.RemoveContainer(container);
  entry->object->container = nullptr;
  container_zone_.Free(container);
  counters_.Add(kCtrTeardowns);
}

}  // namespace hipec::core
