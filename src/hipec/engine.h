// The HiPEC engine: the two system calls that activate the mechanism (§4.3,
// vm_allocate_hipec() and vm_map_hipec()), the fault-path hook that runs the policy executor,
// and the glue between the manager, the executor and the security checker.
//
// Registration (either syscall) performs the steps of §4.3: allocate and initialize the
// container (from a zone), statically validate the HiPEC commands in the policy buffer, wire
// the command buffer read-only into the application's address space, and obtain the minFrame
// private frames from the global frame manager.
#ifndef HIPEC_HIPEC_ENGINE_H_
#define HIPEC_HIPEC_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "hipec/checker.h"
#include "hipec/container.h"
#include "hipec/executor.h"
#include "hipec/frame_manager.h"
#include "hipec/program.h"
#include "hipec/validator.h"
#include "mach/kernel.h"
#include "mach/zone.h"

namespace hipec::core {

// Per-registration options. The integer fields preset standard-layout operands so policies
// like Table 2's can reference their targets.
struct HipecOptions {
  // minFrame: the private frames guaranteed to the application (decided by privileged users).
  size_t min_frames = 0;
  // TimeOut period for the security checker; 0 uses the cost-model default.
  sim::Nanos timeout_ns = 0;
  // Standard-layout operand presets.
  int64_t free_target = 0;
  int64_t inactive_target = 0;
  int64_t reserved_target = 0;
  int64_t request_size = 16;
  // QoS weight for front-ends that multiplex many applications over one engine (the hipecd
  // drain scheduler): a weight-w client's ring gets w× the per-pass drain budget of a
  // weight-1 client. Ignored by the in-process fault path.
  uint32_t qos_weight = 1;
  // Extra user-defined operands, placed from std_ops::kUserBase: first the queues, then
  // integer scratch variables (initialized to 0), then page variables.
  size_t user_queue_count = 0;
  size_t user_int_count = 0;
  size_t user_page_count = 0;
  // Initial values for user integer operands (the translator emits these for `const`
  // declarations and pooled large literals). Applied after the layout is defined.
  struct IntInit {
    uint8_t index;
    int64_t value;
    bool read_only;
  };
  std::vector<IntInit> user_int_inits;
  // --- extensions (§6 future work) ------------------------------------------------------------
  // Allow other specific applications to Migrate frames into this container.
  bool accepts_migration = false;
  // After every policy event, verify that every allocated frame is still reachable through
  // the container's queues or page variables; a mismatch (a leaked frame) terminates the
  // application. Part of the stronger security checking §6 calls for.
  bool strict_accounting = false;
};

struct HipecRegion {
  bool ok = false;
  std::string error;
  uint64_t addr = 0;
  Container* container = nullptr;
};

// Configures the standard operand layout (operand.h) plus the user-defined operands requested
// in `options`. Called by the engine at registration; exposed for tests and tools that drive
// the executor directly.
void SetupStandardOperands(Container* container, const HipecOptions& options);

class HipecEngine final : public mach::FaultInterceptor {
 public:
  explicit HipecEngine(mach::Kernel* kernel, FrameManagerConfig manager_config = {});
  ~HipecEngine() override;
  HipecEngine(const HipecEngine&) = delete;
  HipecEngine& operator=(const HipecEngine&) = delete;

  // vm_allocate_hipec(): a fresh anonymous region of `size` bytes under specific control.
  HipecRegion VmAllocateHipec(mach::Task* task, uint64_t size, const PolicyProgram& program,
                              const HipecOptions& options);

  // vm_map_hipec(): maps an existing file object under specific control.
  HipecRegion VmMapHipec(mach::Task* task, mach::VmObject* object, const PolicyProgram& program,
                         const HipecOptions& options);

  // mach::FaultInterceptor:
  bool HandleFault(const mach::FaultContext& ctx) override;
  void OnRegionTeardown(mach::Task* task, mach::VmMapEntry* entry) override;
  void OnMemoryPressure() override;

  GlobalFrameManager& manager() { return manager_; }
  PolicyExecutor& executor() { return executor_; }
  SecurityChecker& checker() { return checker_; }
  sim::CounterSet& counters() { return counters_; }
  mach::Kernel& kernel() { return *kernel_; }

  // Arms the engine's registration lock (rank kEngine — taken before any task lock, since
  // registration wires buffers and admits containers) plus every owned component. Called by
  // the constructor when the kernel runs real threads.
  void EnableConcurrent();

 private:
  HipecRegion Register(mach::Task* task, mach::VmObject* object, const PolicyProgram& program,
                       const HipecOptions& options);
  // ReclaimRunner for the manager: runs the victim's ReclaimFrame event.
  size_t RunReclaim(Container* container, size_t ask);
  // Strict-accounting pass: true iff every allocated frame is reachable.
  bool AccountingConsistent(Container* container) const;
  // Runs the strict pass if enabled; terminates the offender and returns false on a leak.
  bool EnforceAccounting(Container* container);
  // Returns the container's frames to the pool, detaches it from its object and frees it.
  // The caller holds the container's task lock.
  void TearDown(Container* container);

  mach::Kernel* kernel_;
  // Serializes registrations (container id assignment, static validation, admission). Rank
  // kEngine: the lowest rank, acquired before the task/manager locks registration takes.
  // Teardown does NOT take it (it arrives holding a task lock); teardown touches only the
  // zone, which has its own leaf lock.
  sim::OrderedMutex mu_{sim::LockRank::kEngine};
  GlobalFrameManager manager_;
  PolicyExecutor executor_;
  SecurityChecker checker_;
  mach::Zone<Container> container_zone_{"hipec_containers"};
  std::atomic<uint64_t> next_container_id_{1};
  sim::CounterSet counters_;
};

}  // namespace hipec::core

#endif  // HIPEC_HIPEC_ENGINE_H_
