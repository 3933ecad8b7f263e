// The application-specific policy executor (§4.3.2): invoked by the page-fault handler or the
// global frame manager, it runs the container's pre-decoded policy program — entirely in
// kernel mode, with no kernel/user crossing. Per command it charges only the fetch+decode
// cost (Table 4: ~50 ns each).
//
// The hot path is table-driven dispatch over the DecodedProgram IR (decoded.h): raw words were
// classified and bounds-checked when the policy was installed, so the interpreter does no
// per-event decoding, no operand re-classification, and no per-iteration bounds check
// (control that leaves the stream lands on a trap slot). The pre-IR switch interpreter is
// kept as the reference oracle: it re-decodes every word and has its own command bodies, so
// the dual-path tests can check the IR loop and the JIT against independent code, trace by
// trace.
//
// At the start of every event the executor writes a timestamp into the container; the
// security checker uses it to detect runaway policies. The container's CC (command counter)
// tracks the next command; execution ends at `Return`.
#ifndef HIPEC_HIPEC_EXECUTOR_H_
#define HIPEC_HIPEC_EXECUTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "hipec/container.h"
#include "hipec/frame_manager.h"
#include "mach/kernel.h"
#include "obs/probe.h"

namespace hipec::core {

namespace jit {
struct ExecutorAccess;
}  // namespace jit

enum class ExecOutcome {
  kOk,
  kTimeout,  // killed by the security checker (or the runaway backstop)
  kError,    // PolicyError: bad operand use, empty dequeue, fell off the stream, ...
};

struct ExecResult {
  ExecOutcome outcome = ExecOutcome::kOk;
  std::string error;
  // Operand index named by the Return command (the PageFault event returns the page there).
  uint8_t return_operand = 0;
  int64_t commands_executed = 0;

  bool ok() const { return outcome == ExecOutcome::kOk; }
};

// Which engine runs the policy. kDecodedIr is the interpreter production path;
// kReferenceSwitch is the pre-IR decode-per-event loop, the oracle of the dual-path
// equivalence tests; kJit runs install-time-compiled native code (jit.h) and
// falls back to kDecodedIr per event when no compiled code exists (unsupported host, masked
// kind, compile failure) — the fallbacks are counted in executor.jit_fallbacks.
enum class DispatchMode {
  kDecodedIr,
  kReferenceSwitch,
  kJit,
};

// One executed command, as observed by an attached trace sink: the CC and operator code of
// the command plus the condition flag *after* it ran. Both interpreters emit identical
// streams for identical programs — the dual-path tests assert exactly that.
struct ExecTrace {
  int event;
  uint16_t cc;
  uint8_t opcode;
  bool condition;

  bool operator==(const ExecTrace&) const = default;
};

// Run-time operand helpers shared by the IR loop and the JIT bridges.
//
// Integer load from a decode-classified slot (kInt or kQueueCount — the only two kinds the
// decoder accepts where an integer is read).
inline int64_t LoadInt(const OperandEntry& e) {
  return e.type == OperandType::kQueueCount ? static_cast<int64_t>(e.queue->count())
                                            : e.int_value;
}
// Raises a PolicyError with OperandArray::Fail's text, for the value checks that remain at
// run time. Formats into a stack buffer: raising must not allocate before the throw.
[[noreturn]] void FailOperand(uint8_t index, const char* message);
// The decoder proved the slot is a page variable; emptiness is a run-time property.
inline mach::VmPage* RequirePage(uint8_t index, const OperandEntry& e) {
  if (e.page == nullptr) [[unlikely]] {
    FailOperand(index, "page variable is empty");
  }
  return e.page;
}

// Saturating 64-bit arithmetic used by the SatDotProduct command. One definition shared by
// the IR interpreter, the reference interpreter and the JIT bridge, so the three paths
// cannot drift at the overflow boundaries the differential suite probes.
int64_t SatAdd64(int64_t a, int64_t b);
int64_t SatMul64(int64_t a, int64_t b);
// The SatDotProduct kernel: saturating sum over i in [0, n) of
// slots[base + i] * slots[base + n + i]. The decoder guaranteed every slot is a readable
// integer and the range stays inside the 256-entry array.
int64_t SatDotSlots(const OperandEntry* slots, uint8_t base, int n);

// The command kernels: one production definition per stateful command, holding its run-time
// checks, its exact error text and its state change. The IR loop (which shares this
// translation unit and inlines them) and the JIT bridges call these; the reference
// interpreter keeps its own bodies so the dual-path tests compare independent code. Page
// variables are passed as (operand index, slot) so the empty-variable error names the
// operand. Kernels of condition-setting commands return the new condition flag.
//
// DeQueue: removes the head (or tail) of `queue` into page variable `dst`.
void DeQueueCommand(OperandEntry& dst, mach::PageQueue* queue, bool tail);
// EnQueue: links page variable `index` at the head (or tail) of `queue`, stamped `now`. The
// page must be `c`'s and on no queue.
void EnQueueCommand(Container* c, uint8_t index, const OperandEntry& var,
                    mach::PageQueue* queue, bool tail, sim::Nanos now);
// Request: asks the frame manager for `n` more frames onto `dest`, all or nothing.
bool RequestCommand(GlobalFrameManager* manager, Container* c, int64_t n,
                    mach::PageQueue* dest);
// Release, queue form: gives the head of `queue` back to the global pool; false when empty.
bool ReleaseQueueCommand(GlobalFrameManager* manager, Container* c, mach::PageQueue* queue);
// Release, page form: gives page variable `var` back and empties it; false when it is empty.
bool ReleasePageCommand(GlobalFrameManager* manager, Container* c, OperandEntry& var);
// Flush: hands the off-queue page variable `index` to the manager's write-back and stores the
// clean frame it returns in exchange (FlushExchange); always true.
bool FlushCommand(GlobalFrameManager* manager, Container* c, uint8_t index, OperandEntry& var);
// Find: loads the resident page at `vaddr` of c's region into `dst`; true iff it is c's.
bool FindCommand(Container* c, OperandEntry& dst, int64_t vaddr);
// Migrate: hands the off-queue page variable `index` to container `target`, emptying the
// variable on success.
bool MigrateCommand(GlobalFrameManager* manager, Container* c, uint8_t index,
                    OperandEntry& var, int64_t target);
// Unlink: removes page variable `index` from whichever of c's queues holds it.
void UnlinkCommand(Container* c, uint8_t index, const OperandEntry& var);

// The complex-command kernels: Table 1's replacement policies and the rank/score commands.
// Callers charge the complex-command cost; the victim selectors' callers also count
// executor.policy_commands.
//
// FIFO/LRU/MRU (`policy` is kFifo, kLru or kMru): removes and returns the victim of `queue`.
// FIFO takes the head; LRU the first page in queue order with the smallest
// last_reference_ns; MRU the last page with the largest. Throws PolicyError on an empty queue.
mach::VmPage* SelectVictim(mach::PageQueue* queue, Opcode policy);
// WeightedSelect: removes and returns the page of `queue` whose user_word is smallest
// (`want_max` false) or largest; ties keep the page nearest the head. Throws PolicyError on
// an empty queue.
mach::VmPage* SelectByWord(mach::PageQueue* queue, bool want_max);
// AgeScores: one head-to-tail pass over `queue` applying `mode`'s rule (instruction.h) with
// its parameters at slots[param...]. The decoder proved the parameter run's slot kinds.
void AgeScoresQueue(mach::PageQueue* queue, OperandEntry* slots, uint8_t param, AgeMode mode);

class PolicyExecutor {
 public:
  PolicyExecutor(mach::Kernel* kernel, GlobalFrameManager* manager);
  PolicyExecutor(const PolicyExecutor&) = delete;
  PolicyExecutor& operator=(const PolicyExecutor&) = delete;

  // Executes one event of the container's policy to completion. Charges the per-invocation
  // dispatch cost plus one decode cost per command executed.
  ExecResult ExecuteEvent(Container* container, int event);

  // Hard backstop against runaway policies, in commands per top-level event invocation. The
  // adaptive security checker normally fires much earlier (in virtual time); this bound only
  // protects the simulation host.
  void set_max_commands(int64_t n) { max_commands_ = n; }

  DispatchMode dispatch_mode() const { return mode_; }
  void set_dispatch_mode(DispatchMode mode) { mode_ = mode; }

  // Attaches (or detaches, with nullptr) a per-command trace sink. Tracing is off the hot
  // path behind a single predicted-not-taken branch.
  void set_trace_sink(std::vector<ExecTrace>* sink) { trace_ = sink; }

  sim::CounterSet& counters() { return counters_; }
  obs::ProbeSet& probes() { return probes_; }

  // Arms the stats sinks for real-threads mode. The executor itself needs no lock: every
  // event runs under the owning container's task lock (faults) or a try-lock on the victim's
  // task (reclaim), and the condition flag is thread-local.
  void EnableConcurrent();

 private:
  // All return the Return instruction's operand index. Depth guards Activate recursion.
  // RunEventIr is the computed-goto loop over the IR (dispatch_loop.inc).
  uint8_t RunEventIr(Container* container, int event, int depth, int64_t* budget);
  uint8_t RunEventSwitch(Container* container, int event, int depth, int64_t* budget);
  // Runs compiled code for the event if the container has any (compiling lazily on first
  // use), decoding the JitStatus back into the interpreter's control flow; falls back to
  // RunEventIr otherwise. The JIT's Activate bridge re-enters here via jit::ExecutorAccess.
  uint8_t RunEventJit(Container* container, int event, int depth, int64_t* budget);

  friend struct jit::ExecutorAccess;

  // Reference-path command implementations (decode-per-event interpreter only). The stateful
  // commands keep bodies of their own; the complex commands call the shared kernels.
  void DoArith(Container* c, const Instruction& inst);
  void DoWeightedSelect(Container* c, const Instruction& inst);
  void DoAgeScores(Container* c, const Instruction& inst);
  void DoSatDotProduct(Container* c, const Instruction& inst);
  void DoPageWord(Container* c, const Instruction& inst);
  void DoComp(Container* c, const Instruction& inst);
  void DoLogic(Container* c, const Instruction& inst);
  void DoSet(Container* c, const Instruction& inst);
  void DoDeQueue(Container* c, const Instruction& inst);
  void DoEnQueue(Container* c, const Instruction& inst);
  void DoRequest(Container* c, const Instruction& inst);
  void DoRelease(Container* c, const Instruction& inst);
  void DoFlush(Container* c, const Instruction& inst);
  void DoFind(Container* c, const Instruction& inst);
  void DoReplacementPolicy(Container* c, const Instruction& inst);

  mach::Kernel* kernel_;
  GlobalFrameManager* manager_;
  int64_t max_commands_ = 50'000'000;
  // The condition flag (see instruction.h). Thread-local: in real-threads mode each fault
  // thread interprets its own container's policy; the flag is pure per-execution state.
  static thread_local bool condition_;
  DispatchMode mode_ = DispatchMode::kDecodedIr;
  std::vector<ExecTrace>* trace_ = nullptr;
  sim::CounterSet counters_;
  obs::ProbeSet probes_;
};

}  // namespace hipec::core

#endif  // HIPEC_HIPEC_EXECUTOR_H_
