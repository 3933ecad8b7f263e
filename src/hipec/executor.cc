#include "hipec/executor.h"

#include <algorithm>
#include <cstdio>

#include "sim/check.h"

namespace hipec::core {
namespace {

// Internal signal: the security checker asked for this execution to die.
struct TimeoutSignal {};

// The dispatch loop (dispatch_loop.inc) has a handler and a jump-table entry per
// DispatchKind; this fires when someone grows the IR without teaching the interpreter the
// new kind.
static_assert(kDispatchKindCount == 57,
              "new DispatchKind: add a handler (and jump-table entry) to dispatch_loop.inc "
              "and update this tripwire");

// Interned counter ids: the per-event bookkeeping in ExecuteEvent and the replacement-policy
// commands run on every fault, so they must not pay a string-keyed lookup.
const sim::CounterId kCtrPolicyErrors = sim::InternCounter("executor.policy_errors");
const sim::CounterId kCtrTimeouts = sim::InternCounter("executor.timeouts");
const sim::CounterId kCtrEvents = sim::InternCounter("executor.events");
const sim::CounterId kCtrCommands = sim::InternCounter("executor.commands");
const sim::CounterId kCtrPolicyCommands = sim::InternCounter("executor.policy_commands");
// JIT-path bookkeeping: events that entered RunEventJit, and the subset that fell back to
// the interpreter (no compiled code: unsupported host, masked kind, compile failure).
const sim::CounterId kCtrJitEvents = sim::InternCounter("executor.jit_events");
const sim::CounterId kCtrJitFallbacks = sim::InternCounter("executor.jit_fallbacks");

// Probe ids: histograms of per-event virtual latency and command counts. Recording is gated
// behind obs::ProbesEnabled() so the fault path pays one predicted branch when observability
// is off.
const obs::ProbeId kPrbEventNs = obs::InternProbe("executor.event_ns");
const obs::ProbeId kPrbEventCommands = obs::InternProbe("executor.event_commands");

// Arith's add, sub and mul wrap in two's complement, as the JIT's native add/sub/imul do;
// computed through uint64_t so overflow is defined behavior on every path.
inline int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) + static_cast<uint64_t>(b));
}
inline int64_t WrapSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) - static_cast<uint64_t>(b));
}
inline int64_t WrapMul(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) * static_cast<uint64_t>(b));
}

// AgeScores packs the policy value above the pass position: word = value * 1024 + position.
constexpr int64_t kAgePositionBase = 1024;

// A command kernel's run-time check failed. Out of line, so the kernels stay small enough
// for the IR loop to inline.
[[noreturn]] void FailCommand(const char* message) { throw PolicyError(message); }

}  // namespace

// snprintf into a stack buffer: raising a PolicyError must not drag stream machinery into the
// interpreter's translation unit or allocate before the throw.
void FailOperand(uint8_t index, const char* message) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "operand 0x%x: %s", index, message);
  throw PolicyError(buf);
}

// Saturating arithmetic, written against unsigned wraparound (well-defined) plus explicit
// overflow detection so it compiles cleanly under UBSan on every supported compiler.
int64_t SatAdd64(int64_t a, int64_t b) {
  uint64_t ua = static_cast<uint64_t>(a);
  uint64_t ub = static_cast<uint64_t>(b);
  uint64_t sum = ua + ub;
  // Overflow iff the operands share a sign the result does not.
  if (((ua ^ sum) & (ub ^ sum)) >> 63 != 0) {
    return a < 0 ? INT64_MIN : INT64_MAX;
  }
  return static_cast<int64_t>(sum);
}

int64_t SatMul64(int64_t a, int64_t b) {
  if (a == 0 || b == 0) {
    return 0;
  }
  // The two cases where the post-hoc division check below would itself overflow.
  if ((a == -1 && b == INT64_MIN) || (b == -1 && a == INT64_MIN)) {
    return INT64_MAX;
  }
  uint64_t up = static_cast<uint64_t>(a) * static_cast<uint64_t>(b);
  int64_t p = static_cast<int64_t>(up);
  if (p / a != b) {
    return ((a < 0) != (b < 0)) ? INT64_MIN : INT64_MAX;
  }
  return p;
}

int64_t SatDotSlots(const OperandEntry* slots, uint8_t base, int n) {
  int64_t acc = 0;
  for (int i = 0; i < n; ++i) {
    int64_t weight = LoadInt(slots[base + i]);
    int64_t feature = LoadInt(slots[base + n + i]);
    acc = SatAdd64(acc, SatMul64(weight, feature));
  }
  return acc;
}

// ----------------------------------------------------------------------------------------
// Command kernels (executor.h). Defined here, beside the IR loop, so its handlers can inline
// them (GCC 12 at -O3 inlines all but Find); the JIT bridges call the out-of-line copies.
// ----------------------------------------------------------------------------------------

void DeQueueCommand(OperandEntry& dst, mach::PageQueue* queue, bool tail) {
  mach::VmPage* page = tail ? queue->DequeueTail() : queue->DequeueHead();
  if (page == nullptr) {
    FailCommand("DeQueue from an empty queue (guard with EmptyQ or a count)");
  }
  dst.page = page;
}

void EnQueueCommand(Container* c, uint8_t index, const OperandEntry& var,
                    mach::PageQueue* queue, bool tail, sim::Nanos now) {
  mach::VmPage* page = RequirePage(index, var);
  if (page->owner != c) {
    FailCommand("EnQueue of a frame the application does not own");
  }
  if (page->queue != nullptr) {
    FailCommand("EnQueue of a page that is already on a queue");
  }
  if (tail) {
    queue->EnqueueTail(page, now);
  } else {
    queue->EnqueueHead(page, now);
  }
}

bool RequestCommand(GlobalFrameManager* manager, Container* c, int64_t n,
                    mach::PageQueue* dest) {
  if (n < 0) {
    FailCommand("Request: negative size");
  }
  return manager->RequestFrames(c, static_cast<size_t>(n), dest);
}

bool ReleaseQueueCommand(GlobalFrameManager* manager, Container* c, mach::PageQueue* queue) {
  mach::VmPage* page = queue->DequeueHead();
  if (page == nullptr) {
    return false;
  }
  manager->ReleaseFrame(c, page);
  return true;
}

bool ReleasePageCommand(GlobalFrameManager* manager, Container* c, OperandEntry& var) {
  mach::VmPage* page = var.page;
  if (page == nullptr) {
    return false;  // an empty variable is not an error: the condition just stays false
  }
  if (page->owner != c) {
    FailCommand("Release of a frame the application does not own");
  }
  if (page->queue != nullptr) {
    FailCommand("Release of a page still on a queue (DeQueue it first)");
  }
  manager->ReleaseFrame(c, page);
  var.page = nullptr;
  return true;
}

bool FlushCommand(GlobalFrameManager* manager, Container* c, uint8_t index, OperandEntry& var) {
  mach::VmPage* page = RequirePage(index, var);
  if (page->owner != c) {
    FailCommand("Flush of a frame the application does not own");
  }
  if (page->queue != nullptr) {
    FailCommand("Flush of a page still on a queue (DeQueue it first)");
  }
  var.page = manager->FlushExchange(c, page);
  return true;
}

bool FindCommand(Container* c, OperandEntry& dst, int64_t vaddr) {
  const auto addr = static_cast<uint64_t>(vaddr);
  mach::VmMapEntry* entry = c->task()->map().Lookup(addr);
  mach::VmPage* page = nullptr;
  if (entry != nullptr && entry->object == c->object()) {
    page = c->object()->Lookup(entry->OffsetOf(addr));
  }
  dst.page = page;
  return page != nullptr && page->owner == c;
}

bool MigrateCommand(GlobalFrameManager* manager, Container* c, uint8_t index,
                    OperandEntry& var, int64_t target) {
  mach::VmPage* page = RequirePage(index, var);
  if (page->owner != c) {
    FailCommand("Migrate of a frame the application does not own");
  }
  if (page->queue != nullptr) {
    FailCommand("Migrate of a page still on a queue (DeQueue it first)");
  }
  if (!manager->MigrateFrame(c, page, static_cast<uint64_t>(target))) {
    return false;
  }
  var.page = nullptr;
  return true;
}

void UnlinkCommand(Container* c, uint8_t index, const OperandEntry& var) {
  mach::VmPage* page = RequirePage(index, var);
  if (page->owner != c) {
    FailCommand("Unlink of a frame the application does not own");
  }
  if (page->queue == nullptr) {
    FailCommand("Unlink of a page that is not on a queue");
  }
  page->queue.load()->Remove(page);
}

mach::VmPage* SelectVictim(mach::PageQueue* queue, Opcode policy) {
  if (queue->empty()) {
    FailCommand("replacement-policy command on an empty queue");
  }
  if (policy == Opcode::kFifo) {
    return queue->DequeueHead();  // arrival order: the head is the oldest
  }
  mach::VmPage* best = queue->head();
  for (mach::VmPage* p = best->q_next; p != nullptr; p = p->q_next) {
    // LRU keeps the first of equal stamps (`<`), MRU the last (`>=`).
    if (policy == Opcode::kLru ? p->last_reference_ns < best->last_reference_ns
                               : p->last_reference_ns >= best->last_reference_ns) {
      best = p;
    }
  }
  queue->Remove(best);
  return best;
}

mach::VmPage* SelectByWord(mach::PageQueue* queue, bool want_max) {
  if (queue->empty()) {
    FailCommand("replacement-policy command on an empty queue");
  }
  mach::VmPage* best = queue->head();
  for (mach::VmPage* p = best->q_next; p != nullptr; p = p->q_next) {
    // Strict comparisons: ties keep the page nearest the head.
    if (want_max ? p->user_word > best->user_word : p->user_word < best->user_word) {
      best = p;
    }
  }
  queue->Remove(best);
  return best;
}

void AgeScoresQueue(mach::PageQueue* queue, OperandEntry* slots, uint8_t param, AgeMode mode) {
  auto position = static_cast<int64_t>(queue->count());
  if (mode == AgeMode::kAwrp) {
    const int64_t reward = LoadInt(slots[param]);
    for (mach::VmPage* p = queue->head(); p != nullptr; p = p->q_next, --position) {
      int64_t value = p->user_word / kAgePositionBase;
      if (p->reference.load(std::memory_order_relaxed)) {
        value = WrapAdd(value, reward);
        p->reference.store(false, std::memory_order_relaxed);
      } else if (value > 0) {
        --value;
      }
      p->user_word = WrapAdd(WrapMul(value, kAgePositionBase), position);
    }
    return;
  }
  const int64_t w_ref = LoadInt(slots[param]);
  const int64_t w_dirty = LoadInt(slots[param + 1]);
  const int64_t w_bias = LoadInt(slots[param + 2]);
  int64_t votes = 0;
  for (mach::VmPage* p = queue->head(); p != nullptr; p = p->q_next, --position) {
    const int64_t rest = p->user_word / kAgePositionBase;
    const int64_t predicted = rest % 2;
    int64_t accum = rest / 2;
    const int64_t referenced = p->reference.load(std::memory_order_relaxed) ? 1 : 0;
    p->reference.store(false, std::memory_order_relaxed);
    if (referenced > predicted) {
      ++votes;
    } else if (predicted > referenced) {
      --votes;
    }
    const int64_t score =
        SatAdd64(SatAdd64(SatMul64(w_ref, referenced), SatMul64(w_dirty, p->modified ? 1 : 0)),
                 w_bias);
    if (accum > 0) {
      --accum;
    }
    accum = WrapAdd(WrapMul(WrapAdd(accum, score), 2), referenced);
    p->user_word = WrapAdd(WrapMul(accum, kAgePositionBase), position);
  }
  slots[param + 3].int_value = votes;
}

thread_local bool PolicyExecutor::condition_ = false;

PolicyExecutor::PolicyExecutor(mach::Kernel* kernel, GlobalFrameManager* manager)
    : kernel_(kernel), manager_(manager) {
  // No jit::Available() gate here: on hosts without an emitter Compile() returns null and
  // every event takes the (counted, test-covered) per-event fallback to the interpreter.
  if (kernel_->params().jit_mode) {
    mode_ = DispatchMode::kJit;
  }
  // In real-threads mode the security checker is a wall-clock thread and must win the race
  // against a runaway policy; at the JIT's ~1-2 ns/command the deterministic-mode default of
  // 50M commands would fire around the checker's 50 ms fuse and steal its kill. Seconds of
  // host CPU on any engine, still a real backstop.
  if (kernel_->concurrent()) {
    max_commands_ = 2'000'000'000;
  }
}

void PolicyExecutor::EnableConcurrent() {
  counters_.EnableConcurrent();
  probes_.EnableConcurrent();
}

ExecResult PolicyExecutor::ExecuteEvent(Container* container, int event) {
  ExecResult result;
  // Dispatch: container lookup, CC reset, timestamp write (§4.3.2).
  kernel_->ctx().Charge(kernel_->costs().policy_invoke_ns);
  const sim::Nanos start_ns = kernel_->ctx().now();
  // Relaxed stores: these fields are watchdog state the security checker polls from another
  // thread (real-threads mode) or reads in-thread (deterministic mode). The checker's
  // runaway detection is a heuristic over a racing snapshot by design, so it needs the
  // values to arrive, not an ordering — and the default seq_cst stores cost a full fence
  // each on x86, which at five stores per event was the single largest slice of the
  // per-event dispatch overhead.
  container->exec_start_ns.store(start_ns, std::memory_order_relaxed);
  container->executing_event.store(event, std::memory_order_relaxed);
  container->kill_requested.store(false, std::memory_order_relaxed);

  // Nested executions (a Request triggering another container's ReclaimFrame) share this
  // executor; keep their condition flags independent.
  bool saved_condition = condition_;
  condition_ = false;

  int64_t budget = max_commands_;
  try {
    switch (mode_) {
      case DispatchMode::kDecodedIr:
        result.return_operand = RunEventIr(container, event, /*depth=*/0, &budget);
        break;
      case DispatchMode::kJit:
        result.return_operand = RunEventJit(container, event, /*depth=*/0, &budget);
        break;
      case DispatchMode::kReferenceSwitch:
        result.return_operand = RunEventSwitch(container, event, /*depth=*/0, &budget);
        break;
    }
  } catch (const PolicyError& e) {
    result.outcome = ExecOutcome::kError;
    result.error = e.what();
    counters_.Add(kCtrPolicyErrors);
  } catch (const TimeoutSignal&) {
    result.outcome = ExecOutcome::kTimeout;
    result.error = "policy execution timed out";
    counters_.Add(kCtrTimeouts);
  }

  condition_ = saved_condition;
  result.commands_executed = max_commands_ - budget;
  container->commands_executed += result.commands_executed;
  if (obs::ProbesEnabled()) {
    probes_.Record(kPrbEventNs, kernel_->ctx().now() - start_ns);
    probes_.Record(kPrbEventCommands, result.commands_executed);
  }
  container->exec_start_ns.store(-1, std::memory_order_relaxed);
  container->executing_event.store(-1, std::memory_order_relaxed);
  // The tracer is off unless a test/scenario enabled it; evaluating Record's arguments costs
  // a clock read, so gate the whole call rather than relying on its internal enabled check.
  sim::Tracer& tracer = kernel_->tracer();
  if (tracer.enabled()) [[unlikely]] {
    tracer.Record(kernel_->ctx().now(), sim::TraceCategory::kPolicy,
                  static_cast<uint16_t>(result.outcome), container->id(),
                  static_cast<uint64_t>(event));
  }
  counters_.Add(kCtrEvents);
  counters_.Add(kCtrCommands, result.commands_executed);
  return result;
}

// ----------------------------------------------------------------------------------------
// Production path: computed-goto dispatch over the decode-once IR. Per command: one trap
// check, the checker/backstop guards, the decode-cost charge, and one indirect jump through
// the handler table; operator decode, operand classification and branch bounds checks all
// happened at install time, and the fusion pass folded hot adjacent pairs into
// superinstructions. The loop body lives in dispatch_loop.inc.
// ----------------------------------------------------------------------------------------

#include "hipec/dispatch_loop.inc"  // NOLINT(build/include)

// ----------------------------------------------------------------------------------------
// JIT path: runs install-time-compiled native code (jit.h), falling back to the IR
// interpreter when the container has no compiled code for the event. The compiled code
// returns a JitStatus that this wrapper converts back into the interpreter's control flow —
// normal return, PolicyError, TimeoutSignal — so callers cannot tell the paths apart.
// ----------------------------------------------------------------------------------------

uint8_t PolicyExecutor::RunEventJit(Container* c, int event, int depth, int64_t* budget) {
  if (depth > 8) {
    throw PolicyError("Activate recursion too deep");
  }
  const jit::JitProgram* jp = c->jit_program();
  if (jp == nullptr && !c->jit_compile_attempted()) [[unlikely]] {
    // Direct harnesses (tests, benchmarks) that never went through the engine's install
    // path: compile lazily, mirroring the container's lazy decode. decoded_program() forces
    // that decode if it has not happened yet.
    const DecodedProgram& program = c->decoded_program();
    jit::CompileOptions opts;
    opts.deterministic = kernel_->ctx().vclock != nullptr;
    opts.decode_ns = kernel_->costs().command_decode_ns;
    opts.complex_ns = kernel_->costs().complex_command_ns;
    c->AdoptJitProgram(jit::Compile(program, c->operands(), opts));
    jp = c->jit_program();
  }
  counters_.Add(kCtrJitEvents);
  const jit::JitEventCode* code = jp != nullptr ? jp->Code(event) : nullptr;
  if (code == nullptr) {
    // No compiled code: event absent or ineligible, kind masked out, or no emitter on this
    // host. The interpreter re-runs the event-presence check, so an Activate of an undefined
    // event raises the identical PolicyError it always did.
    counters_.Add(kCtrJitFallbacks);
    return RunEventIr(c, event, depth, budget);
  }

  sim::VirtualClock* vclock = kernel_->ctx().vclock;
  jit::JitFrame frame;
  frame.slots = c->operands().slots();
  frame.budget = budget;
  frame.condition = &condition_;
  frame.kill = &c->kill_requested;
  frame.trace = trace_;
  frame.executor = this;
  frame.container = c;
  frame.event = event;
  frame.depth = depth;
  if (vclock != nullptr) {
    frame.now_addr = vclock->now_storage();
    frame.horizon = vclock->charge_horizon();
  }

  const uint64_t status = code->entry(&frame);
  switch (static_cast<jit::JitStatus>(status)) {
    case jit::JitStatus::kReturn:
      return static_cast<uint8_t>(frame.return_operand);
    case jit::JitStatus::kBudget:
      // The interpreter's budget guard sets the kill flag before throwing (dispatch_loop.inc
      // treats exhaustion exactly like a checker kill); match it.
      c->kill_requested = true;
      [[fallthrough]];
    case jit::JitStatus::kKill:
      throw TimeoutSignal{};
    case jit::JitStatus::kException:
      std::rethrow_exception(frame.pending);
    case jit::JitStatus::kErrorStatic:
      throw PolicyError(frame.error_msg);
    case jit::JitStatus::kErrorOperand: {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "operand 0x%x: %s", frame.error_operand,
                    frame.error_msg);
      throw PolicyError(buf);
    }
    case jit::JitStatus::kErrorTrap:
      throw PolicyError(c->decoded_program().event(event).traps[frame.trap_index]);
  }
  throw PolicyError("JIT returned an unknown status");
}

// ----------------------------------------------------------------------------------------
// Reference path: the pre-IR interpreter that re-decodes each raw word and re-classifies
// operands on every event, through the typed OperandArray accessors. It is the oracle the
// dual-path tests check the IR loop and the JIT against, so its stateful commands keep
// bodies of their own rather than calling the command kernels.
// ----------------------------------------------------------------------------------------

uint8_t PolicyExecutor::RunEventSwitch(Container* c, int event, int depth, int64_t* budget) {
  if (depth > 8) {
    throw PolicyError("Activate recursion too deep");
  }
  if (!c->program().HasEvent(event)) {
    throw PolicyError("Activate of an undefined event");
  }
  const EventProgram& stream = c->program().event(event);
  const sim::CostModel& costs = kernel_->costs();

  size_t cc = 1;  // word 0 is the magic number
  for (;;) {
    if (cc >= stream.words.size() || cc == 0) {
      throw PolicyError("control fell outside the command stream");
    }
    if (c->kill_requested) {
      throw TimeoutSignal{};
    }
    if (--(*budget) < 0) {
      // Host backstop; semantically equivalent to the checker firing.
      c->kill_requested = true;
      throw TimeoutSignal{};
    }
    kernel_->ctx().Charge(costs.command_decode_ns);
    Instruction inst = Instruction::Decode(stream.words[cc]);

    const size_t executed_cc = cc;  // kJump overwrites cc; the trace reports the jump's own CC
    bool jumped = false;
    switch (inst.op) {
      case Opcode::kReturn:
        if (trace_ != nullptr) {
          trace_->push_back(ExecTrace{event, static_cast<uint16_t>(cc),
                                      static_cast<uint8_t>(inst.op), condition_});
        }
        return inst.op1;
      case Opcode::kJump:
        if (!condition_) {
          cc = inst.op3;
          jumped = true;
        }
        break;
      case Opcode::kActivate:
        RunEventSwitch(c, inst.op1, depth + 1, budget);
        break;
      case Opcode::kArith:
        DoArith(c, inst);
        break;
      case Opcode::kComp:
        DoComp(c, inst);
        break;
      case Opcode::kLogic:
        DoLogic(c, inst);
        break;
      case Opcode::kEmptyQ:
        condition_ = c->operands().ReadQueue(inst.op1)->empty();
        break;
      case Opcode::kInQ:
        condition_ = c->operands().ReadQueue(inst.op1)->Contains(
            c->operands().ReadPage(inst.op2));
        break;
      case Opcode::kDeQueue:
        DoDeQueue(c, inst);
        break;
      case Opcode::kEnQueue:
        DoEnQueue(c, inst);
        break;
      case Opcode::kRequest:
        DoRequest(c, inst);
        break;
      case Opcode::kRelease:
        DoRelease(c, inst);
        break;
      case Opcode::kFlush:
        DoFlush(c, inst);
        break;
      case Opcode::kSet:
        DoSet(c, inst);
        break;
      case Opcode::kRef:
        condition_ =
            c->operands().ReadPage(inst.op1)->reference.load(std::memory_order_relaxed);
        break;
      case Opcode::kMod:
        condition_ = c->operands().ReadPage(inst.op1)->modified;
        break;
      case Opcode::kFind:
        DoFind(c, inst);
        break;
      case Opcode::kFifo:
      case Opcode::kLru:
      case Opcode::kMru:
        kernel_->ctx().Charge(costs.complex_command_ns);
        DoReplacementPolicy(c, inst);
        break;
      case Opcode::kMigrate: {
        mach::VmPage* page = c->operands().ReadPage(inst.op1);
        if (page->owner != c) {
          throw PolicyError("Migrate of a frame the application does not own");
        }
        if (page->queue != nullptr) {
          throw PolicyError("Migrate of a page still on a queue (DeQueue it first)");
        }
        int64_t target = c->operands().ReadInt(inst.op2);
        condition_ = manager_->MigrateFrame(c, page, static_cast<uint64_t>(target));
        if (condition_) {
          c->operands().WritePage(inst.op1, nullptr);
        }
        break;
      }
      case Opcode::kUnlink: {
        mach::VmPage* page = c->operands().ReadPage(inst.op1);
        if (page->owner != c) {
          throw PolicyError("Unlink of a frame the application does not own");
        }
        if (page->queue == nullptr) {
          throw PolicyError("Unlink of a page that is not on a queue");
        }
        page->queue.load()->Remove(page);
        break;
      }
      case Opcode::kWeightedSelect:
        kernel_->ctx().Charge(costs.complex_command_ns);
        DoWeightedSelect(c, inst);
        break;
      case Opcode::kAgeScores:
        kernel_->ctx().Charge(costs.complex_command_ns);
        DoAgeScores(c, inst);
        break;
      case Opcode::kSatDotProduct:
        DoSatDotProduct(c, inst);
        break;
      case Opcode::kPageWord:
        DoPageWord(c, inst);
        break;
      default:
        throw PolicyError("invalid operator code reached the executor");
    }

    if (!SetsCondition(inst.op)) {
      // Non-test commands clear the condition flag (see instruction.h); test commands have
      // just set it in their handlers.
      condition_ = false;
    }
    if (trace_ != nullptr) {
      trace_->push_back(ExecTrace{event, static_cast<uint16_t>(executed_cc),
                                  static_cast<uint8_t>(inst.op), condition_});
    }
    if (!jumped) {
      ++cc;
    }
  }
}

void PolicyExecutor::DoArith(Container* c, const Instruction& inst) {
  OperandArray& ops = c->operands();
  auto arith = static_cast<ArithOp>(inst.op3);
  if (arith == ArithOp::kLoadImm) {
    ops.WriteInt(inst.op1, inst.op2);
    return;
  }
  int64_t lhs = ops.ReadInt(inst.op1);
  int64_t rhs = ops.ReadInt(inst.op2);
  int64_t out;
  switch (arith) {
    case ArithOp::kAdd:
      out = WrapAdd(lhs, rhs);
      break;
    case ArithOp::kSub:
      out = WrapSub(lhs, rhs);
      break;
    case ArithOp::kMul:
      out = WrapMul(lhs, rhs);
      break;
    case ArithOp::kDiv:
      if (rhs == 0) {
        throw PolicyError("Arith: division by zero");
      }
      out = lhs / rhs;
      break;
    case ArithOp::kMod:
      if (rhs == 0) {
        throw PolicyError("Arith: modulo by zero");
      }
      out = lhs % rhs;
      break;
    case ArithOp::kMov:
      out = rhs;
      break;
    default:
      throw PolicyError("Arith: invalid sub-operation");
  }
  ops.WriteInt(inst.op1, out);
}

void PolicyExecutor::DoComp(Container* c, const Instruction& inst) {
  OperandArray& ops = c->operands();
  int64_t lhs = ops.ReadInt(inst.op1);
  int64_t rhs = ops.ReadInt(inst.op2);
  switch (static_cast<CompOp>(inst.op3)) {
    case CompOp::kGt:
      condition_ = lhs > rhs;
      break;
    case CompOp::kLt:
      condition_ = lhs < rhs;
      break;
    case CompOp::kEq:
      condition_ = lhs == rhs;
      break;
    case CompOp::kNe:
      condition_ = lhs != rhs;
      break;
    case CompOp::kGe:
      condition_ = lhs >= rhs;
      break;
    case CompOp::kLe:
      condition_ = lhs <= rhs;
      break;
    default:
      throw PolicyError("Comp: invalid sub-operation");
  }
}

void PolicyExecutor::DoLogic(Container* c, const Instruction& inst) {
  OperandArray& ops = c->operands();
  bool rhs = ops.ReadInt(inst.op2) != 0;
  bool out;
  switch (static_cast<LogicOp>(inst.op3)) {
    case LogicOp::kAnd:
      out = (ops.ReadInt(inst.op1) != 0) && rhs;
      break;
    case LogicOp::kOr:
      out = (ops.ReadInt(inst.op1) != 0) || rhs;
      break;
    case LogicOp::kXor:
      out = (ops.ReadInt(inst.op1) != 0) != rhs;
      break;
    case LogicOp::kNot:
      out = !rhs;
      break;
    default:
      throw PolicyError("Logic: invalid sub-operation");
  }
  ops.WriteInt(inst.op1, out ? 1 : 0);
  condition_ = out;
}

void PolicyExecutor::DoSet(Container* c, const Instruction& inst) {
  mach::VmPage* page = c->operands().ReadPage(inst.op1);
  bool value = inst.op3 != 0;
  switch (static_cast<PageBit>(inst.op2)) {
    case PageBit::kReference:
      page->reference.store(value, std::memory_order_relaxed);
      break;
    case PageBit::kModify:
      page->modified = value;
      break;
    default:
      throw PolicyError("Set: invalid bit selector");
  }
}

void PolicyExecutor::DoDeQueue(Container* c, const Instruction& inst) {
  mach::PageQueue* queue = c->operands().ReadQueue(inst.op2);
  mach::VmPage* page = static_cast<QueueEnd>(inst.op3) == QueueEnd::kTail
                           ? queue->DequeueTail()
                           : queue->DequeueHead();
  if (page == nullptr) {
    throw PolicyError("DeQueue from an empty queue (guard with EmptyQ or a count)");
  }
  c->operands().WritePage(inst.op1, page);
}

void PolicyExecutor::DoEnQueue(Container* c, const Instruction& inst) {
  mach::VmPage* page = c->operands().ReadPage(inst.op1);
  if (page->owner != c) {
    throw PolicyError("EnQueue of a frame the application does not own");
  }
  if (page->queue != nullptr) {
    throw PolicyError("EnQueue of a page that is already on a queue");
  }
  mach::PageQueue* queue = c->operands().ReadQueue(inst.op2);
  if (static_cast<QueueEnd>(inst.op3) == QueueEnd::kTail) {
    queue->EnqueueTail(page, kernel_->ctx().now());
  } else {
    queue->EnqueueHead(page, kernel_->ctx().now());
  }
}

void PolicyExecutor::DoRequest(Container* c, const Instruction& inst) {
  int64_t n = c->operands().ReadInt(inst.op1);
  if (n < 0) {
    throw PolicyError("Request: negative size");
  }
  mach::PageQueue* dest = c->operands().ReadQueue(inst.op2);
  condition_ = manager_->RequestFrames(c, static_cast<size_t>(n), dest);
}

void PolicyExecutor::DoRelease(Container* c, const Instruction& inst) {
  OperandArray& ops = c->operands();
  if (ops.TypeOf(inst.op1) == OperandType::kQueue) {
    mach::VmPage* page = ops.ReadQueue(inst.op1)->DequeueHead();
    if (page == nullptr) {
      condition_ = false;
      return;
    }
    manager_->ReleaseFrame(c, page);
    condition_ = true;
    return;
  }
  mach::VmPage* page = ops.ReadPageOrNull(inst.op1);
  if (page == nullptr) {
    condition_ = false;
    return;
  }
  if (page->owner != c) {
    throw PolicyError("Release of a frame the application does not own");
  }
  if (page->queue != nullptr) {
    throw PolicyError("Release of a page still on a queue (DeQueue it first)");
  }
  manager_->ReleaseFrame(c, page);
  ops.WritePage(inst.op1, nullptr);
  condition_ = true;
}

void PolicyExecutor::DoFlush(Container* c, const Instruction& inst) {
  mach::VmPage* page = c->operands().ReadPage(inst.op1);
  if (page->owner != c) {
    throw PolicyError("Flush of a frame the application does not own");
  }
  if (page->queue != nullptr) {
    throw PolicyError("Flush of a page still on a queue (DeQueue it first)");
  }
  mach::VmPage* replacement = manager_->FlushExchange(c, page);
  c->operands().WritePage(inst.op1, replacement);
  condition_ = true;
}

void PolicyExecutor::DoFind(Container* c, const Instruction& inst) {
  auto vaddr = static_cast<uint64_t>(c->operands().ReadInt(inst.op2));
  mach::VmMapEntry* entry = c->task()->map().Lookup(vaddr);
  mach::VmPage* page = nullptr;
  if (entry != nullptr && entry->object == c->object()) {
    page = c->object()->Lookup(entry->OffsetOf(vaddr));
  }
  c->operands().WritePage(inst.op1, page);
  condition_ = page != nullptr && page->owner == c;
}

void PolicyExecutor::DoWeightedSelect(Container* c, const Instruction& inst) {
  mach::PageQueue* queue = c->operands().ReadQueue(inst.op1);
  auto mode = static_cast<SelectMode>(inst.op3);
  if (mode != SelectMode::kMin && mode != SelectMode::kMax) {
    // Same text the decode-time classifier traps with, so the dual paths agree.
    throw PolicyError("WeightedSelect mode: flag out of range");
  }
  c->operands().WritePage(inst.op2, SelectByWord(queue, mode == SelectMode::kMax));
  counters_.Add(kCtrPolicyCommands);
}

void PolicyExecutor::DoAgeScores(Container* c, const Instruction& inst) {
  OperandArray& ops = c->operands();
  mach::PageQueue* queue = ops.ReadQueue(inst.op1);
  auto mode = static_cast<AgeMode>(inst.op3);
  if (mode != AgeMode::kAwrp && mode != AgeMode::kPerceptron) {
    throw PolicyError("AgeScores mode: flag out of range");
  }
  const bool perceptron = mode == AgeMode::kPerceptron;
  if (perceptron && static_cast<int>(inst.op2) + 4 > 256) {
    throw PolicyError("AgeScores operands: parameter run past the operand array");
  }
  // Typed reads and a typed write so kind misuse fails like every other reference command;
  // the kernel then works on the proven slots.
  for (int i = 0; i < (perceptron ? 3 : 1); ++i) {
    ops.ReadInt(static_cast<uint8_t>(inst.op2 + i));
  }
  if (perceptron) {
    ops.WriteInt(static_cast<uint8_t>(inst.op2 + 3), 0);
  }
  AgeScoresQueue(queue, ops.slots(), inst.op2, mode);
}

void PolicyExecutor::DoSatDotProduct(Container* c, const Instruction& inst) {
  OperandArray& ops = c->operands();
  int n = inst.op3;
  if (n < 1 || n > kMaxDotWidth) {
    throw PolicyError("SatDotProduct width: flag out of range");
  }
  if (static_cast<int>(inst.op2) + 2 * n > 256) {
    throw PolicyError("SatDotProduct operands: vector runs past the operand array");
  }
  int64_t acc = 0;
  for (int i = 0; i < n; ++i) {
    int64_t weight = ops.ReadInt(static_cast<uint8_t>(inst.op2 + i));
    int64_t feature = ops.ReadInt(static_cast<uint8_t>(inst.op2 + n + i));
    acc = SatAdd64(acc, SatMul64(weight, feature));
  }
  ops.WriteInt(inst.op1, acc);
}

void PolicyExecutor::DoPageWord(Container* c, const Instruction& inst) {
  OperandArray& ops = c->operands();
  mach::VmPage* page = ops.ReadPage(inst.op1);
  switch (static_cast<PageWordOp>(inst.op3)) {
    case PageWordOp::kLoad:
      ops.WriteInt(inst.op2, page->user_word);
      break;
    case PageWordOp::kStore:
      page->user_word = ops.ReadInt(inst.op2);
      break;
    default:
      throw PolicyError("PageWord op: flag out of range");
  }
}

void PolicyExecutor::DoReplacementPolicy(Container* c, const Instruction& inst) {
  mach::VmPage* victim = SelectVictim(c->operands().ReadQueue(inst.op1), inst.op);
  c->operands().WritePage(inst.op2, victim);
  counters_.Add(kCtrPolicyCommands);
}

}  // namespace hipec::core
