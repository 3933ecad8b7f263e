// Dual-path equivalence tests: every policy must behave byte-for-byte identically under the
// decoded-IR interpreter, the JIT and the pre-IR reference switch interpreter (the oracle,
// with command bodies of its own) — same command-by-command trace (CC sequence, operator,
// condition flag after each command), same outcome, same Return operand, same error text.
// Also the executor error-path tests that must surface as ExecOutcome::kError with a useful
// message (never undefined behavior): out-of-range jump targets, truncated streams,
// operand-kind misuse, and every stateful command's run-time checks.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "hipec/builder.h"
#include "hipec/engine.h"
#include "hipec/executor.h"
#include "hipec/frame_manager.h"
#include "hipec/jit.h"
#include "hipec/validator.h"
#include "mach/kernel.h"
#include "policies/policies.h"

namespace hipec::core {

void PrintTo(const ExecTrace& t, std::ostream* os) {
  *os << "{event=" << t.event << " cc=" << t.cc << " op=" << static_cast<int>(t.opcode)
      << " cond=" << t.condition << "}";
}

namespace {

namespace ops = std_ops;
using mach::kPageSize;

mach::KernelParams SmallParams() {
  mach::KernelParams params;
  params.total_frames = 512;
  params.kernel_reserved_frames = 64;
  params.pageout.free_target = 16;
  params.pageout.free_min = 4;
  params.hipec_build = true;
  return params;
}

// A self-contained kernel + executor pinned to one dispatch mode. Each parity check builds
// two of these so both interpreters start from identical virtual time and frame-pool state.
struct World {
  mach::Kernel kernel;
  GlobalFrameManager manager;
  PolicyExecutor executor;
  std::vector<std::unique_ptr<Container>> containers;
  std::vector<ExecTrace> trace;

  explicit World(DispatchMode mode)
      : kernel(SmallParams()), manager(&kernel, FrameManagerConfig{0.5, 16}),
        executor(&kernel, &manager) {
    executor.set_dispatch_mode(mode);
    executor.set_trace_sink(&trace);
  }

  Container* MakeContainer(PolicyProgram program, HipecOptions options = {}) {
    mach::Task* task = kernel.CreateTask("app");
    mach::VmObject* object = kernel.CreateAnonObject(64 * kPageSize);
    containers.push_back(std::make_unique<Container>(
        containers.size() + 1, task, object, std::move(program), options.min_frames,
        options.timeout_ns > 0 ? options.timeout_ns : kernel.costs().policy_timeout_ns));
    Container* c = containers.back().get();
    SetupStandardOperands(c, options);
    if (options.min_frames > 0) {
      EXPECT_TRUE(manager.AdmitContainer(c));
    }
    return c;
  }
};

PolicyProgram OneEvent(std::vector<Instruction> commands) {
  PolicyProgram p;
  p.SetEvent(kEventPageFault, commands);
  EventBuilder reclaim;
  reclaim.Return(0);
  p.SetEvent(kEventReclaimFrame, reclaim.Build());
  return p;
}

// Runs one event in both worlds and checks the results agree. Traces are compared by the
// caller once the whole scenario has run.
void RunBothAndCompare(World& ir, Container* ca, World& sw, Container* cb, int event,
                       ExecResult* out = nullptr) {
  ExecResult ra = ir.executor.ExecuteEvent(ca, event);
  ExecResult rb = sw.executor.ExecuteEvent(cb, event);
  EXPECT_EQ(ra.outcome, rb.outcome) << ra.error << " vs " << rb.error;
  EXPECT_EQ(ra.error, rb.error);
  EXPECT_EQ(ra.return_operand, rb.return_operand);
  EXPECT_EQ(ra.commands_executed, rb.commands_executed);
  if (out != nullptr) {
    *out = ra;
  }
}

void ExpectTracesIdentical(const World& ir, const World& sw) {
  ASSERT_EQ(ir.trace.size(), sw.trace.size());
  for (size_t i = 0; i < ir.trace.size(); ++i) {
    EXPECT_EQ(ir.trace[i], sw.trace[i]) << "first divergence at trace index " << i;
  }
}

// One interpreter configuration for a parity check: which loop runs, and whether the stream
// was decoded with superinstruction fusion. The default is the production path.
struct PathConfig {
  DispatchMode mode = DispatchMode::kDecodedIr;
  bool fuse = true;
};

Container* MakePathContainer(World& w, PolicyProgram program, const HipecOptions& options,
                             const PathConfig& config) {
  Container* c = w.MakeContainer(std::move(program), options);
  if (!config.fuse) {
    c->AdoptDecodedProgram(
        DecodePolicy(c->program(), c->operands(), nullptr, /*fuse_superinstructions=*/false));
  }
  return c;
}

// Drives a policy the way the engine does — repeated PageFaults with the returned frame
// pushed onto the active queue, reference/modify bits toggled deterministically, then a
// ReclaimFrame pass — far enough to drain the free list and exercise the replacement path.
void ExerciseTable2PolicyPaths(const std::function<PolicyProgram()>& make_program,
                               HipecOptions options, const PathConfig& a,
                               const PathConfig& b) {
  World ir(a.mode);
  World sw(b.mode);
  Container* ca = MakePathContainer(ir, make_program(), options, a);
  Container* cb = MakePathContainer(sw, make_program(), options, b);

  auto after_fault = [](World& w, Container* c, const ExecResult& result, int round) {
    if (c->operands().TypeOf(result.return_operand) != OperandType::kPage) {
      return;
    }
    mach::VmPage* page = c->operands().ReadPageOrNull(result.return_operand);
    if (page == nullptr || page->owner != c || page->queue != nullptr) {
      return;
    }
    page->reference = round % 2 == 0;
    page->modified = round % 3 == 0;
    c->active_q().EnqueueTail(page, w.kernel.clock().now());
    c->operands().WritePage(result.return_operand, nullptr);
  };

  const int rounds = static_cast<int>(options.min_frames) * 2 + 4;
  for (int round = 0; round < rounds; ++round) {
    ExecResult result;
    RunBothAndCompare(ir, ca, sw, cb, kEventPageFault, &result);
    if (result.outcome != ExecOutcome::kOk) {
      break;  // identical failure in both worlds (checked above) — parity still holds
    }
    after_fault(ir, ca, result, round);
    after_fault(sw, cb, result, round);
  }

  ca->operands().WriteInt(ops::kReclaimCount, 2);
  cb->operands().WriteInt(ops::kReclaimCount, 2);
  RunBothAndCompare(ir, ca, sw, cb, kEventReclaimFrame);

  ExpectTracesIdentical(ir, sw);
  EXPECT_GT(ir.trace.size(), 0u);
}

// The headline pairing: production IR (fused) vs the pre-IR reference interpreter.
void ExerciseTable2Policy(const std::function<PolicyProgram()>& make_program,
                          HipecOptions options) {
  ExerciseTable2PolicyPaths(make_program, options, PathConfig{},
                            PathConfig{DispatchMode::kReferenceSwitch});
}

TEST(DualPathTable2Test, FifoSecondChance) {
  HipecOptions options;
  options.min_frames = 8;
  ExerciseTable2Policy([] { return policies::FifoSecondChancePolicy(); }, options);
}

TEST(DualPathTable2Test, MruSimple) {
  HipecOptions options;
  options.min_frames = 8;
  ExerciseTable2Policy([] { return policies::MruPolicy(policies::CommandStyle::kSimple); },
                       options);
}

TEST(DualPathTable2Test, MruComplex) {
  HipecOptions options;
  options.min_frames = 8;
  ExerciseTable2Policy([] { return policies::MruPolicy(policies::CommandStyle::kComplex); },
                       options);
}

TEST(DualPathTable2Test, LruComplex) {
  HipecOptions options;
  options.min_frames = 8;
  ExerciseTable2Policy([] { return policies::LruPolicy(policies::CommandStyle::kComplex); },
                       options);
}

TEST(DualPathTable2Test, Fifo) {
  HipecOptions options;
  options.min_frames = 8;
  ExerciseTable2Policy([] { return policies::FifoPolicy(policies::CommandStyle::kSimple); },
                       options);
}

TEST(DualPathTable2Test, Clock) {
  HipecOptions options;
  options.min_frames = 8;
  ExerciseTable2Policy([] { return policies::ClockPolicy(); }, options);
}

TEST(DualPathTable2Test, TwoQueue) {
  HipecOptions options = policies::TwoQueueOptions();
  options.min_frames = 8;
  ExerciseTable2Policy([] { return policies::TwoQueuePolicy(); }, options);
}

TEST(DualPathTable2Test, Awrp) {
  HipecOptions options;
  options.min_frames = 8;
  ExerciseTable2Policy([] { return policies::AwrpPolicy(); }, options);
}

TEST(DualPathTable2Test, Perceptron) {
  HipecOptions options = policies::PerceptronOptions();
  options.min_frames = 8;
  ExerciseTable2Policy([] { return policies::PerceptronPolicy(); }, options);
}

// --------------------------------------------------------- superinstruction fusion parity

// Fused vs unfused decodings of the same policy, both on the IR loop: the fusion pass must
// be invisible in every observable (trace, outcome, command count, virtual time effects).
TEST(DualPathFusionTest, FusedVsUnfusedIrFifoSecondChance) {
  HipecOptions options;
  options.min_frames = 8;
  ExerciseTable2PolicyPaths([] { return policies::FifoSecondChancePolicy(); }, options,
                            PathConfig{.fuse = true}, PathConfig{.fuse = false});
}

TEST(DualPathFusionTest, FusedVsUnfusedIrClock) {
  HipecOptions options;
  options.min_frames = 8;
  ExerciseTable2PolicyPaths([] { return policies::ClockPolicy(); }, options,
                            PathConfig{.fuse = true}, PathConfig{.fuse = false});
}

TEST(DualPathFusionTest, FusedVsUnfusedIrTwoQueue) {
  HipecOptions options = policies::TwoQueueOptions();
  options.min_frames = 8;
  ExerciseTable2PolicyPaths([] { return policies::TwoQueuePolicy(); }, options,
                            PathConfig{.fuse = true}, PathConfig{.fuse = false});
}

// The unfused IR stream must also still match the pre-IR reference interpreter (closes the
// triangle: fused == unfused == reference).
TEST(DualPathFusionTest, UnfusedIrVsReferenceSwitchLru) {
  HipecOptions options;
  options.min_frames = 8;
  ExerciseTable2PolicyPaths([] { return policies::LruPolicy(policies::CommandStyle::kComplex); },
                            options, PathConfig{.fuse = false},
                            PathConfig{.mode = DispatchMode::kReferenceSwitch});
}

// Guard against the equivalence tests above becoming vacuous: the Table 2 policies must
// actually contain fused pairs after decoding with fusion on.
TEST(DualPathFusionTest, Table2PoliciesActuallyFuse) {
  World w(DispatchMode::kDecodedIr);
  Container* c = w.MakeContainer(OneEvent({Instruction{Opcode::kReturn, 0, 0, 0}}),
                                 policies::TwoQueueOptions());
  for (const PolicyProgram& program :
       {policies::FifoSecondChancePolicy(), policies::ClockPolicy(),
        policies::TwoQueuePolicy(), policies::LruPolicy(policies::CommandStyle::kComplex)}) {
    DecodedProgram fused = DecodePolicy(program, c->operands());
    int fused_count = 0;
    for (const DecodedEvent& ev : fused.events) {
      for (const DecodedInst& d : ev.insts) {
        fused_count += IsFusedKind(d.kind) ? 1 : 0;
      }
    }
    EXPECT_GT(fused_count, 0) << "policy decoded without a single superinstruction";
    DecodedProgram unfused =
        DecodePolicy(program, c->operands(), nullptr, /*fuse_superinstructions=*/false);
    for (const DecodedEvent& ev : unfused.events) {
      for (const DecodedInst& d : ev.insts) {
        EXPECT_FALSE(IsFusedKind(d.kind));
      }
    }
  }
}

// A jump that targets the second half of an otherwise-fusable Comp;Jump pair must block the
// fusion: control enters at the Jump alone, so folding it into the Comp would change both
// the trace and the branch behavior.
TEST(DualPathFusionTest, JumpIntoPairSecondHalfBlocksFusionAndStaysEquivalent) {
  auto make_program = [] {
    std::vector<Instruction> commands = {
        // 1: Comp s0 == s1 (both 0 → true, so the next Jump falls through)
        Instruction{Opcode::kComp, ops::kScratch0, ops::kScratch1,
                    static_cast<uint8_t>(CompOp::kEq)},
        // 2: Jump → 4 (not taken on first pass; taken when re-entered from 3)
        Instruction{Opcode::kJump, 0, 0, 4},
        // 3: Jump → 2 (flag is clear after 2 executed untaken → taken; makes 2 a jump target)
        Instruction{Opcode::kJump, 0, 0, 2},
        // 4: Return
        Instruction{Opcode::kReturn, 0, 0, 0},
    };
    return OneEvent(commands);
  };

  World ir(DispatchMode::kDecodedIr);
  World sw(DispatchMode::kReferenceSwitch);
  Container* ca = ir.MakeContainer(make_program());
  Container* cb = sw.MakeContainer(make_program());

  // Slot 2 is a jump target, so pair (1,2) must not fuse.
  const DecodedEvent& decoded = ca->decoded_program().event(kEventPageFault);
  EXPECT_EQ(decoded.insts[1].kind, DispatchKind::kCompEq);
  EXPECT_EQ(decoded.insts[2].kind, DispatchKind::kJump);

  ExecResult result;
  RunBothAndCompare(ir, ca, sw, cb, kEventPageFault, &result);
  EXPECT_EQ(result.outcome, ExecOutcome::kOk);
  EXPECT_EQ(result.commands_executed, 5);  // 1, 2, 3, 2(taken), 4
  ExpectTracesIdentical(ir, sw);
}

// A fused Comp;Jump whose jump target was redirected to the trap slot at decode time must
// fail at the moment the branch is taken — identically to the unfused and reference paths.
TEST(DualPathFusionTest, FusedJumpOutOfRangeFailsIdentically) {
  auto make_program = [] {
    std::vector<Instruction> commands = {
        // 1: Comp s0 != s1 (both 0 → false, so the Jump is taken)
        Instruction{Opcode::kComp, ops::kScratch0, ops::kScratch1,
                    static_cast<uint8_t>(CompOp::kNe)},
        // 2: Jump → 99 (out of range; decode redirects to trap slot 0)
        Instruction{Opcode::kJump, 0, 0, 99},
        // 3: Return (never reached)
        Instruction{Opcode::kReturn, 0, 0, 0},
    };
    return OneEvent(commands);
  };

  World ir(DispatchMode::kDecodedIr);
  World sw(DispatchMode::kReferenceSwitch);
  Container* ca = ir.MakeContainer(make_program());
  Container* cb = sw.MakeContainer(make_program());

  // The pair is eligible (slot 2 is not a jump target) and must have fused.
  const DecodedEvent& decoded = ca->decoded_program().event(kEventPageFault);
  EXPECT_EQ(decoded.insts[1].kind, DispatchKind::kFusedCompNeJump);

  ExecResult result;
  RunBothAndCompare(ir, ca, sw, cb, kEventPageFault, &result);
  EXPECT_EQ(result.outcome, ExecOutcome::kError);
  EXPECT_EQ(result.error, "control fell outside the command stream");
  EXPECT_EQ(result.commands_executed, 2);  // both halves charged before the trap fires
  ExpectTracesIdentical(ir, sw);
}

// Sustained control flow: the 100-iteration compare/branch/arithmetic loop. Checks the exact
// command count as well as the trace, so a dispatch bug cannot hide behind a short stream.
TEST(DualPathTest, ArithLoopTraceIsIdentical) {
  auto make_program = [] {
    EventBuilder b;
    auto loop = b.NewLabel();
    auto done = b.NewLabel();
    b.LoadImm(ops::kScratch0, 100);
    b.LoadImm(ops::kScratch1, 1);
    b.Bind(loop);
    b.Comp(ops::kScratch0, ops::kScratch1, CompOp::kGt);
    b.JumpIfFalse(done);
    b.Arith(ops::kScratch0, ops::kScratch1, ArithOp::kSub);
    b.JumpIfFalse(loop);
    b.Bind(done);
    b.Return(0);
    return OneEvent(b.Build());
  };
  World ir(DispatchMode::kDecodedIr);
  World sw(DispatchMode::kReferenceSwitch);
  Container* ca = ir.MakeContainer(make_program());
  Container* cb = sw.MakeContainer(make_program());
  ExecResult result;
  RunBothAndCompare(ir, ca, sw, cb, kEventPageFault, &result);
  EXPECT_EQ(result.outcome, ExecOutcome::kOk);
  // 2 LoadImm + 99 * (Comp, Jump, Arith, Jump) + final (Comp, Jump) + Return.
  EXPECT_EQ(result.commands_executed, 401);
  ExpectTracesIdentical(ir, sw);
  EXPECT_EQ(ca->operands().ReadInt(ops::kScratch0), 1);
  EXPECT_EQ(cb->operands().ReadInt(ops::kScratch0), 1);
}

// ------------------------------------------------------------------- error-path parity

// Both interpreters must fail the same way, with the same message, at the same point.
void ExpectSameError(PolicyProgram (*make_program)(), const std::string& substring) {
  World ir(DispatchMode::kDecodedIr);
  World sw(DispatchMode::kReferenceSwitch);
  Container* ca = ir.MakeContainer(make_program());
  Container* cb = sw.MakeContainer(make_program());
  ExecResult result;
  RunBothAndCompare(ir, ca, sw, cb, kEventPageFault, &result);
  EXPECT_EQ(result.outcome, ExecOutcome::kError);
  EXPECT_NE(result.error.find(substring), std::string::npos) << result.error;
  ExpectTracesIdentical(ir, sw);
}

TEST(DualPathErrorTest, TakenJumpToOutOfRangeTargetIsPolicyError) {
  // Condition is false at the Jump, so the jump to slot 200 (far past the 4-word stream) is
  // taken; both interpreters must report leaving the stream, not crash or execute garbage.
  ExpectSameError(
      [] {
        return OneEvent({Instruction{Opcode::kComp, ops::kScratch0, ops::kScratch0,
                                     static_cast<uint8_t>(CompOp::kNe)},
                         Instruction{Opcode::kJump, 0, 0, 200},
                         Instruction{Opcode::kReturn, 0, 0, 0}});
      },
      "control fell outside the command stream");
}

TEST(DualPathErrorTest, JumpToMagicWordIsPolicyError) {
  ExpectSameError(
      [] {
        return OneEvent({Instruction{Opcode::kComp, ops::kScratch0, ops::kScratch0,
                                     static_cast<uint8_t>(CompOp::kNe)},
                         Instruction{Opcode::kJump, 0, 0, 0},
                         Instruction{Opcode::kReturn, 0, 0, 0}});
      },
      "control fell outside the command stream");
}

TEST(DualPathErrorTest, TruncatedStreamFallsOffTheEnd) {
  // A stream with no Return: control runs past the last word. (SetEventRaw bypasses the
  // builder, which would always emit a Return.)
  ExpectSameError(
      [] {
        PolicyProgram p;
        p.SetEventRaw(kEventPageFault,
                      {kHipecMagic,
                       Instruction{Opcode::kArith, ops::kScratch0, 5,
                                   static_cast<uint8_t>(ArithOp::kLoadImm)}
                           .Encode()});
        EventBuilder reclaim;
        reclaim.Return(0);
        p.SetEvent(kEventReclaimFrame, reclaim.Build());
        return p;
      },
      "control fell outside the command stream");
}

TEST(DualPathErrorTest, InvalidOpcodeIsPolicyError) {
  ExpectSameError(
      [] {
        PolicyProgram p;
        p.SetEventRaw(kEventPageFault, {kHipecMagic, 0xBBu << 24});
        EventBuilder reclaim;
        reclaim.Return(0);
        p.SetEvent(kEventReclaimFrame, reclaim.Build());
        return p;
      },
      "invalid operator code");
}

TEST(DualPathErrorTest, DivisionByZeroMatches) {
  ExpectSameError(
      [] {
        EventBuilder b;
        b.LoadImm(ops::kScratch1, 0)
            .Arith(ops::kScratch0, ops::kScratch1, ArithOp::kDiv)
            .Return(0);
        return OneEvent(b.Build());
      },
      "division by zero");
}

// Operand-kind misuse reaches the interpreter only when the install-time scan is bypassed
// (these programs would be rejected by DecodeAndValidate). It must still be a clean
// PolicyError in both modes; the wording legitimately differs — the IR path reports the
// decode-time diagnostic, the reference path the first typed-accessor failure it hits at
// run time — so each mode asserts its own substring.
void ExpectKindError(PolicyProgram (*make_program)(), const std::string& ir_substring,
                     const std::string& sw_substring) {
  for (DispatchMode mode : {DispatchMode::kDecodedIr, DispatchMode::kReferenceSwitch}) {
    bool is_ir = mode == DispatchMode::kDecodedIr;
    SCOPED_TRACE(is_ir ? "decoded_ir" : "reference_switch");
    World w(mode);
    Container* c = w.MakeContainer(make_program());
    ExecResult result = w.executor.ExecuteEvent(c, kEventPageFault);
    EXPECT_EQ(result.outcome, ExecOutcome::kError);
    EXPECT_NE(result.error.find(is_ir ? ir_substring : sw_substring), std::string::npos)
        << result.error;
  }
}

TEST(DualPathErrorTest, MigrateOfNonPageOperandIsPolicyError) {
  ExpectKindError(
      [] {
        return OneEvent({Instruction{Opcode::kMigrate, ops::kFreeQueue, ops::kScratch0, 0},
                         Instruction{Opcode::kReturn, 0, 0, 0}});
      },
      "not a page variable", "expected a page operand");
}

TEST(DualPathErrorTest, UnlinkOfNonPageOperandIsPolicyError) {
  ExpectKindError(
      [] {
        return OneEvent({Instruction{Opcode::kUnlink, ops::kScratch0, 0, 0},
                         Instruction{Opcode::kReturn, 0, 0, 0}});
      },
      "not a page variable", "expected a page operand");
}

TEST(DualPathErrorTest, MigrateTargetMustBeAnInteger) {
  // The IR path diagnoses the queue-typed target at decode time; the reference path trips
  // over the (empty) page operand first, since it re-checks operands in execution order.
  ExpectKindError(
      [] {
        return OneEvent({Instruction{Opcode::kMigrate, ops::kPage, ops::kFreeQueue, 0},
                         Instruction{Opcode::kReturn, 0, 0, 0}});
      },
      "not an integer", "page variable is empty");
}

// ------------------------------------------------------------------- JIT parity
//
// The install-time template JIT (hipec/jit.h) against the production IR interpreter: same
// Table 2 policies, same drive loop, trace compared command by command. On hosts without an
// emitter DispatchMode::kJit degrades to the interpreter per event, so these tests still run
// (and then assert the fallback accounting instead of compiled execution).

const sim::CounterId kCtrJitEventsId = sim::InternCounter("executor.jit_events");
const sim::CounterId kCtrJitFallbacksId = sim::InternCounter("executor.jit_fallbacks");

void ExerciseTable2PolicyJit(const std::function<PolicyProgram()>& make_program,
                             HipecOptions options) {
  ExerciseTable2PolicyPaths(make_program, options, PathConfig{.mode = DispatchMode::kJit},
                            PathConfig{.mode = DispatchMode::kDecodedIr});
}

TEST(DualPathJitTest, Fifo) {
  HipecOptions options;
  options.min_frames = 8;
  ExerciseTable2PolicyJit([] { return policies::FifoPolicy(policies::CommandStyle::kSimple); },
                          options);
}

TEST(DualPathJitTest, FifoSecondChance) {
  HipecOptions options;
  options.min_frames = 8;
  ExerciseTable2PolicyJit([] { return policies::FifoSecondChancePolicy(); }, options);
}

TEST(DualPathJitTest, LruComplex) {
  HipecOptions options;
  options.min_frames = 8;
  ExerciseTable2PolicyJit([] { return policies::LruPolicy(policies::CommandStyle::kComplex); },
                          options);
}

TEST(DualPathJitTest, MruSimple) {
  HipecOptions options;
  options.min_frames = 8;
  ExerciseTable2PolicyJit([] { return policies::MruPolicy(policies::CommandStyle::kSimple); },
                          options);
}

TEST(DualPathJitTest, Clock) {
  HipecOptions options;
  options.min_frames = 8;
  ExerciseTable2PolicyJit([] { return policies::ClockPolicy(); }, options);
}

TEST(DualPathJitTest, TwoQueue) {
  HipecOptions options = policies::TwoQueueOptions();
  options.min_frames = 8;
  ExerciseTable2PolicyJit([] { return policies::TwoQueuePolicy(); }, options);
}

TEST(DualPathJitTest, Awrp) {
  HipecOptions options;
  options.min_frames = 8;
  ExerciseTable2PolicyJit([] { return policies::AwrpPolicy(); }, options);
}

TEST(DualPathJitTest, Perceptron) {
  HipecOptions options = policies::PerceptronOptions();
  options.min_frames = 8;
  ExerciseTable2PolicyJit([] { return policies::PerceptronPolicy(); }, options);
}

// Compiled code must fail exactly like the interpreter: same outcome, same message, same
// trace prefix, same command count.
void ExpectSameErrorJit(PolicyProgram (*make_program)(), const std::string& substring) {
  World jw(DispatchMode::kJit);
  World iw(DispatchMode::kDecodedIr);
  Container* ca = jw.MakeContainer(make_program());
  Container* cb = iw.MakeContainer(make_program());
  ExecResult result;
  RunBothAndCompare(jw, ca, iw, cb, kEventPageFault, &result);
  EXPECT_EQ(result.outcome, ExecOutcome::kError);
  EXPECT_NE(result.error.find(substring), std::string::npos) << result.error;
  ExpectTracesIdentical(jw, iw);
}

TEST(DualPathJitTest, TakenJumpOutsideStreamMatchesInterpreter) {
  ExpectSameErrorJit(
      [] {
        return OneEvent({Instruction{Opcode::kComp, ops::kScratch0, ops::kScratch0,
                                     static_cast<uint8_t>(CompOp::kNe)},
                         Instruction{Opcode::kJump, 0, 0, 200},
                         Instruction{Opcode::kReturn, 0, 0, 0}});
      },
      "control fell outside the command stream");
}

TEST(DualPathJitTest, DivisionByZeroMatchesInterpreter) {
  ExpectSameErrorJit(
      [] {
        EventBuilder b;
        b.LoadImm(ops::kScratch1, 0)
            .Arith(ops::kScratch0, ops::kScratch1, ArithOp::kDiv)
            .Return(0);
        return OneEvent(b.Build());
      },
      "division by zero");
}

TEST(DualPathJitTest, EmptyDequeueMatchesInterpreter) {
  ExpectSameErrorJit(
      [] {
        return OneEvent({Instruction{Opcode::kDeQueue, ops::kPage, ops::kFreeQueue, 1},
                         Instruction{Opcode::kReturn, 0, 0, 0}});
      },
      "DeQueue from an empty queue");
}

TEST(DualPathJitTest, EmptyPageOperandMatchesInterpreter) {
  ExpectSameErrorJit(
      [] {
        return OneEvent({Instruction{Opcode::kRef, ops::kPage, 0, 0},
                         Instruction{Opcode::kReturn, 0, 0, 0}});
      },
      "page variable is empty");
}

// On hosts with an emitter, kJit means compiled execution — this pins the counters so a
// regression that silently falls back to the interpreter (and vacuously "matches" it) fails
// loudly instead of passing all the parity tests above.
TEST(DualPathJitTest, JitActuallyExecutesOnSupportedHosts) {
  World w(DispatchMode::kJit);
  Container* c = w.MakeContainer(OneEvent({Instruction{Opcode::kReturn, 0, 0, 0}}));
  ExecResult result = w.executor.ExecuteEvent(c, kEventPageFault);
  EXPECT_EQ(result.outcome, ExecOutcome::kOk);
  EXPECT_EQ(w.executor.counters().Get(kCtrJitEventsId), 1);
  if (jit::Available()) {
    EXPECT_NE(c->jit_program(), nullptr);
    EXPECT_EQ(w.executor.counters().Get(kCtrJitFallbacksId), 0);
  } else {
    EXPECT_EQ(w.executor.counters().Get(kCtrJitFallbacksId), 1);
  }
}

// Masking a kind must force the containing event (and only it) onto the interpreter, with
// identical observable behavior — this is how the non-x86 fallback path is exercised on
// x86_64 CI.
TEST(DualPathJitTest, MaskedKindFallsBackToInterpreterWithIdenticalTrace) {
  jit::SetUnsupportedKindForTesting(DispatchKind::kArithLoadImm, true);
  ExerciseTable2PolicyJit([] { return policies::FifoSecondChancePolicy(); },
                          [] {
                            HipecOptions options;
                            options.min_frames = 8;
                            return options;
                          }());
  jit::SetUnsupportedKindForTesting(DispatchKind::kArithLoadImm, false);

  // And the fallback was actually taken (not silently compiled anyway).
  jit::SetUnsupportedKindForTesting(DispatchKind::kReturn, true);
  World w(DispatchMode::kJit);
  Container* c = w.MakeContainer(OneEvent({Instruction{Opcode::kReturn, 0, 0, 0}}));
  ExecResult result = w.executor.ExecuteEvent(c, kEventPageFault);
  jit::SetUnsupportedKindForTesting(DispatchKind::kReturn, false);
  EXPECT_EQ(result.outcome, ExecOutcome::kOk);
  EXPECT_EQ(w.executor.counters().Get(kCtrJitFallbacksId), 1);
}

// Activate under the JIT: the bridge re-enters RunEventJit, so a nested event is itself
// compiled code, and recursion depth still errors at the interpreter's limit.
TEST(DualPathJitTest, ActivateNestsAndRecursionLimitMatches) {
  auto make_program = [] {
    PolicyProgram p;
    EventBuilder fault;
    fault.Activate(kEventReclaimFrame).Return(0);
    p.SetEvent(kEventPageFault, fault.Build());
    EventBuilder reclaim;
    reclaim.Return(0);
    p.SetEvent(kEventReclaimFrame, reclaim.Build());
    return p;
  };
  World jw(DispatchMode::kJit);
  World iw(DispatchMode::kDecodedIr);
  Container* ca = jw.MakeContainer(make_program());
  Container* cb = iw.MakeContainer(make_program());
  RunBothAndCompare(jw, ca, iw, cb, kEventPageFault);
  ExpectTracesIdentical(jw, iw);

  // Self-recursion: "Activate recursion too deep" surfaces identically through the bridge's
  // exception capture (the error is raised by the nested C++ frames, not the generated code).
  auto make_recursive = [] {
    PolicyProgram p;
    EventBuilder fault;
    fault.Activate(kEventPageFault).Return(0);
    p.SetEvent(kEventPageFault, fault.Build());
    EventBuilder reclaim;
    reclaim.Return(0);
    p.SetEvent(kEventReclaimFrame, reclaim.Build());
    return p;
  };
  World jr(DispatchMode::kJit);
  World ir2(DispatchMode::kDecodedIr);
  Container* cr = jr.MakeContainer(make_recursive());
  Container* ci = ir2.MakeContainer(make_recursive());
  ExecResult result;
  RunBothAndCompare(jr, cr, ir2, ci, kEventPageFault, &result);
  EXPECT_EQ(result.outcome, ExecOutcome::kError);
  EXPECT_NE(result.error.find("recursion too deep"), std::string::npos) << result.error;
  ExpectTracesIdentical(jr, ir2);
}

// ------------------------------------------------------------------- run-time failures
//
// The IR loop and the JIT bridges share one kernel per stateful command (executor.h); the
// reference interpreter has bodies of its own, and the JIT's native EnQueue template its own
// checks. Each run-time failure below must come out of all three paths with the same
// outcome, error text, trace and command count.

struct RuntimeFailure {
  const char* name;
  // What the page variable holds when the PageFault event starts.
  enum class PageVar { kEmpty, kForeign, kQueued } page_var;
  std::vector<Instruction> commands;  // the event, before its Return
  const char* error;
};

void PrintTo(const RuntimeFailure& f, std::ostream* os) { *os << f.name; }

Instruction On(Opcode op, uint8_t a, uint8_t b = 0, uint8_t c = 0) {
  return Instruction{op, a, b, c};
}

const RuntimeFailure kRuntimeFailures[] = {
    {"EnQueueForeignPage", RuntimeFailure::PageVar::kForeign,
     {On(Opcode::kEnQueue, ops::kPage, ops::kActiveQueue, 2)},
     "EnQueue of a frame the application does not own"},
    {"EnQueueQueuedPage", RuntimeFailure::PageVar::kQueued,
     {On(Opcode::kEnQueue, ops::kPage, ops::kActiveQueue, 2)},
     "EnQueue of a page that is already on a queue"},
    {"ReleaseForeignPage", RuntimeFailure::PageVar::kForeign,
     {On(Opcode::kRelease, ops::kPage)},
     "Release of a frame the application does not own"},
    {"ReleaseQueuedPage", RuntimeFailure::PageVar::kQueued,
     {On(Opcode::kRelease, ops::kPage)},
     "Release of a page still on a queue (DeQueue it first)"},
    {"FlushQueuedPage", RuntimeFailure::PageVar::kQueued,
     {On(Opcode::kFlush, ops::kPage)},
     "Flush of a page still on a queue (DeQueue it first)"},
    {"MigrateQueuedPage", RuntimeFailure::PageVar::kQueued,
     {On(Opcode::kMigrate, ops::kPage, ops::kScratch0)},
     "Migrate of a page still on a queue (DeQueue it first)"},
    {"UnlinkOffQueuePage", RuntimeFailure::PageVar::kEmpty,
     {On(Opcode::kDeQueue, ops::kPage, ops::kFreeQueue, 1), On(Opcode::kUnlink, ops::kPage)},
     "Unlink of a page that is not on a queue"},
    {"RequestNegativeSize", RuntimeFailure::PageVar::kEmpty,
     {On(Opcode::kArith, ops::kScratch1, 1, static_cast<uint8_t>(ArithOp::kLoadImm)),
      On(Opcode::kArith, ops::kScratch0, ops::kScratch1, static_cast<uint8_t>(ArithOp::kSub)),
      On(Opcode::kRequest, ops::kScratch0, ops::kFreeQueue)},
     "Request: negative size"},
    {"FifoEmptyQueue", RuntimeFailure::PageVar::kEmpty,
     {On(Opcode::kFifo, ops::kInactiveQueue, ops::kPage)},
     "replacement-policy command on an empty queue"},
    {"LruEmptyQueue", RuntimeFailure::PageVar::kEmpty,
     {On(Opcode::kLru, ops::kInactiveQueue, ops::kPage)},
     "replacement-policy command on an empty queue"},
    {"MruEmptyQueue", RuntimeFailure::PageVar::kEmpty,
     {On(Opcode::kMru, ops::kInactiveQueue, ops::kPage)},
     "replacement-policy command on an empty queue"},
    {"WeightedSelectEmptyQueue", RuntimeFailure::PageVar::kEmpty,
     {On(Opcode::kWeightedSelect, ops::kInactiveQueue, ops::kPage,
         static_cast<uint8_t>(SelectMode::kMin))},
     "replacement-policy command on an empty queue"},
};

// A container running `failure`'s event, its page variable preloaded. A foreign page comes
// off the free queue of a second container in the same world.
Container* MakeFailureContainer(World& w, const RuntimeFailure& failure) {
  std::vector<Instruction> commands = failure.commands;
  commands.push_back(On(Opcode::kReturn, 0));
  HipecOptions options;
  options.min_frames = 8;
  Container* c = w.MakeContainer(OneEvent(commands), options);
  if (failure.page_var == RuntimeFailure::PageVar::kForeign) {
    Container* other = w.MakeContainer(OneEvent({On(Opcode::kReturn, 0)}), options);
    c->operands().WritePage(ops::kPage, other->free_q().DequeueHead());
  } else if (failure.page_var == RuntimeFailure::PageVar::kQueued) {
    c->operands().WritePage(ops::kPage, c->free_q().head());
  }
  return c;
}

class DualPathRuntimeFailureTest : public ::testing::TestWithParam<RuntimeFailure> {};

TEST_P(DualPathRuntimeFailureTest, FailsIdenticallyOnEveryPath) {
  const RuntimeFailure& failure = GetParam();
  World ref(DispatchMode::kReferenceSwitch);
  ExecResult expected =
      ref.executor.ExecuteEvent(MakeFailureContainer(ref, failure), kEventPageFault);
  EXPECT_EQ(expected.outcome, ExecOutcome::kError);
  EXPECT_EQ(expected.error, failure.error);
  EXPECT_EQ(expected.commands_executed, static_cast<int64_t>(failure.commands.size()));

  for (DispatchMode mode : {DispatchMode::kDecodedIr, DispatchMode::kJit}) {
    SCOPED_TRACE(mode == DispatchMode::kJit ? "jit" : "decoded_ir");
    World w(mode);
    ExecResult result = w.executor.ExecuteEvent(MakeFailureContainer(w, failure),
                                                kEventPageFault);
    EXPECT_EQ(result.outcome, expected.outcome);
    EXPECT_EQ(result.error, expected.error);
    EXPECT_EQ(result.commands_executed, expected.commands_executed);
    ExpectTracesIdentical(w, ref);
    if (mode == DispatchMode::kJit && jit::Available()) {
      EXPECT_EQ(w.executor.counters().Get(kCtrJitFallbacksId), 0) << "ran the interpreter";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(EveryCheck, DualPathRuntimeFailureTest,
                         ::testing::ValuesIn(kRuntimeFailures),
                         [](const ::testing::TestParamInfo<RuntimeFailure>& info) {
                           return std::string(info.param.name);
                         });

// ------------------------------------------------------------------- IR consistency

// One valid instruction per opcode, so the KeepsCondition/SetsCondition agreement check
// below cannot silently skip an operator.
std::vector<Instruction> OnePerOpcode() {
  return {
      Instruction{Opcode::kJump, 0, 0, 1},
      Instruction{Opcode::kActivate, kEventReclaimFrame, 0, 0},
      Instruction{Opcode::kArith, ops::kScratch0, ops::kScratch1,
                  static_cast<uint8_t>(ArithOp::kAdd)},
      Instruction{Opcode::kComp, ops::kScratch0, ops::kScratch1,
                  static_cast<uint8_t>(CompOp::kGt)},
      Instruction{Opcode::kLogic, ops::kScratch0, ops::kScratch1,
                  static_cast<uint8_t>(LogicOp::kAnd)},
      Instruction{Opcode::kEmptyQ, ops::kFreeQueue, 0, 0},
      Instruction{Opcode::kInQ, ops::kFreeQueue, ops::kPage, 0},
      Instruction{Opcode::kDeQueue, ops::kPage, ops::kFreeQueue, 1},
      Instruction{Opcode::kEnQueue, ops::kPage, ops::kFreeQueue, 1},
      Instruction{Opcode::kRequest, ops::kRequestSize, ops::kFreeQueue, 0},
      Instruction{Opcode::kRelease, ops::kFreeQueue, 0, 0},
      Instruction{Opcode::kFlush, ops::kPage, 0, 0},
      Instruction{Opcode::kSet, ops::kPage, 1, 1},
      Instruction{Opcode::kRef, ops::kPage, 0, 0},
      Instruction{Opcode::kMod, ops::kPage, 0, 0},
      Instruction{Opcode::kFind, ops::kPage, ops::kFaultAddr, 0},
      Instruction{Opcode::kFifo, ops::kFreeQueue, ops::kPage, 0},
      Instruction{Opcode::kLru, ops::kFreeQueue, ops::kPage, 0},
      Instruction{Opcode::kMru, ops::kFreeQueue, ops::kPage, 0},
      Instruction{Opcode::kMigrate, ops::kPage, ops::kScratch0, 0},
      Instruction{Opcode::kUnlink, ops::kPage, 0, 0},
      Instruction{Opcode::kWeightedSelect, ops::kFreeQueue, ops::kPage,
                  static_cast<uint8_t>(SelectMode::kMin)},
      Instruction{Opcode::kSatDotProduct, ops::kScratch0, ops::kResult, 1},
      Instruction{Opcode::kPageWord, ops::kPage, ops::kScratch0,
                  static_cast<uint8_t>(PageWordOp::kLoad)},
      Instruction{Opcode::kAgeScores, ops::kActiveQueue, ops::kScratch1,
                  static_cast<uint8_t>(AgeMode::kAwrp)},
      Instruction{Opcode::kReturn, 0, 0, 0},
  };
}

// The IR's condition-flag classification must agree with the raw instruction set's: the
// interpreter clears the flag after exactly the commands SetsCondition says it should.
TEST(DecodedIrTest, KeepsConditionAgreesWithSetsConditionForEveryOpcode) {
  std::vector<Instruction> commands = OnePerOpcode();
  ASSERT_EQ(commands.size(), static_cast<size_t>(kOpcodeCount));

  World w(DispatchMode::kDecodedIr);
  Container* c = w.MakeContainer(OneEvent(commands));
  // Decode without superinstruction fusion so every opcode maps 1:1 onto an unfused kind —
  // a fused kind covers two opcodes and is checked separately (trace-equivalence tests).
  DecodedProgram unfused =
      DecodePolicy(c->program(), c->operands(), nullptr, /*fuse_superinstructions=*/false);
  const DecodedEvent& decoded = unfused.event(kEventPageFault);
  ASSERT_EQ(decoded.insts.size(), commands.size() + 2);  // + magic slot + end trap slot

  for (size_t cc = 1; cc <= commands.size(); ++cc) {
    const DecodedInst& d = decoded.insts[cc];
    ASSERT_NE(d.kind, DispatchKind::kTrapError)
        << "cc=" << cc << ": expected a cleanly decodable instruction";
    ASSERT_FALSE(IsFusedKind(d.kind)) << "cc=" << cc << ": unfused decode produced a fused kind";
    EXPECT_EQ(KeepsCondition(d.kind), SetsCondition(static_cast<Opcode>(d.raw_op)))
        << "cc=" << cc << " kind=" << static_cast<int>(d.kind);
  }
  // Library policies too, for good measure (they exercise fused sub-operations). These
  // decode with fusion on, as installed; fused kinds span two opcodes (e.g. Comp;Jump, where
  // SetsCondition differs between the halves), so the 1:1 agreement check skips them.
  for (const PolicyProgram& program :
       {policies::FifoSecondChancePolicy(), policies::ClockPolicy(),
        policies::TwoQueuePolicy()}) {
    DecodedProgram dp = DecodePolicy(program, c->operands());
    for (const DecodedEvent& ev : dp.events) {
      for (const DecodedInst& d : ev.insts) {
        if (d.kind == DispatchKind::kTrapError || d.kind == DispatchKind::kTrapOutside ||
            IsFusedKind(d.kind)) {
          continue;
        }
        EXPECT_EQ(KeepsCondition(d.kind), SetsCondition(static_cast<Opcode>(d.raw_op)));
      }
    }
  }
}

// The engine's install path must adopt the validator's IR (no second decode) and run it.
TEST(DecodedIrTest, EngineInstallAdoptsDecodedProgram) {
  mach::KernelParams params = SmallParams();
  mach::Kernel kernel(params);
  HipecEngine engine(&kernel);
  mach::Task* task = kernel.CreateTask("app");
  HipecOptions options;
  options.min_frames = 8;
  HipecRegion region = engine.VmAllocateHipec(task, 32 * kPageSize,
                                              policies::FifoSecondChancePolicy(), options);
  ASSERT_TRUE(region.ok) << region.error;
  // The adopted IR is present and has both mandatory events.
  const DecodedProgram& dp = region.container->decoded_program();
  EXPECT_TRUE(dp.HasEvent(kEventPageFault));
  EXPECT_TRUE(dp.HasEvent(kEventReclaimFrame));
  EXPECT_TRUE(kernel.Touch(task, region.addr, false));
}

}  // namespace
}  // namespace hipec::core
