// Differential fuzzing of the install-time template JIT against the IR interpreter: seeded
// deterministic random policies (700 seeds in three bands), executed in two isolated worlds
// (DispatchMode::kJit vs kDecodedIr), compared on outcome, error text, Return operand,
// command count, and the full command-by-command trace. Policies are drawn from the valid
// instruction space but are NOT required to run cleanly — runtime errors (empty dequeues,
// empty page variables, jumps off the stream, division by zero, budget exhaustion on
// generated loops) are part of the contract being checked: both engines must fail the same
// way at the same command.
//
// Everything is seeded, so a passing corpus is a permanent regression corpus — no flakes.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "hipec/builder.h"
#include "hipec/executor.h"
#include "hipec/frame_manager.h"
#include "hipec/jit.h"
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

// Holds container 2's id, the frame band's Migrate target. No draw of the first 18 families
// reads it.
constexpr uint8_t kPeerId = ops::kUserBase;

mach::KernelParams FuzzParams() {
  mach::KernelParams params;
  params.total_frames = 512;
  params.kernel_reserved_frames = 64;
  params.pageout.free_target = 16;
  params.pageout.free_min = 4;
  params.hipec_build = true;
  return params;
}

struct World {
  mach::Kernel kernel;
  GlobalFrameManager manager;
  PolicyExecutor executor;
  std::vector<std::unique_ptr<Container>> containers;
  std::vector<ExecTrace> trace;

  explicit World(DispatchMode mode)
      : kernel(FuzzParams()), manager(&kernel, FrameManagerConfig{0.5, 16}),
        executor(&kernel, &manager) {
    executor.set_dispatch_mode(mode);
    executor.set_trace_sink(&trace);
    // Generated programs may loop; budget exhaustion is a legitimate shared outcome, it just
    // must arrive at the same command in both engines. Keep it cheap.
    executor.set_max_commands(20'000);
  }

  Container* MakeContainer(PolicyProgram program) {
    mach::Task* task = kernel.CreateTask("fuzz");
    mach::VmObject* object = kernel.CreateAnonObject(64 * kPageSize);
    containers.push_back(std::make_unique<Container>(
        containers.size() + 1, task, object, std::move(program), /*min_frames=*/8,
        kernel.costs().policy_timeout_ns));
    Container* c = containers.back().get();
    HipecOptions options;
    options.min_frames = 8;
    options.user_int_inits = {{kPeerId, 2, /*read_only=*/true}};
    SetupStandardOperands(c, options);
    EXPECT_TRUE(manager.AdmitContainer(c));
    return c;
  }
};

// The generator's command families: the first 18 (the original corpus), or those plus the
// frame commands — Release (both forms), Flush, Migrate and Unlink. A seed draws the same
// program as long as its family count stays the same.
constexpr uint64_t kBaseFamilies = 18;
constexpr uint64_t kAllFamilies = 23;

// One random command. Jump targets stay within [1, n_commands] (decoder-legal); operand
// indices are drawn from the standard layout so the decoder accepts most commands and the
// rest die as decode-time traps — identically in both engines.
Instruction RandomInstruction(std::mt19937_64& rng, int n_commands, uint64_t families) {
  auto pick = [&](std::initializer_list<uint8_t> choices) {
    std::vector<uint8_t> v(choices);
    return v[rng() % v.size()];
  };
  const uint8_t int_op =
      pick({ops::kScratch0, ops::kScratch1, ops::kResult, ops::kFreeCount, ops::kActiveCount,
            ops::kRequestSize, ops::kFaultAddr});
  const uint8_t writable_int = pick({ops::kScratch0, ops::kScratch1, ops::kResult});
  const uint8_t queue_op = pick({ops::kFreeQueue, ops::kActiveQueue, ops::kInactiveQueue});
  const uint8_t target = static_cast<uint8_t>(1 + rng() % static_cast<uint64_t>(n_commands));

  switch (rng() % families) {
    case 0:
      return Instruction{Opcode::kArith, writable_int, static_cast<uint8_t>(rng() % 256),
                         static_cast<uint8_t>(ArithOp::kLoadImm)};
    case 1:
      // Div/mod excluded: a generated mul chain could in principle reach INT64_MIN / -1,
      // which both engines execute as a hardware idiv fault — identical, but fatal to the
      // test process. Division parity is covered deterministically in dual_path_test.
      return Instruction{Opcode::kArith, writable_int, int_op,
                         pick({static_cast<uint8_t>(ArithOp::kAdd),
                               static_cast<uint8_t>(ArithOp::kSub),
                               static_cast<uint8_t>(ArithOp::kMul),
                               static_cast<uint8_t>(ArithOp::kMov)})};
    case 2:
      return Instruction{Opcode::kComp, int_op, int_op,
                         static_cast<uint8_t>(1 + rng() % 6)};
    case 3:
      return Instruction{Opcode::kLogic, writable_int, int_op,
                         static_cast<uint8_t>(1 + rng() % 4)};
    case 4:
      return Instruction{Opcode::kJump, 0, 0, target};
    case 5:
      return Instruction{Opcode::kEmptyQ, queue_op, 0, 0};
    case 6:
      return Instruction{Opcode::kInQ, queue_op, ops::kPage, 0};
    case 7:
      return Instruction{Opcode::kDeQueue, ops::kPage, queue_op,
                         static_cast<uint8_t>(1 + rng() % 2)};
    case 8:
      return Instruction{Opcode::kEnQueue, ops::kPage, queue_op,
                         static_cast<uint8_t>(1 + rng() % 2)};
    case 9:
      return Instruction{Opcode::kSet, ops::kPage, static_cast<uint8_t>(rng() % 2),
                         static_cast<uint8_t>(1 + rng() % 2)};
    case 10:
      return Instruction{rng() % 2 == 0 ? Opcode::kRef : Opcode::kMod, ops::kPage, 0, 0};
    case 11:
      return Instruction{Opcode::kRequest, ops::kRequestSize, ops::kFreeQueue, 0};
    case 12: {
      static constexpr Opcode kReplacement[3] = {Opcode::kFifo, Opcode::kLru, Opcode::kMru};
      return Instruction{kReplacement[rng() % 3], queue_op, ops::kPage, 0};
    }
    case 13:
      // Mode 3 is decode-illegal: the trap must fire identically in both engines.
      return Instruction{Opcode::kWeightedSelect, queue_op, ops::kPage,
                         pick({1, 1, 2, 2, 3})};
    case 14:
      // kInactiveCount (0x06) and kFaultAddr (0x0C) each head a contiguous int run long
      // enough for width 2; kScratch0's neighbor is a queue, so that draw decode-traps —
      // identically in both engines.
      return Instruction{Opcode::kSatDotProduct, writable_int,
                         pick({ops::kInactiveCount, ops::kFaultAddr, ops::kScratch0}),
                         static_cast<uint8_t>(1 + rng() % 2)};
    case 15:
      // Loads need a writable destination, stores any readable source; an empty page
      // variable is a runtime error both engines must report at the same command.
      return Instruction{Opcode::kPageWord, ops::kPage,
                         rng() % 2 == 0 ? writable_int : int_op,
                         static_cast<uint8_t>(1 + rng() % 2)};
    case 16:
      // Modes 0 and 3 are decode-illegal. kFaultAddr (0x0C) and kFreeTarget (0x07) head
      // three readable ints followed by a writable one, the perceptron's run; kScratch0's
      // neighbor is a queue, so that draw decode-traps in mode 2 — identically in both
      // engines. A vote sum landing in kRequestSize can make a later Request fail at run
      // time, also identically.
      return Instruction{Opcode::kAgeScores, queue_op,
                         pick({ops::kFaultAddr, ops::kFreeTarget, ops::kScratch0,
                               ops::kActiveCount}),
                         pick({0, 1, 1, 2, 2, 3})};
    case 17:
      return Instruction{Opcode::kFind, ops::kPage, ops::kFaultAddr, 0};
    case 18:
      return Instruction{Opcode::kRelease, queue_op, 0, 0};
    case 19:
      // The page variable may be empty, still queued or off-queue: each outcome (condition
      // false, error, release) must match.
      return Instruction{Opcode::kRelease, ops::kPage, 0, 0};
    case 20:
      return Instruction{Opcode::kFlush, ops::kPage, 0, 0};
    case 21:
      // The target is a container id: the peer's, or whatever an int operand holds.
      return Instruction{Opcode::kMigrate, ops::kPage, pick({kPeerId, int_op}), 0};
    default:
      return Instruction{Opcode::kUnlink, ops::kPage, 0, 0};
  }
}

PolicyProgram RandomPolicy(uint64_t seed, uint64_t families) {
  std::mt19937_64 rng(seed);
  const int n = static_cast<int>(4 + rng() % 20);
  std::vector<Instruction> commands;
  commands.reserve(static_cast<size_t>(n) + 1);
  for (int i = 0; i < n; ++i) {
    commands.push_back(RandomInstruction(rng, n + 1, families));
  }
  commands.push_back(Instruction{Opcode::kReturn, ops::kPage, 0, 0});

  PolicyProgram p;
  p.SetEvent(kEventPageFault, commands);
  EventBuilder reclaim;
  reclaim.Return(0);
  p.SetEvent(kEventReclaimFrame, reclaim.Build());
  return p;
}

// Runs one generated policy in both engines and asserts byte-identical observable behavior.
void RunDifferential(uint64_t seed, uint64_t families = kBaseFamilies) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  World jw(DispatchMode::kJit);
  World iw(DispatchMode::kDecodedIr);
  Container* ca = jw.MakeContainer(RandomPolicy(seed, families));
  Container* cb = iw.MakeContainer(RandomPolicy(seed, families));
  if (families == kAllFamilies) {
    // A peer that takes migrations, so Migrate can succeed as well as be refused.
    for (World* w : {&jw, &iw}) {
      w->MakeContainer(RandomPolicy(seed, families))->accepts_migration = true;
    }
  }

  // A couple of faults so queue/page state mutates between events, then a reclaim pass.
  for (int round = 0; round < 3; ++round) {
    ExecResult ra = jw.executor.ExecuteEvent(ca, kEventPageFault);
    ExecResult rb = iw.executor.ExecuteEvent(cb, kEventPageFault);
    ASSERT_EQ(ra.outcome, rb.outcome) << ra.error << " vs " << rb.error;
    ASSERT_EQ(ra.error, rb.error);
    ASSERT_EQ(ra.return_operand, rb.return_operand);
    ASSERT_EQ(ra.commands_executed, rb.commands_executed);
    ASSERT_EQ(jw.kernel.ctx().now(), iw.kernel.ctx().now()) << "virtual clocks diverged";
  }
  ca->operands().WriteInt(ops::kReclaimCount, 1);
  cb->operands().WriteInt(ops::kReclaimCount, 1);
  ExecResult ra = jw.executor.ExecuteEvent(ca, kEventReclaimFrame);
  ExecResult rb = iw.executor.ExecuteEvent(cb, kEventReclaimFrame);
  ASSERT_EQ(ra.outcome, rb.outcome) << ra.error << " vs " << rb.error;
  ASSERT_EQ(ra.error, rb.error);

  ASSERT_EQ(jw.trace.size(), iw.trace.size());
  for (size_t i = 0; i < jw.trace.size(); ++i) {
    ASSERT_EQ(jw.trace[i], iw.trace[i]) << "first divergence at trace index " << i;
  }
  // Operand state must agree too — a store parity bug could hide from the trace.
  for (uint8_t idx : {ops::kScratch0, ops::kScratch1, ops::kResult, ops::kRequestSize,
                      ops::kFaultAddr}) {
    ASSERT_EQ(ca->operands().ReadInt(idx), cb->operands().ReadInt(idx))
        << "operand 0x" << std::hex << static_cast<int>(idx);
  }
  // And so must page state: PageWord and AgeScores write words and reference bits.
  for (uint8_t q : {ops::kFreeQueue, ops::kActiveQueue, ops::kInactiveQueue}) {
    const mach::VmPage* pa = ca->operands().ReadQueue(q)->head();
    const mach::VmPage* pb = cb->operands().ReadQueue(q)->head();
    for (; pa != nullptr && pb != nullptr; pa = pa->q_next, pb = pb->q_next) {
      ASSERT_EQ(pa->user_word, pb->user_word) << "queue 0x" << std::hex << static_cast<int>(q);
      ASSERT_EQ(pa->reference, pb->reference) << "queue 0x" << std::hex << static_cast<int>(q);
    }
    ASSERT_EQ(pa, nullptr);
    ASSERT_EQ(pb, nullptr);
  }
}

TEST(JitDifferentialTest, SeededCorpus) {
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    RunDifferential(seed);
    if (HasFatalFailure()) {
      return;
    }
  }
}

// A second band with a different generator stride, so the corpus isn't one contiguous run of
// the PRNG's low bits.
TEST(JitDifferentialTest, SeededCorpusStride) {
  for (uint64_t seed = 0x9E3779B97F4A7C15ull; seed > 0x9E3779B97F4A7C15ull - 100; --seed) {
    RunDifferential(seed);
    if (HasFatalFailure()) {
      return;
    }
  }
}

// A third band that also draws the frame commands, whose kernels the IR loop and the JIT
// bridges share: giving frames back, write-back exchanges, migration and unlinking.
TEST(JitDifferentialTest, SeededCorpusFrameCommands) {
  for (uint64_t seed = 10'001; seed <= 10'300; ++seed) {
    RunDifferential(seed, kAllFamilies);
    if (HasFatalFailure()) {
      return;
    }
  }
}

}  // namespace
}  // namespace hipec::core
