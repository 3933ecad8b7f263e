// Semantics tests for the policy executor: every command, the condition-flag/Jump rule,
// Activate nesting, error handling, timeout backstop, and cost charging.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "hipec/builder.h"
#include "hipec/engine.h"
#include "hipec/executor.h"
#include "hipec/frame_manager.h"
#include "mach/kernel.h"

namespace hipec::core {
namespace {

namespace ops = std_ops;
using mach::kPageSize;

mach::KernelParams SmallParams() {
  mach::KernelParams params;
  params.total_frames = 512;
  params.kernel_reserved_frames = 64;
  params.pageout.free_target = 16;
  params.pageout.free_min = 4;
  params.pageout.inactive_target = 32;
  params.hipec_build = true;
  return params;
}

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest()
      : kernel_(SmallParams()),
        manager_(&kernel_, FrameManagerConfig{0.5, 16}),
        executor_(&kernel_, &manager_) {}

  // Builds a container with the standard layout and `min_frames` private frames.
  Container* MakeContainer(PolicyProgram program, HipecOptions options = {}) {
    task_ = kernel_.CreateTask("app");
    object_ = kernel_.CreateAnonObject(64 * kPageSize);
    containers_.push_back(std::make_unique<Container>(
        next_id_++, task_, object_, std::move(program), options.min_frames,
        options.timeout_ns > 0 ? options.timeout_ns : kernel_.costs().policy_timeout_ns));
    Container* c = containers_.back().get();
    SetupStandardOperands(c, options);
    if (options.min_frames > 0) {
      EXPECT_TRUE(manager_.AdmitContainer(c));
    }
    return c;
  }

  // Wraps a single-event PageFault program (plus a trivial ReclaimFrame).
  static PolicyProgram OneEvent(std::vector<Instruction> commands) {
    PolicyProgram p;
    p.SetEvent(kEventPageFault, commands);
    EventBuilder reclaim;
    reclaim.Return(0);
    p.SetEvent(kEventReclaimFrame, reclaim.Build());
    return p;
  }

  mach::Kernel kernel_;
  GlobalFrameManager manager_;
  PolicyExecutor executor_;
  mach::Task* task_ = nullptr;
  mach::VmObject* object_ = nullptr;
  std::vector<std::unique_ptr<Container>> containers_;
  uint64_t next_id_ = 1;
};

// ---------------------------------------------------------------- Arith / Comp / Logic

struct ArithCase {
  ArithOp op;
  int64_t lhs, rhs, expected;
};

class ArithTest : public ExecutorTest, public ::testing::WithParamInterface<ArithCase> {};

TEST_P(ArithTest, ComputesInPlace) {
  const ArithCase& c = GetParam();
  EventBuilder b;
  b.Arith(ops::kScratch0, ops::kScratch1, c.op).Return(0);
  Container* container = MakeContainer(OneEvent(b.Build()));
  container->operands().WriteInt(ops::kScratch0, c.lhs);
  container->operands().WriteInt(ops::kScratch1, c.rhs);
  ExecResult result = executor_.ExecuteEvent(container, kEventPageFault);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(container->operands().ReadInt(ops::kScratch0), c.expected);
}

// Each case is named after the raw bytes of its ArithCase, padding included. A static array
// has its padding zeroed, so the names are the same on every run; temporaries built on the
// stack would carry whatever bytes were left there.
constexpr ArithCase kArithCases[] = {
    {ArithOp::kAdd, 7, 3, 10}, {ArithOp::kSub, 7, 3, 4}, {ArithOp::kMul, 7, 3, 21},
    {ArithOp::kDiv, 7, 3, 2},  {ArithOp::kMod, 7, 3, 1}, {ArithOp::kMov, 7, 3, 3},
    {ArithOp::kSub, 3, 7, -4}};

INSTANTIATE_TEST_SUITE_P(AllOps, ArithTest, ::testing::ValuesIn(kArithCases));

TEST_F(ExecutorTest, LoadImmediate) {
  EventBuilder b;
  b.LoadImm(ops::kResult, 200).Return(0);
  Container* c = MakeContainer(OneEvent(b.Build()));
  ASSERT_TRUE(executor_.ExecuteEvent(c, kEventPageFault).ok());
  EXPECT_EQ(c->operands().ReadInt(ops::kResult), 200);
}

TEST_F(ExecutorTest, DivisionByZeroIsPolicyError) {
  EventBuilder b;
  b.LoadImm(ops::kScratch1, 0)
      .Arith(ops::kScratch0, ops::kScratch1, ArithOp::kDiv)
      .Return(0);
  Container* c = MakeContainer(OneEvent(b.Build()));
  ExecResult result = executor_.ExecuteEvent(c, kEventPageFault);
  EXPECT_EQ(result.outcome, ExecOutcome::kError);
  EXPECT_NE(result.error.find("division by zero"), std::string::npos);
}

struct CompCase {
  CompOp op;
  int64_t lhs, rhs;
  bool expected;
};

class CompTest : public ExecutorTest, public ::testing::WithParamInterface<CompCase> {};

TEST_P(CompTest, SetsConditionFlag) {
  const CompCase& param = GetParam();
  EventBuilder b;
  auto false_path = b.NewLabel();
  b.Comp(ops::kScratch0, ops::kScratch1, param.op);
  b.JumpIfFalse(false_path);
  b.LoadImm(ops::kResult, 1).Return(0);
  b.Bind(false_path);
  b.LoadImm(ops::kResult, 0).Return(0);
  Container* c = MakeContainer(OneEvent(b.Build()));
  c->operands().WriteInt(ops::kScratch0, param.lhs);
  c->operands().WriteInt(ops::kScratch1, param.rhs);
  ASSERT_TRUE(executor_.ExecuteEvent(c, kEventPageFault).ok());
  EXPECT_EQ(c->operands().ReadInt(ops::kResult), param.expected ? 1 : 0);
}

// Static storage for the same reason as kArithCases.
constexpr CompCase kCompCases[] = {
    {CompOp::kGt, 5, 3, true}, {CompOp::kGt, 3, 3, false}, {CompOp::kLt, 2, 3, true},
    {CompOp::kLt, 3, 3, false}, {CompOp::kEq, 3, 3, true}, {CompOp::kEq, 2, 3, false},
    {CompOp::kNe, 2, 3, true}, {CompOp::kNe, 3, 3, false}, {CompOp::kGe, 3, 3, true},
    {CompOp::kGe, 2, 3, false}, {CompOp::kLe, 3, 3, true}, {CompOp::kLe, 4, 3, false}};

INSTANTIATE_TEST_SUITE_P(AllOps, CompTest, ::testing::ValuesIn(kCompCases));

TEST_F(ExecutorTest, NonTestCommandClearsConditionFlag) {
  // Comp makes the flag true; LoadImm (non-test) clears it; the Jump is then taken — this is
  // how Table 2's "unconditional" jumps work.
  EventBuilder b;
  auto target = b.NewLabel();
  b.Comp(ops::kScratch0, ops::kScratch0, CompOp::kEq);  // true
  b.LoadImm(ops::kScratch1, 1);                         // clears the flag
  b.JumpIfFalse(target);                                // must be taken
  b.LoadImm(ops::kResult, 99).Return(0);
  b.Bind(target);
  b.LoadImm(ops::kResult, 42).Return(0);
  Container* c = MakeContainer(OneEvent(b.Build()));
  ASSERT_TRUE(executor_.ExecuteEvent(c, kEventPageFault).ok());
  EXPECT_EQ(c->operands().ReadInt(ops::kResult), 42);
}

TEST_F(ExecutorTest, LogicOps) {
  EventBuilder b;
  b.LoadImm(ops::kScratch0, 1)
      .LoadImm(ops::kScratch1, 0)
      .Logic(ops::kScratch0, ops::kScratch1, LogicOp::kOr)    // 1|0 = 1
      .Logic(ops::kResult, ops::kScratch1, LogicOp::kNot)     // !0 = 1
      .Logic(ops::kScratch0, ops::kResult, LogicOp::kAnd)     // 1&1 = 1
      .Logic(ops::kScratch0, ops::kResult, LogicOp::kXor)     // 1^1 = 0
      .Return(0);
  Container* c = MakeContainer(OneEvent(b.Build()));
  ASSERT_TRUE(executor_.ExecuteEvent(c, kEventPageFault).ok());
  EXPECT_EQ(c->operands().ReadInt(ops::kScratch0), 0);
  EXPECT_EQ(c->operands().ReadInt(ops::kResult), 1);
}

// ---------------------------------------------------------------- queues and pages

TEST_F(ExecutorTest, DeQueueEnQueueRoundTrip) {
  EventBuilder b;
  b.DeQueueHead(ops::kPage, ops::kFreeQueue)
      .EnQueueTail(ops::kPage, ops::kActiveQueue)
      .Return(0);
  HipecOptions options;
  options.min_frames = 4;
  Container* c = MakeContainer(OneEvent(b.Build()), options);
  ASSERT_EQ(c->free_q().count(), 4u);
  ASSERT_TRUE(executor_.ExecuteEvent(c, kEventPageFault).ok());
  EXPECT_EQ(c->free_q().count(), 3u);
  EXPECT_EQ(c->active_q().count(), 1u);
}

TEST_F(ExecutorTest, DeQueueFromEmptyQueueIsPolicyError) {
  EventBuilder b;
  b.DeQueueHead(ops::kPage, ops::kActiveQueue).Return(ops::kPage);
  HipecOptions options;
  options.min_frames = 2;
  Container* c = MakeContainer(OneEvent(b.Build()), options);
  ExecResult result = executor_.ExecuteEvent(c, kEventPageFault);
  EXPECT_EQ(result.outcome, ExecOutcome::kError);
  EXPECT_NE(result.error.find("empty queue"), std::string::npos);
}

TEST_F(ExecutorTest, EnQueueOfForeignFrameIsPolicyError) {
  EventBuilder b;
  b.EnQueueTail(ops::kPage, ops::kActiveQueue).Return(0);
  HipecOptions options;
  options.min_frames = 2;
  Container* c = MakeContainer(OneEvent(b.Build()), options);
  mach::VmPage foreign;  // owner == nullptr: not this container's frame
  c->operands().WritePage(ops::kPage, &foreign);
  ExecResult result = executor_.ExecuteEvent(c, kEventPageFault);
  EXPECT_EQ(result.outcome, ExecOutcome::kError);
  EXPECT_NE(result.error.find("does not own"), std::string::npos);
}

TEST_F(ExecutorTest, EmptyQAndInQ) {
  EventBuilder b;
  auto not_empty = b.NewLabel();
  b.EmptyQ(ops::kActiveQueue);          // true: empty
  b.JumpIfFalse(not_empty);
  b.LoadImm(ops::kResult, 1);
  b.DeQueueHead(ops::kPage, ops::kFreeQueue);
  b.EnQueueTail(ops::kPage, ops::kActiveQueue);
  auto done = b.NewLabel();
  b.InQ(ops::kActiveQueue, ops::kPage);  // true now
  b.JumpIfFalse(done);
  b.LoadImm(ops::kScratch1, 7);
  b.Bind(done);
  b.Return(0);
  b.Bind(not_empty);
  b.LoadImm(ops::kResult, 0).Return(0);
  HipecOptions options;
  options.min_frames = 2;
  Container* c = MakeContainer(OneEvent(b.Build()), options);
  ASSERT_TRUE(executor_.ExecuteEvent(c, kEventPageFault).ok());
  EXPECT_EQ(c->operands().ReadInt(ops::kResult), 1);
  EXPECT_EQ(c->operands().ReadInt(ops::kScratch1), 7);
}

TEST_F(ExecutorTest, SetRefModBits) {
  EventBuilder b;
  auto after_ref = b.NewLabel();
  auto after_mod = b.NewLabel();
  b.DeQueueHead(ops::kPage, ops::kFreeQueue);
  b.SetBit(ops::kPage, PageBit::kReference, true);
  b.Ref(ops::kPage);
  b.JumpIfFalse(after_ref);
  b.LoadImm(ops::kResult, 1);
  b.Bind(after_ref);
  b.SetBit(ops::kPage, PageBit::kModify, true);
  b.SetBit(ops::kPage, PageBit::kModify, false);
  b.Mod(ops::kPage);
  b.JumpIfFalse(after_mod);
  b.LoadImm(ops::kScratch1, 9);  // would mean "still modified" — wrong
  b.Bind(after_mod);
  b.EnQueueTail(ops::kPage, ops::kFreeQueue).Return(0);
  HipecOptions options;
  options.min_frames = 2;
  Container* c = MakeContainer(OneEvent(b.Build()), options);
  ASSERT_TRUE(executor_.ExecuteEvent(c, kEventPageFault).ok());
  EXPECT_EQ(c->operands().ReadInt(ops::kResult), 1);
  EXPECT_EQ(c->operands().ReadInt(ops::kScratch1), 0);
}

// ---------------------------------------------------------------- Activate

TEST_F(ExecutorTest, ActivateRunsAnotherEventLikeAProcedureCall) {
  PolicyProgram p;
  EventBuilder fault;
  fault.Activate(kFirstUserEvent).LoadImm(ops::kScratch1, 5).Return(0);
  p.SetEvent(kEventPageFault, fault.Build());
  EventBuilder reclaim;
  reclaim.Return(0);
  p.SetEvent(kEventReclaimFrame, reclaim.Build());
  EventBuilder user;
  user.LoadImm(ops::kResult, 77).Return(0);
  p.SetEvent(kFirstUserEvent, user.Build());
  Container* c = MakeContainer(std::move(p));
  ASSERT_TRUE(executor_.ExecuteEvent(c, kEventPageFault).ok());
  EXPECT_EQ(c->operands().ReadInt(ops::kResult), 77);   // callee ran
  EXPECT_EQ(c->operands().ReadInt(ops::kScratch1), 5);  // and control returned
}

TEST_F(ExecutorTest, ActivateRecursionLimited) {
  PolicyProgram p;
  EventBuilder fault;
  fault.Activate(kFirstUserEvent).Return(0);
  p.SetEvent(kEventPageFault, fault.Build());
  EventBuilder reclaim;
  reclaim.Return(0);
  p.SetEvent(kEventReclaimFrame, reclaim.Build());
  EventBuilder user;
  user.Activate(kFirstUserEvent).Return(0);  // self-recursion
  p.SetEvent(kFirstUserEvent, user.Build());
  Container* c = MakeContainer(std::move(p));
  ExecResult result = executor_.ExecuteEvent(c, kEventPageFault);
  EXPECT_EQ(result.outcome, ExecOutcome::kError);
  EXPECT_NE(result.error.find("recursion"), std::string::npos);
}

// ---------------------------------------------------------------- Request / Release / Flush

TEST_F(ExecutorTest, RequestGrantsFramesAllOrNothing) {
  EventBuilder b;
  auto failed = b.NewLabel();
  b.Request(ops::kRequestSize, ops::kFreeQueue);
  b.JumpIfFalse(failed);
  b.LoadImm(ops::kResult, 1).Return(0);
  b.Bind(failed);
  b.LoadImm(ops::kResult, 0).Return(0);
  HipecOptions options;
  options.min_frames = 4;
  options.request_size = 10;
  Container* c = MakeContainer(OneEvent(b.Build()), options);
  ASSERT_TRUE(executor_.ExecuteEvent(c, kEventPageFault).ok());
  EXPECT_EQ(c->operands().ReadInt(ops::kResult), 1);
  EXPECT_EQ(c->free_q().count(), 14u);
  EXPECT_EQ(c->allocated_frames, 14u);
  EXPECT_EQ(manager_.total_specific(), 14u);
}

TEST_F(ExecutorTest, OversizedRequestRejectedWithoutHanging) {
  EventBuilder b;
  auto failed = b.NewLabel();
  b.Request(ops::kRequestSize, ops::kFreeQueue);
  b.JumpIfFalse(failed);
  b.LoadImm(ops::kResult, 1).Return(0);
  b.Bind(failed);
  b.LoadImm(ops::kResult, 0).Return(0);
  HipecOptions options;
  options.min_frames = 4;
  options.request_size = 100'000;  // far beyond physical memory
  Container* c = MakeContainer(OneEvent(b.Build()), options);
  ASSERT_TRUE(executor_.ExecuteEvent(c, kEventPageFault).ok());
  EXPECT_EQ(c->operands().ReadInt(ops::kResult), 0);  // the executor observed the rejection
  EXPECT_EQ(c->allocated_frames, 4u);
}

TEST_F(ExecutorTest, ReleaseReturnsFramesToTheSystem) {
  EventBuilder b;
  b.Release(ops::kFreeQueue).Return(0);
  HipecOptions options;
  options.min_frames = 4;
  Container* c = MakeContainer(OneEvent(b.Build()), options);
  size_t daemon_free = kernel_.daemon().free_count();
  ASSERT_TRUE(executor_.ExecuteEvent(c, kEventPageFault).ok());
  EXPECT_EQ(c->allocated_frames, 3u);
  EXPECT_EQ(kernel_.daemon().free_count(), daemon_free + 1);
}

TEST_F(ExecutorTest, FlushOfCleanUnmappedPageReturnsSamePage) {
  EventBuilder b;
  b.DeQueueHead(ops::kPage, ops::kFreeQueue)
      .Flush(ops::kPage)
      .EnQueueTail(ops::kPage, ops::kFreeQueue)
      .Return(0);
  HipecOptions options;
  options.min_frames = 2;
  Container* c = MakeContainer(OneEvent(b.Build()), options);
  ASSERT_TRUE(executor_.ExecuteEvent(c, kEventPageFault).ok());
  EXPECT_EQ(c->free_q().count(), 2u);
  EXPECT_EQ(manager_.counters().Get("manager.flushes_clean"), 1);
}

// ---------------------------------------------------------------- failure modes & costs

TEST_F(ExecutorTest, RunawayLoopHitsBackstop) {
  EventBuilder b;
  auto loop = b.NewLabel();
  b.Bind(loop);
  b.ClearCondition();
  b.JumpIfFalse(loop);
  b.Return(0);  // unreachable, satisfies the validator
  Container* c = MakeContainer(OneEvent(b.Build()));
  executor_.set_max_commands(10'000);
  ExecResult result = executor_.ExecuteEvent(c, kEventPageFault);
  EXPECT_EQ(result.outcome, ExecOutcome::kTimeout);
  EXPECT_GE(result.commands_executed, 10'000);
}

TEST_F(ExecutorTest, FallingOffTheStreamIsPolicyError) {
  PolicyProgram p;
  // Bypass the builder/validator: a stream that just ends after a Comp.
  p.SetEventRaw(kEventPageFault,
                {kHipecMagic, Instruction{Opcode::kComp, ops::kScratch0, ops::kScratch1,
                                          static_cast<uint8_t>(CompOp::kEq)}
                                  .Encode()});
  EventBuilder reclaim;
  reclaim.Return(0);
  p.SetEventRaw(kEventReclaimFrame, {kHipecMagic, Instruction{}.Encode()});
  Container* c = MakeContainer(std::move(p));
  ExecResult result = executor_.ExecuteEvent(c, kEventPageFault);
  EXPECT_EQ(result.outcome, ExecOutcome::kError);
}

TEST_F(ExecutorTest, ChargesInvokePlusPerCommandDecode) {
  EventBuilder b;
  b.LoadImm(ops::kScratch0, 1).LoadImm(ops::kScratch1, 2).Return(0);  // 3 commands
  Container* c = MakeContainer(OneEvent(b.Build()));
  sim::Nanos before = kernel_.clock().now();
  ASSERT_TRUE(executor_.ExecuteEvent(c, kEventPageFault).ok());
  sim::Nanos elapsed = kernel_.clock().now() - before;
  const sim::CostModel& costs = kernel_.costs();
  EXPECT_EQ(elapsed, costs.policy_invoke_ns + 3 * costs.command_decode_ns);
}

TEST_F(ExecutorTest, TimestampSetDuringAndClearedAfterExecution) {
  EventBuilder b;
  b.Return(0);
  Container* c = MakeContainer(OneEvent(b.Build()));
  EXPECT_EQ(c->exec_start_ns, -1);
  ASSERT_TRUE(executor_.ExecuteEvent(c, kEventPageFault).ok());
  EXPECT_EQ(c->exec_start_ns, -1);
  EXPECT_GT(c->commands_executed, 0);
}

// ---------------------------------------------------------------- complex commands

class ComplexCommandTest : public ExecutorTest,
                           public ::testing::WithParamInterface<Opcode> {};

TEST_P(ComplexCommandTest, EvictsAccordingToPolicy) {
  Opcode op = GetParam();
  EventBuilder b;
  switch (op) {
    case Opcode::kFifo:
      b.Fifo(ops::kActiveQueue, ops::kPage);
      break;
    case Opcode::kLru:
      b.Lru(ops::kActiveQueue, ops::kPage);
      break;
    default:
      b.Mru(ops::kActiveQueue, ops::kPage);
      break;
  }
  b.EnQueueTail(ops::kPage, ops::kFreeQueue).Return(ops::kPage);
  HipecOptions options;
  options.min_frames = 3;
  Container* c = MakeContainer(OneEvent(b.Build()), options);

  // Stage three pages on the active queue with known arrival and recency orders:
  // arrival p0,p1,p2; recency p1 oldest, then p2, then p0 most recent.
  mach::VmPage* p0 = c->free_q().DequeueHead();
  mach::VmPage* p1 = c->free_q().DequeueHead();
  mach::VmPage* p2 = c->free_q().DequeueHead();
  c->active_q().EnqueueTail(p0, 0);
  c->active_q().EnqueueTail(p1, 1);
  c->active_q().EnqueueTail(p2, 2);
  p1->last_reference_ns = 10;
  p2->last_reference_ns = 20;
  p0->last_reference_ns = 30;

  ASSERT_TRUE(executor_.ExecuteEvent(c, kEventPageFault).ok());
  mach::VmPage* victim = c->free_q().head();
  ASSERT_NE(victim, nullptr);
  switch (op) {
    case Opcode::kFifo:
      EXPECT_EQ(victim, p0);  // first arrived
      break;
    case Opcode::kLru:
      EXPECT_EQ(victim, p1);  // least recently used
      break;
    default:
      EXPECT_EQ(victim, p0);  // most recently used
      break;
  }
  EXPECT_EQ(c->active_q().count(), 2u);
}

INSTANTIATE_TEST_SUITE_P(Policies, ComplexCommandTest,
                         ::testing::Values(Opcode::kFifo, Opcode::kLru, Opcode::kMru));

TEST_F(ExecutorTest, ComplexCommandOnEmptyQueueIsPolicyError) {
  EventBuilder b;
  b.Lru(ops::kActiveQueue, ops::kPage).Return(ops::kPage);
  HipecOptions options;
  options.min_frames = 2;
  Container* c = MakeContainer(OneEvent(b.Build()), options);
  ExecResult result = executor_.ExecuteEvent(c, kEventPageFault);
  EXPECT_EQ(result.outcome, ExecOutcome::kError);
}

}  // namespace
}  // namespace hipec::core
