// Targeted coverage for corners the module suites do not reach: extension opcode encodings,
// validator rules for Migrate/Unlink, disk write scheduling, solid-state mode details, and
// kernel edge cases.
#include <gtest/gtest.h>

#include "disk/disk_model.h"
#include "hipec/builder.h"
#include "hipec/validator.h"
#include "lang/compiler.h"
#include "mach/kernel.h"
#include "policies/policies.h"
#include "sim/random.h"

namespace hipec {
namespace {

using core::EventBuilder;
using core::Instruction;
using core::Opcode;
using core::PolicyProgram;
using mach::kPageSize;
namespace ops = core::std_ops;

// ---------------------------------------------------------------- extension opcodes

TEST(ExtensionOpcodeTest, BinaryValuesFollowTableOne) {
  EXPECT_EQ(static_cast<uint8_t>(Opcode::kMigrate), 0x14);
  EXPECT_EQ(static_cast<uint8_t>(Opcode::kUnlink), 0x15);
  EXPECT_EQ(static_cast<uint8_t>(Opcode::kWeightedSelect), 0x16);
  EXPECT_EQ(static_cast<uint8_t>(Opcode::kSatDotProduct), 0x17);
  EXPECT_EQ(static_cast<uint8_t>(Opcode::kPageWord), 0x18);
  EXPECT_EQ(static_cast<uint8_t>(Opcode::kAgeScores), 0x19);
  EXPECT_EQ(core::kOpcodeCount, 26);
  EXPECT_EQ(core::kPaperOpcodeCount, 20);
  EXPECT_TRUE(core::IsValidOpcode(0x15));
  EXPECT_TRUE(core::IsValidOpcode(0x16));
  EXPECT_TRUE(core::IsValidOpcode(0x17));
  EXPECT_TRUE(core::IsValidOpcode(0x18));
  EXPECT_TRUE(core::IsValidOpcode(0x19));
  EXPECT_FALSE(core::IsValidOpcode(0x1A));
  EXPECT_EQ(*core::OpcodeName(Opcode::kMigrate), "Migrate");
  EXPECT_EQ(*core::OpcodeName(Opcode::kUnlink), "Unlink");
  EXPECT_EQ(*core::OpcodeName(Opcode::kWeightedSelect), "WeightedSelect");
  EXPECT_EQ(*core::OpcodeName(Opcode::kSatDotProduct), "SatDotProduct");
  EXPECT_EQ(*core::OpcodeName(Opcode::kPageWord), "PageWord");
  EXPECT_EQ(*core::OpcodeName(Opcode::kAgeScores), "AgeScores");
  EXPECT_TRUE(core::SetsCondition(Opcode::kMigrate));   // success is testable
  EXPECT_FALSE(core::SetsCondition(Opcode::kUnlink));
  // The rank/score family is all non-test: results land in operands, not the flag.
  EXPECT_FALSE(core::SetsCondition(Opcode::kWeightedSelect));
  EXPECT_FALSE(core::SetsCondition(Opcode::kSatDotProduct));
  EXPECT_FALSE(core::SetsCondition(Opcode::kPageWord));
  EXPECT_FALSE(core::SetsCondition(Opcode::kAgeScores));
}

core::OperandArray StdLayout() {
  static mach::PageQueue f("f"), a("a"), i("i");
  core::OperandArray layout;
  layout.DefineQueue(ops::kFreeQueue, &f);
  layout.DefineQueueCount(ops::kFreeCount, &f);
  layout.DefineQueue(ops::kActiveQueue, &a);
  layout.DefineQueue(ops::kInactiveQueue, &i);
  layout.DefinePage(ops::kPage);
  layout.DefineInt(ops::kScratch0, 0);
  layout.DefineInt(ops::kReclaimCount, 0);
  return layout;
}

PolicyProgram WrapFault(std::vector<Instruction> commands) {
  PolicyProgram p;
  p.SetEvent(core::kEventPageFault, commands);
  EventBuilder r;
  r.Return(0);
  p.SetEvent(core::kEventReclaimFrame, r.Build());
  return p;
}

TEST(ExtensionValidatorTest, MigrateOperandTypes) {
  core::OperandArray layout = StdLayout();
  // Good: page + int.
  EventBuilder good;
  good.Migrate(ops::kPage, ops::kScratch0).Return(0);
  EXPECT_TRUE(core::ValidatePolicy(WrapFault(good.Build()), layout).empty());
  // Bad: queue where a page is required.
  EventBuilder bad1;
  bad1.Migrate(ops::kFreeQueue, ops::kScratch0).Return(0);
  EXPECT_FALSE(core::ValidatePolicy(WrapFault(bad1.Build()), layout).empty());
  // Bad: page where an int target id is required.
  EventBuilder bad2;
  bad2.Migrate(ops::kPage, ops::kPage).Return(0);
  EXPECT_FALSE(core::ValidatePolicy(WrapFault(bad2.Build()), layout).empty());
}

TEST(ExtensionValidatorTest, UnlinkRequiresPage) {
  core::OperandArray layout = StdLayout();
  EventBuilder bad;
  bad.Unlink(ops::kFreeQueue).Return(0);
  auto errors = core::ValidatePolicy(WrapFault(bad.Build()), layout);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(core::FormatErrors(errors).find("not a page"), std::string::npos);
}

TEST(ExtensionValidatorTest, WeightedSelectOperandTypes) {
  core::OperandArray layout = StdLayout();
  // Good: queue + page destination, both modes.
  EventBuilder good;
  good.WeightedSelectMin(ops::kFreeQueue, ops::kPage)
      .WeightedSelectMax(ops::kActiveQueue, ops::kPage)
      .Return(0);
  EXPECT_TRUE(core::ValidatePolicy(WrapFault(good.Build()), layout).empty());
  // Bad: page where a queue is required.
  EventBuilder bad1;
  bad1.WeightedSelectMin(ops::kPage, ops::kPage).Return(0);
  EXPECT_FALSE(core::ValidatePolicy(WrapFault(bad1.Build()), layout).empty());
  // Bad: queue where the page destination is required.
  EventBuilder bad2;
  bad2.WeightedSelectMin(ops::kFreeQueue, ops::kActiveQueue).Return(0);
  EXPECT_FALSE(core::ValidatePolicy(WrapFault(bad2.Build()), layout).empty());
  // Bad: mode byte outside {kMin, kMax}.
  EventBuilder bad3;
  bad3.Emit({Opcode::kWeightedSelect, ops::kFreeQueue, ops::kPage, 3}).Return(0);
  EXPECT_FALSE(core::ValidatePolicy(WrapFault(bad3.Build()), layout).empty());
}

TEST(ExtensionValidatorTest, SatDotProductOperandRules) {
  core::OperandArray layout = StdLayout();
  layout.DefineInt(ops::kResult, 0);
  layout.DefineInt(ops::kScratch1, 0);
  // Good: kResult..kScratch1 is a two-int run, enough for width 1.
  EventBuilder good;
  good.SatDotProduct(ops::kScratch0, ops::kResult, 1).Return(0);
  EXPECT_TRUE(core::ValidatePolicy(WrapFault(good.Build()), layout).empty());
  // Bad: width 0 and width > kMaxDotWidth.
  EventBuilder bad1;
  bad1.SatDotProduct(ops::kScratch0, ops::kResult, 0).Return(0);
  EXPECT_FALSE(core::ValidatePolicy(WrapFault(bad1.Build()), layout).empty());
  EventBuilder bad2;
  bad2.SatDotProduct(ops::kScratch0, ops::kResult,
                     static_cast<uint8_t>(core::kMaxDotWidth + 1))
      .Return(0);
  EXPECT_FALSE(core::ValidatePolicy(WrapFault(bad2.Build()), layout).empty());
  // Bad: the vector run walks into a non-int slot (kScratch0's neighbor is a queue).
  EventBuilder bad3;
  bad3.SatDotProduct(ops::kResult, ops::kScratch0, 1).Return(0);
  EXPECT_FALSE(core::ValidatePolicy(WrapFault(bad3.Build()), layout).empty());
  // Bad: destination is not writable (queue slot).
  EventBuilder bad4;
  bad4.SatDotProduct(ops::kFreeQueue, ops::kResult, 1).Return(0);
  EXPECT_FALSE(core::ValidatePolicy(WrapFault(bad4.Build()), layout).empty());
}

TEST(ExtensionValidatorTest, PageWordOperandRules) {
  core::OperandArray layout = StdLayout();
  // Good: load into a writable int, store from a readable int.
  EventBuilder good;
  good.PageWordLoad(ops::kPage, ops::kScratch0)
      .PageWordStore(ops::kPage, ops::kScratch0)
      .Return(0);
  EXPECT_TRUE(core::ValidatePolicy(WrapFault(good.Build()), layout).empty());
  // Bad: queue where the page is required.
  EventBuilder bad1;
  bad1.PageWordLoad(ops::kFreeQueue, ops::kScratch0).Return(0);
  EXPECT_FALSE(core::ValidatePolicy(WrapFault(bad1.Build()), layout).empty());
  // Bad: load destination is not an int.
  EventBuilder bad2;
  bad2.PageWordLoad(ops::kPage, ops::kFreeQueue).Return(0);
  EXPECT_FALSE(core::ValidatePolicy(WrapFault(bad2.Build()), layout).empty());
  // Bad: flag byte outside {kLoad, kStore}.
  EventBuilder bad3;
  bad3.Emit({Opcode::kPageWord, ops::kPage, ops::kScratch0, 0}).Return(0);
  EXPECT_FALSE(core::ValidatePolicy(WrapFault(bad3.Build()), layout).empty());
}

TEST(ExtensionValidatorTest, AgeScoresOperandRules) {
  core::OperandArray layout = StdLayout();
  layout.DefineInt(ops::kResult, 0);
  layout.DefineInt(ops::kScratch1, 0);
  layout.DefineInt(0x10, 64);
  layout.DefineInt(0x11, 8);
  layout.DefineInt(0x12, 1);
  layout.DefineInt(0x13, 0);
  auto rejection = [&](core::EventBuilder& b) {
    b.Return(0);
    return core::FormatErrors(core::ValidatePolicy(WrapFault(b.Build()), layout));
  };
  // Good: AWRP reads one readable int (a queue-count view counts); the perceptron reads three
  // weights and writes the vote sum after them.
  EventBuilder good;
  good.AgeScores(ops::kActiveQueue, ops::kScratch1, core::AgeMode::kAwrp)
      .AgeScores(ops::kFreeQueue, ops::kFreeCount, core::AgeMode::kAwrp)
      .AgeScores(ops::kActiveQueue, 0x10, core::AgeMode::kPerceptron);
  EXPECT_EQ(rejection(good), "");
  // op1 must be a queue.
  EventBuilder bad_queue;
  bad_queue.AgeScores(ops::kPage, ops::kScratch1, core::AgeMode::kAwrp);
  EXPECT_NE(rejection(bad_queue).find("AgeScores queue: operand is not a queue"),
            std::string::npos);
  // Mode 0 and 3 are outside {kAwrp, kPerceptron}.
  for (uint8_t mode : {0, 3}) {
    EventBuilder bad_mode;
    bad_mode.Emit({Opcode::kAgeScores, ops::kActiveQueue, ops::kScratch1, mode});
    EXPECT_NE(rejection(bad_mode).find("AgeScores mode: flag out of range"), std::string::npos)
        << "mode " << static_cast<int>(mode);
  }
  // The perceptron's four-slot run must end by slot 255.
  EventBuilder bad_run;
  bad_run.AgeScores(ops::kActiveQueue, 0xFD, core::AgeMode::kPerceptron);
  EXPECT_NE(rejection(bad_run).find("AgeScores operands: parameter run past the operand array"),
            std::string::npos);
  // Every weight must be a readable int: kFreeQueue sits in the reward slot and a queue
  // sits one past kScratch0.
  EventBuilder bad_reward;
  bad_reward.AgeScores(ops::kActiveQueue, ops::kFreeQueue, core::AgeMode::kAwrp);
  EXPECT_NE(rejection(bad_reward).find("AgeScores weight: operand is not an integer"),
            std::string::npos);
  EventBuilder bad_weight;
  bad_weight.AgeScores(ops::kActiveQueue, ops::kScratch0, core::AgeMode::kPerceptron);
  EXPECT_NE(rejection(bad_weight).find("AgeScores weight: operand is not an integer"),
            std::string::npos);
  // The votes slot must be writable: make it read-only.
  layout.DefineInt(0x13, 0, /*read_only=*/true);
  EventBuilder bad_votes;
  bad_votes.AgeScores(ops::kActiveQueue, 0x10, core::AgeMode::kPerceptron);
  EXPECT_NE(rejection(bad_votes).find("AgeScores votes: operand is not a writable integer"),
            std::string::npos);
}

// ------------------------------------------------------- saturating arithmetic kernels

TEST(SaturatingArithmeticTest, AddBoundaries) {
  EXPECT_EQ(core::SatAdd64(INT64_MAX, 1), INT64_MAX);
  EXPECT_EQ(core::SatAdd64(INT64_MAX, INT64_MAX), INT64_MAX);
  EXPECT_EQ(core::SatAdd64(INT64_MIN, -1), INT64_MIN);
  EXPECT_EQ(core::SatAdd64(INT64_MIN, INT64_MIN), INT64_MIN);
  EXPECT_EQ(core::SatAdd64(INT64_MAX, INT64_MIN), -1);  // exact, no saturation
  EXPECT_EQ(core::SatAdd64(-5, 3), -2);
}

TEST(SaturatingArithmeticTest, MulBoundaries) {
  EXPECT_EQ(core::SatMul64(INT64_MAX, 2), INT64_MAX);
  EXPECT_EQ(core::SatMul64(INT64_MIN, 2), INT64_MIN);
  EXPECT_EQ(core::SatMul64(INT64_MIN, -1), INT64_MAX);  // the -INT64_MIN overflow corner
  EXPECT_EQ(core::SatMul64(-1, INT64_MIN), INT64_MAX);
  EXPECT_EQ(core::SatMul64(INT64_MIN, 0), 0);
  EXPECT_EQ(core::SatMul64(INT64_MAX, -1), INT64_MIN + 1);  // exact
  EXPECT_EQ(core::SatMul64(-3, 7), -21);
  EXPECT_EQ(core::SatMul64(1LL << 32, 1LL << 32), INT64_MAX);
}

TEST(SaturatingArithmeticTest, DotProductSaturatesPerTermAndPerSum) {
  core::OperandEntry slots[4] = {};
  slots[0].int_value = INT64_MAX;
  slots[1].int_value = 2;  // weights
  slots[2].int_value = 2;
  slots[3].int_value = INT64_MAX;  // features
  // w0*f0 saturates high; w1*f1 saturates high; the saturating sum stays pinned.
  EXPECT_EQ(core::SatDotSlots(slots, 0, 2), INT64_MAX);
  slots[0].int_value = INT64_MIN;
  slots[3].int_value = 1;
  // INT64_MIN*2 pins low, 2*1 nudges up: the sum must saturate per step, not wrap.
  EXPECT_EQ(core::SatDotSlots(slots, 0, 2), INT64_MIN + 2);
}

// ---------------------------------------------------------------- disk details

TEST(DiskSchedulingTest, ElevatorDrainsFasterThanFifoOnScatteredWrites) {
  auto drain_time = [](disk::WriteScheduling sched) {
    sim::VirtualClock clock;
    disk::DiskModel disk(&clock, disk::DiskParams::Era1994(), /*seed=*/3, sched);
    // Alternate near/far cylinders: FIFO seeks the full span every time; the elevator
    // batches by position.
    uint64_t bpc = static_cast<uint64_t>(disk.params().BlocksPerCylinder());
    for (int i = 0; i < 40; ++i) {
      disk.WritePageAsync((i % 2 == 0 ? static_cast<uint64_t>(i) : 1000 + i) * bpc);
    }
    disk.DrainWrites();
    return clock.now();
  };
  EXPECT_LT(drain_time(disk::WriteScheduling::kElevator),
            drain_time(disk::WriteScheduling::kFifo));
}

TEST(SolidStateTest, WritePenaltyAndCounters) {
  sim::VirtualClock clock;
  disk::DiskModel flash(&clock, disk::DiskParams::Flash1994(), /*seed=*/4);
  sim::Nanos read = flash.ReadPage(10);
  sim::Nanos write = flash.WritePageSync(10);
  EXPECT_NEAR(static_cast<double>(write - flash.params().controller_overhead_ns),
              4.0 * static_cast<double>(read - flash.params().controller_overhead_ns), 1.0);
  EXPECT_EQ(flash.counters().Get("disk.reads"), 1);
  EXPECT_EQ(flash.counters().Get("disk.writes_sync"), 1);
}

TEST(SolidStateTest, AsyncWritesStillAsynchronous) {
  sim::VirtualClock clock;
  disk::DiskModel flash(&clock, disk::DiskParams::Flash1994(), /*seed=*/5);
  flash.WritePageAsync(1);
  EXPECT_EQ(clock.now(), 0);
  flash.DrainWrites();
  EXPECT_GT(clock.now(), 0);
}

// ---------------------------------------------------------------- kernel edges

TEST(KernelEdgeTest, TouchOnTerminatedTaskFails) {
  mach::Kernel kernel{mach::KernelParams{}};
  mach::Task* task = kernel.CreateTask("t");
  uint64_t addr = kernel.VmAllocate(task, 4 * kPageSize);
  kernel.TerminateTask(task, "done");
  EXPECT_FALSE(kernel.Touch(task, addr, false));
}

TEST(KernelEdgeTest, DoubleTerminateIsIdempotent) {
  mach::Kernel kernel{mach::KernelParams{}};
  mach::Task* task = kernel.CreateTask("t");
  kernel.VmAllocate(task, 4 * kPageSize);
  kernel.TerminateTask(task, "first");
  kernel.TerminateTask(task, "second");
  EXPECT_EQ(task->termination_reason(), "first");
  EXPECT_EQ(kernel.counters().Get("kernel.task_terminations"), 1);
}

TEST(KernelEdgeTest, FindObjectById) {
  mach::Kernel kernel{mach::KernelParams{}};
  mach::VmObject* file = kernel.CreateFileObject("f", 4 * kPageSize);
  EXPECT_EQ(kernel.FindObject(file->id()), file);
  EXPECT_EQ(kernel.FindObject(99999), nullptr);
}

TEST(KernelEdgeTest, DeferredChargesDrainOnNextTouch) {
  mach::Kernel kernel{mach::KernelParams{}};
  mach::Task* task = kernel.CreateTask("t");
  uint64_t addr = kernel.VmAllocate(task, 4 * kPageSize);
  EXPECT_TRUE(kernel.Touch(task, addr, false));
  kernel.AddDeferredCharge(5 * sim::kMillisecond);
  sim::Nanos before = kernel.clock().now();
  EXPECT_TRUE(kernel.Touch(task, addr, false));  // TLB hit + the stolen 5 ms
  EXPECT_EQ(kernel.clock().now() - before,
            5 * sim::kMillisecond + kernel.costs().memory_access_ns);
  EXPECT_EQ(kernel.pending_deferred_charge(), 0);
}

// ---------------------------------------------------------------- translator corners

TEST(TranslatorCornerTest, WhileWithCompoundCondition) {
  lang::CompiledPolicy compiled = lang::CompilePolicy(R"(
    Event PageFault() {
      x = 0
      y = 10
      while (x < 5 && y > 0) {
        x = x + 1
        y = y - 2
      }
      result = x * 100 + y
      page = de_queue_head(_free_queue)
      return(page)
    }
    Event ReclaimFrame() { return }
  )");
  mach::KernelParams params;
  params.hipec_build = true;
  mach::Kernel kernel(params);
  core::HipecEngine engine(&kernel);
  mach::Task* task = kernel.CreateTask("t");
  core::HipecOptions options = compiled.options;
  options.min_frames = 8;
  core::HipecRegion region =
      engine.VmAllocateHipec(task, 16 * kPageSize, compiled.program, options);
  ASSERT_TRUE(region.ok) << region.error;
  ASSERT_TRUE(kernel.Touch(task, region.addr, false)) << task->termination_reason();
  EXPECT_EQ(region.container->operands().ReadInt(ops::kResult), 500);  // x=5, y=0
}

TEST(TranslatorCornerTest, SamplePolicyFilesStayCompilable) {
  // The shipped .hp samples must always compile (the smoke tests run hipecc on them too;
  // this keeps the property inside the unit suite).
  for (const char* body : {
           "Event PageFault() { page = lru(_active_queue) return(page) }\n"
           "Event ReclaimFrame() { return }",
           "queue a\nqueue b\nconst lim = 5000\n"
           "Event PageFault() {\n"
           "  if (fault_addr > lim) { page = fifo(_active_queue) }\n"
           "  else { page = de_queue_head(_free_queue) }\n"
           "  return(page)\n}\n"
           "Event ReclaimFrame() { return }",
       }) {
    EXPECT_NO_THROW(lang::CompilePolicy(body));
  }
}

}  // namespace
}  // namespace hipec
