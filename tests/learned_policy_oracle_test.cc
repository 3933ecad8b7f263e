// Differential oracle for the AgeScores command. The interpreted AWRP and perceptron
// programs it replaced — one DeQueue / PageWord / EnQueue rotation of the active queue per
// eviction, 25-45 commands per page — are kept here as references. Two checks hold them to
// the AgeScores programs of src/policies/:
//   * whole runs: every tournament workload and canned trace, both dispatch modes, must end
//     with the same fault count, the same learned weight and the same resident pages in the
//     same queue order with the same score words;
//   * single passes: one AgeScores against one interpreted rotation over randomized queues —
//     extreme words, random reference and dirty bits, weights at the int64 limits.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "hipec/builder.h"
#include "hipec/engine.h"
#include "hipec/executor.h"
#include "hipec/frame_manager.h"
#include "mach/kernel.h"
#include "policies/policies.h"
#include "workloads/registry.h"
#include "workloads/workload_source.h"

namespace hipec::policies {
namespace {

using core::ArithOp;
using core::CompOp;
using core::EventBuilder;
using core::HipecOptions;
using core::PageBit;
using core::PolicyProgram;
using mach::kPageSize;
namespace ops = core::std_ops;

// ------------------------------------------------------------------ reference programs

void EmitFreeListFastPath(EventBuilder& b, EventBuilder::Label evict) {
  b.Comp(ops::kFreeCount, ops::kReservedTarget, CompOp::kGt);
  b.JumpIfFalse(evict);
  b.DeQueueHead(ops::kPage, ops::kFreeQueue);
  b.Return(ops::kPage);
}

void EmitFlushAndReturn(EventBuilder& b) {
  auto clean = b.NewLabel();
  b.Mod(ops::kPage);
  b.JumpIfFalse(clean);
  b.Flush(ops::kPage);
  b.Bind(clean);
  b.Return(ops::kPage);
}

// AWRP's interpreted rotation: each active page is dequeued, its word unpacked, rewarded by
// `reward` if referenced (clearing the bit) or aged by 1 down to 0, repacked as
// score * 1024 + countdown and re-enqueued at the tail. Falls through when done.
void EmitAwrpRotation(EventBuilder& b, uint8_t reward) {
  auto loop = b.NewLabel();
  auto done = b.NewLabel();
  auto unreferenced = b.NewLabel();
  auto store = b.NewLabel();
  b.Arith(ops::kScratch0, ops::kActiveCount, ArithOp::kMov);
  b.Bind(loop);
  b.LoadImm(ops::kScratch1, 0);
  b.Comp(ops::kScratch0, ops::kScratch1, CompOp::kGt);
  b.JumpIfFalse(done);
  b.DeQueueHead(ops::kPage, ops::kActiveQueue);
  b.PageWordLoad(ops::kPage, ops::kResult);
  b.LoadImm(ops::kScratch1, 32);
  b.Arith(ops::kScratch1, ops::kScratch1, ArithOp::kMul);
  b.Arith(ops::kResult, ops::kScratch1, ArithOp::kDiv);
  b.Ref(ops::kPage);
  b.JumpIfFalse(unreferenced);
  b.LoadImm(ops::kScratch1, reward);
  b.Arith(ops::kResult, ops::kScratch1, ArithOp::kAdd);
  b.SetBit(ops::kPage, PageBit::kReference, false);
  b.JumpIfFalse(store);
  b.Bind(unreferenced);
  b.LoadImm(ops::kScratch1, 0);
  b.Comp(ops::kResult, ops::kScratch1, CompOp::kGt);
  b.JumpIfFalse(store);
  b.LoadImm(ops::kScratch1, 1);
  b.Arith(ops::kResult, ops::kScratch1, ArithOp::kSub);
  b.Bind(store);
  b.LoadImm(ops::kScratch1, 32);
  b.Arith(ops::kScratch1, ops::kScratch1, ArithOp::kMul);
  b.Arith(ops::kResult, ops::kScratch1, ArithOp::kMul);
  b.Arith(ops::kResult, ops::kScratch0, ArithOp::kAdd);
  b.PageWordStore(ops::kPage, ops::kResult);
  b.EnQueueTail(ops::kPage, ops::kActiveQueue);
  b.LoadImm(ops::kScratch1, 1);
  b.Arith(ops::kScratch0, ops::kScratch1, ArithOp::kSub);
  b.JumpIfFalse(loop);
  b.Bind(done);
}

// The reference perceptron's layout: SatDotProduct reads w0..w2 then f0..f2.
namespace ref_ops {
constexpr uint8_t kW0 = ops::kUserBase;
constexpr uint8_t kW1 = ops::kUserBase + 1;
constexpr uint8_t kW2 = ops::kUserBase + 2;
constexpr uint8_t kF0 = ops::kUserBase + 3;
constexpr uint8_t kF1 = ops::kUserBase + 4;
constexpr uint8_t kF2 = ops::kUserBase + 5;
constexpr uint8_t kPred = ops::kUserBase + 6;
constexpr uint8_t kAccum = ops::kUserBase + 7;
constexpr uint8_t kDelta = ops::kUserBase + 8;
}  // namespace ref_ops

HipecOptions ReferencePerceptronOptions() {
  HipecOptions options;
  options.user_int_count = 9;
  options.user_int_inits = {
      {ref_ops::kW0, 64, /*read_only=*/false},
      {ref_ops::kW1, 8, /*read_only=*/false},
      {ref_ops::kW2, 1, /*read_only=*/false},
  };
  return options;
}

// The perceptron's interpreted rotation: unpack (accum * 2 + pred) * 1024 + countdown, read
// the features, vote into kDelta on mispredictions, fold the saturating dot product into
// the decayed accumulator, repack with this round's reference bit as the next prediction.
void EmitPerceptronRotation(EventBuilder& b) {
  namespace rp = ref_ops;
  auto loop = b.NewLabel();
  auto done = b.NewLabel();
  auto f0_zero = b.NewLabel();
  auto f0_done = b.NewLabel();
  auto f1_zero = b.NewLabel();
  auto f1_done = b.NewLabel();
  auto check_down = b.NewLabel();
  auto train_done = b.NewLabel();
  auto no_decay = b.NewLabel();
  b.LoadImm(rp::kDelta, 0);
  b.Arith(ops::kScratch0, ops::kActiveCount, ArithOp::kMov);
  b.Bind(loop);
  b.LoadImm(ops::kScratch1, 0);
  b.Comp(ops::kScratch0, ops::kScratch1, CompOp::kGt);
  b.JumpIfFalse(done);
  b.DeQueueHead(ops::kPage, ops::kActiveQueue);
  b.PageWordLoad(ops::kPage, ops::kResult);
  b.LoadImm(ops::kScratch1, 32);
  b.Arith(ops::kScratch1, ops::kScratch1, ArithOp::kMul);
  b.Arith(ops::kResult, ops::kScratch1, ArithOp::kDiv);
  b.LoadImm(ops::kScratch1, 2);
  b.Arith(rp::kPred, ops::kResult, ArithOp::kMov);
  b.Arith(rp::kPred, ops::kScratch1, ArithOp::kMod);
  b.Arith(rp::kAccum, ops::kResult, ArithOp::kMov);
  b.Arith(rp::kAccum, ops::kScratch1, ArithOp::kDiv);
  b.Ref(ops::kPage);
  b.JumpIfFalse(f0_zero);
  b.LoadImm(rp::kF0, 1);
  b.SetBit(ops::kPage, PageBit::kReference, false);
  b.JumpIfFalse(f0_done);
  b.Bind(f0_zero);
  b.LoadImm(rp::kF0, 0);
  b.Bind(f0_done);
  b.Mod(ops::kPage);
  b.JumpIfFalse(f1_zero);
  b.LoadImm(rp::kF1, 1);
  b.JumpIfFalse(f1_done);
  b.Bind(f1_zero);
  b.LoadImm(rp::kF1, 0);
  b.Bind(f1_done);
  b.LoadImm(rp::kF2, 1);
  b.Comp(rp::kF0, rp::kPred, CompOp::kGt);
  b.JumpIfFalse(check_down);
  b.LoadImm(ops::kScratch1, 1);
  b.Arith(rp::kDelta, ops::kScratch1, ArithOp::kAdd);
  b.JumpIfFalse(train_done);
  b.Bind(check_down);
  b.Comp(rp::kPred, rp::kF0, CompOp::kGt);
  b.JumpIfFalse(train_done);
  b.LoadImm(ops::kScratch1, 1);
  b.Arith(rp::kDelta, ops::kScratch1, ArithOp::kSub);
  b.Bind(train_done);
  b.SatDotProduct(ops::kResult, rp::kW0, 3);
  b.LoadImm(ops::kScratch1, 0);
  b.Comp(rp::kAccum, ops::kScratch1, CompOp::kGt);
  b.JumpIfFalse(no_decay);
  b.LoadImm(ops::kScratch1, 1);
  b.Arith(rp::kAccum, ops::kScratch1, ArithOp::kSub);
  b.Bind(no_decay);
  b.Arith(rp::kAccum, ops::kResult, ArithOp::kAdd);
  b.LoadImm(ops::kScratch1, 2);
  b.Arith(rp::kAccum, ops::kScratch1, ArithOp::kMul);
  b.Arith(rp::kAccum, rp::kF0, ArithOp::kAdd);
  b.LoadImm(ops::kScratch1, 32);
  b.Arith(ops::kScratch1, ops::kScratch1, ArithOp::kMul);
  b.Arith(rp::kAccum, ops::kScratch1, ArithOp::kMul);
  b.Arith(rp::kAccum, ops::kScratch0, ArithOp::kAdd);
  b.PageWordStore(ops::kPage, rp::kAccum);
  b.EnQueueTail(ops::kPage, ops::kActiveQueue);
  b.LoadImm(ops::kScratch1, 1);
  b.Arith(ops::kScratch0, ops::kScratch1, ArithOp::kSub);
  b.JumpIfFalse(loop);
  b.Bind(done);
}

PolicyProgram WithReclaim(std::vector<core::Instruction> fault) {
  PolicyProgram program;
  program.SetEvent(core::kEventPageFault, std::move(fault));
  program.SetEvent(core::kEventReclaimFrame, StandardReclaimEvent());
  return program;
}

PolicyProgram ReferenceAwrpPolicy() {
  EventBuilder b;
  auto evict = b.NewLabel();
  EmitFreeListFastPath(b, evict);
  b.Bind(evict);
  EmitAwrpRotation(b, 64);
  b.WeightedSelectMin(ops::kActiveQueue, ops::kPage);
  EmitFlushAndReturn(b);
  return WithReclaim(b.Build());
}

PolicyProgram ReferencePerceptronPolicy() {
  namespace rp = ref_ops;
  EventBuilder b;
  auto evict = b.NewLabel();
  auto w0_low_ok = b.NewLabel();
  auto w0_high_ok = b.NewLabel();
  EmitFreeListFastPath(b, evict);
  b.Bind(evict);
  EmitPerceptronRotation(b);
  b.Arith(rp::kW0, rp::kDelta, ArithOp::kAdd);
  b.LoadImm(ops::kScratch1, 1);
  b.Comp(rp::kW0, ops::kScratch1, CompOp::kLt);
  b.JumpIfFalse(w0_low_ok);
  b.Arith(rp::kW0, ops::kScratch1, ArithOp::kMov);
  b.Bind(w0_low_ok);
  b.LoadImm(ops::kScratch1, 96);
  b.Comp(rp::kW0, ops::kScratch1, CompOp::kGt);
  b.JumpIfFalse(w0_high_ok);
  b.Arith(rp::kW0, ops::kScratch1, ArithOp::kMov);
  b.Bind(w0_high_ok);
  b.WeightedSelectMin(ops::kActiveQueue, ops::kPage);
  EmitFlushAndReturn(b);
  return WithReclaim(b.Build());
}

// ------------------------------------------------------------------ whole-run oracle

struct Contestant {
  PolicyProgram program;
  HipecOptions options;
};

struct ResidentPage {
  uint64_t offset;
  int64_t word;
  bool reference;

  bool operator==(const ResidentPage&) const = default;
};

void PrintTo(const ResidentPage& p, std::ostream* os) {
  *os << "{offset=" << p.offset << " word=" << p.word << " ref=" << p.reference << "}";
}

struct RunResult {
  int64_t faults = 0;
  int64_t w0 = 0;
  std::vector<ResidentPage> active;
};

// One bench_tournament cell: 256-frame private pool, the whole stream replayed once.
RunResult Replay(const Contestant& contestant, const workloads::WorkloadSource& source,
                 bool jit) {
  RunResult out;
  mach::KernelParams params;
  params.total_frames = 1024;
  params.kernel_reserved_frames = 128;
  params.hipec_build = true;
  params.jit_mode = jit;
  mach::Kernel kernel(params);
  core::HipecEngine engine(&kernel);
  mach::Task* task = kernel.CreateTask("app");
  HipecOptions options = contestant.options;
  options.min_frames = 256;
  options.free_target = 4;
  options.inactive_target = 16;
  core::HipecRegion region = engine.VmAllocateHipec(
      task, source.region_pages() * kPageSize, contestant.program, options);
  EXPECT_TRUE(region.ok) << region.error;
  if (!region.ok) {
    return out;
  }
  std::unique_ptr<workloads::WorkloadSource> stream = source.Clone();
  workloads::Access access;
  while (stream->Next(&access)) {
    if (!kernel.Touch(task, region.addr + access.vpage * kPageSize, access.is_write())) {
      ADD_FAILURE() << "terminated: " << task->termination_reason();
      return out;
    }
  }
  out.faults = engine.counters().Get("engine.faults_handled");
  if (options.user_int_count > 0) {
    out.w0 = region.container->operands().ReadInt(ops::kUserBase);
  }
  for (const mach::VmPage* p = region.container->active_q().head(); p != nullptr;
       p = p->q_next) {
    out.active.push_back({p->offset, p->user_word, p->reference});
  }
  return out;
}

// The tournament's five synthetic workloads, then the canned traces.
const std::vector<workloads::NamedWorkload>& OracleWorkloads() {
  static const std::vector<workloads::NamedWorkload> grid = [] {
    std::vector<workloads::NamedWorkload> out = workloads::TournamentWorkloads();
    std::string error;
    for (workloads::NamedWorkload& w : workloads::LoadTraceDir(HIPEC_TRACE_DIR, &error)) {
      out.push_back(std::move(w));
    }
    EXPECT_EQ(error, "");
    return out;
  }();
  return grid;
}

constexpr int kOracleWorkloads = 8;  // 5 synthetic + 3 traces

using OracleParam = std::tuple<bool, bool, int>;  // perceptron?, jit?, workload index

class AgeScoresOracleTest : public ::testing::TestWithParam<OracleParam> {};

TEST_P(AgeScoresOracleTest, MatchesInterpretedRotation) {
  const auto [perceptron, jit, index] = GetParam();
  const std::vector<workloads::NamedWorkload>& grid = OracleWorkloads();
  ASSERT_EQ(grid.size(), static_cast<size_t>(kOracleWorkloads))
      << "expected the 5 tournament workloads and 3 traces under " << HIPEC_TRACE_DIR;
  const workloads::WorkloadSource& source = *grid[static_cast<size_t>(index)].source;

  const Contestant reference =
      perceptron ? Contestant{ReferencePerceptronPolicy(), ReferencePerceptronOptions()}
                 : Contestant{ReferenceAwrpPolicy(), {}};
  const Contestant native = perceptron ? Contestant{PerceptronPolicy(), PerceptronOptions()}
                                       : Contestant{AwrpPolicy(), {}};
  const RunResult want = Replay(reference, source, jit);
  const RunResult got = Replay(native, source, jit);
  EXPECT_GT(want.faults, 256) << "the pool never filled, so no eviction ran";
  EXPECT_EQ(got.faults, want.faults);
  EXPECT_EQ(got.w0, want.w0);
  EXPECT_EQ(got.active, want.active);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AgeScoresOracleTest,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::Range(0, kOracleWorkloads)),
    [](const ::testing::TestParamInfo<OracleParam>& info) {
      return std::string(std::get<0>(info.param) ? "perceptron" : "awrp") +
             (std::get<1>(info.param) ? "_jit_" : "_interp_") +
             std::to_string(std::get<2>(info.param));
    });

// ------------------------------------------------------------------ single-pass oracle

mach::KernelParams PassParams(bool jit) {
  mach::KernelParams params;
  params.total_frames = 512;
  params.kernel_reserved_frames = 64;
  params.hipec_build = true;
  params.jit_mode = jit;
  return params;
}

constexpr size_t kPassFrames = 48;

// A kernel, executor and one container whose PageFault event is one aging pass.
struct PassWorld {
  mach::Kernel kernel;
  core::GlobalFrameManager manager;
  core::PolicyExecutor executor;
  std::unique_ptr<core::Container> container;

  PassWorld(PolicyProgram program, bool jit)
      : kernel(PassParams(jit)), manager(&kernel, core::FrameManagerConfig{0.5, 16}),
        executor(&kernel, &manager) {
    HipecOptions options = ReferencePerceptronOptions();
    options.min_frames = kPassFrames;
    container = std::make_unique<core::Container>(
        1, kernel.CreateTask("app"), kernel.CreateAnonObject(64 * kPageSize),
        std::move(program), options.min_frames, kernel.costs().policy_timeout_ns);
    core::SetupStandardOperands(container.get(), options);
    EXPECT_TRUE(manager.AdmitContainer(container.get()));
  }

  // Rebuilds the active queue from the free list with the given page states.
  void Load(const std::vector<ResidentPage>& pages, const std::vector<bool>& dirty) {
    mach::PageQueue& active = container->active_q();
    mach::PageQueue& free = container->free_q();
    while (mach::VmPage* p = active.DequeueHead()) {
      free.EnqueueTail(p, 0);
    }
    for (size_t i = 0; i < pages.size(); ++i) {
      mach::VmPage* p = free.DequeueHead();
      p->user_word = pages[i].word;
      p->reference = pages[i].reference;
      p->modified = dirty[i];
      active.EnqueueTail(p, 0);
    }
  }

  std::vector<ResidentPage> Active() const {
    std::vector<ResidentPage> out;
    for (const mach::VmPage* p = container->active_q().head(); p != nullptr; p = p->q_next) {
      out.push_back({0, p->user_word, p->reference});
    }
    return out;
  }
};

int64_t ExtremeValue(std::mt19937_64& rng) {
  switch (rng() % 9) {
    case 0:
      return INT64_MAX;
    case 1:
      return INT64_MIN;
    case 2:
      return 0;
    case 3:
      return static_cast<int64_t>(rng() % 2048) - 1024;
    case 4:  // a score at the aging floor, packed with a position digit
      return static_cast<int64_t>(rng() % 4) * 1024 + static_cast<int64_t>(rng() % 300);
    case 5:  // near the multiply's wrap point
      return INT64_MAX - static_cast<int64_t>(rng() % 4096);
    case 6:
      return static_cast<int64_t>(rng() % 512) * 1024 + static_cast<int64_t>(rng() % 300);
    default:
      return static_cast<int64_t>(rng());
  }
}

void RunPassTrials(bool perceptron, bool jit) {
  SCOPED_TRACE(std::string(perceptron ? "perceptron" : "awrp") + (jit ? " jit" : " interp"));
  std::mt19937_64 rng(perceptron ? 0xA6E5C0DE : 0xA3B9);
  EventBuilder want_event;
  EventBuilder got_event;
  uint8_t reward = 64;
  if (perceptron) {
    EmitPerceptronRotation(want_event);
    got_event.AgeScores(ops::kActiveQueue, ref_ops::kW0, core::AgeMode::kPerceptron);
  } else {
    reward = static_cast<uint8_t>(rng());
    EmitAwrpRotation(want_event, reward);
    got_event.LoadImm(ops::kScratch1, reward)
        .AgeScores(ops::kActiveQueue, ops::kScratch1, core::AgeMode::kAwrp);
  }
  want_event.Return(0);
  got_event.Return(0);
  PassWorld want(WithReclaim(want_event.Build()), jit);
  PassWorld got(WithReclaim(got_event.Build()), jit);

  for (int trial = 0; trial < 150; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const size_t length = rng() % (kPassFrames + 1);  // the empty queue included
    std::vector<ResidentPage> pages;
    std::vector<bool> dirty;
    for (size_t i = 0; i < length; ++i) {
      pages.push_back({0, ExtremeValue(rng), rng() % 2 == 0});
      dirty.push_back(rng() % 2 == 0);
    }
    want.Load(pages, dirty);
    got.Load(pages, dirty);
    for (uint8_t w : {ref_ops::kW0, ref_ops::kW1, ref_ops::kW2}) {
      const int64_t weight = ExtremeValue(rng);
      want.container->operands().WriteInt(w, weight);
      got.container->operands().WriteInt(w, weight);
    }
    ASSERT_TRUE(want.executor.ExecuteEvent(want.container.get(), core::kEventPageFault).ok());
    ASSERT_TRUE(got.executor.ExecuteEvent(got.container.get(), core::kEventPageFault).ok());
    ASSERT_EQ(got.Active(), want.Active());
    for (const ResidentPage& p : got.Active()) {
      EXPECT_FALSE(p.reference);
    }
    if (perceptron) {
      EXPECT_EQ(got.container->operands().ReadInt(ref_ops::kW0 + 3),
                want.container->operands().ReadInt(ref_ops::kDelta));
    }
  }
}

TEST(AgeScoresPassTest, AwrpMatchesOneInterpretedRotation) {
  RunPassTrials(/*perceptron=*/false, /*jit=*/false);
  RunPassTrials(/*perceptron=*/false, /*jit=*/true);
}

TEST(AgeScoresPassTest, PerceptronMatchesOneInterpretedRotation) {
  RunPassTrials(/*perceptron=*/true, /*jit=*/false);
  RunPassTrials(/*perceptron=*/true, /*jit=*/true);
}

}  // namespace
}  // namespace hipec::policies
