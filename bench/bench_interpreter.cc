// Host-side microbenchmarks (google-benchmark): raw speed of the simulator's hot paths —
// instruction codec, page-queue operations, the policy executor's interpretation loop, and
// the pseudo-code translator. These measure the *reproduction's* performance, not the
// paper's virtual-time results (those live in bench_table*/bench_figure*).
//
// The executor benchmarks run the production IR interpreter. After the google-benchmark
// tables, main() emits one JSON object per line summarizing interpretation throughput
// (commands/sec, ns/command) — grep for lines starting with '{' to consume them from scripts.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "hipec/builder.h"
#include "hipec/engine.h"
#include "hipec/executor.h"
#include "lang/compiler.h"
#include "mach/kernel.h"
#include "policies/policies.h"

namespace {

using namespace hipec;  // NOLINT: bench driver
using mach::kPageSize;
namespace ops = core::std_ops;

void BM_InstructionCodec(benchmark::State& state) {
  uint32_t word = 0x02020C01;
  for (auto _ : state) {
    core::Instruction inst = core::Instruction::Decode(word);
    benchmark::DoNotOptimize(word = inst.Encode());
  }
}
BENCHMARK(BM_InstructionCodec);

void BM_PageQueueChurn(benchmark::State& state) {
  mach::PageQueue queue("bench");
  std::vector<mach::VmPage> pages(64);
  for (auto& p : pages) {
    queue.EnqueueTail(&p, 0);
  }
  for (auto _ : state) {
    mach::VmPage* page = queue.DequeueHead();
    queue.EnqueueTail(page, 0);
    benchmark::DoNotOptimize(page);
  }
}
BENCHMARK(BM_PageQueueChurn);

// One full PageFault-event interpretation (free-list fast path) per iteration.
void BM_ExecutorSimpleFault_Ir(benchmark::State& state) {
  mach::KernelParams params;
  params.hipec_build = true;
  mach::Kernel kernel(params);
  core::HipecEngine engine(&kernel);
  mach::Task* task = kernel.CreateTask("bench");
  core::HipecOptions options;
  options.min_frames = 16;
  core::HipecRegion region =
      engine.VmAllocateHipec(task, 32 * kPageSize,
                             policies::FifoPolicy(policies::CommandStyle::kSimple), options);
  core::Container* container = region.container;
  core::PolicyExecutor& executor = engine.executor();
  executor.set_dispatch_mode(core::DispatchMode::kDecodedIr);
  for (auto _ : state) {
    core::ExecResult result = executor.ExecuteEvent(container, core::kEventPageFault);
    // Put the page back so the free list never drains.
    mach::VmPage* page = container->operands().ReadPage(result.return_operand);
    container->free_q().EnqueueTail(page, 0);
    container->operands().WritePage(result.return_operand, nullptr);
    benchmark::DoNotOptimize(result.commands_executed);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExecutorSimpleFault_Ir);

// The sustained-throughput workload: a 100-iteration compare/branch/arithmetic loop per
// event (~400 commands). Shared by the google-benchmark cases and the JSON summary below.
core::PolicyProgram ArithLoopProgram() {
  core::EventBuilder b;
  auto loop = b.NewLabel();
  auto done = b.NewLabel();
  b.LoadImm(ops::kScratch0, 100);
  b.LoadImm(ops::kScratch1, 1);
  b.Bind(loop);
  b.Comp(ops::kScratch0, ops::kScratch1, core::CompOp::kGt);
  b.JumpIfFalse(done);
  b.Arith(ops::kScratch0, ops::kScratch1, core::ArithOp::kSub);
  b.JumpIfFalse(loop);
  b.Bind(done);
  b.Return(0);
  core::PolicyProgram program;
  program.SetEvent(core::kEventPageFault, b.Build());
  core::EventBuilder reclaim;
  reclaim.Return(0);
  program.SetEvent(core::kEventReclaimFrame, reclaim.Build());
  return program;
}

// Sustained interpretation throughput; items = HiPEC commands interpreted.
void BM_ExecutorArithLoop_Ir(benchmark::State& state) {
  mach::KernelParams params;
  params.hipec_build = true;
  mach::Kernel kernel(params);
  core::GlobalFrameManager manager(&kernel, {});
  core::PolicyExecutor executor(&kernel, &manager);
  executor.set_dispatch_mode(core::DispatchMode::kDecodedIr);

  mach::Task* task = kernel.CreateTask("bench");
  mach::VmObject* object = kernel.CreateAnonObject(4 * kPageSize);
  core::Container container(1, task, object, ArithLoopProgram(), 0, sim::kSecond);
  core::SetupStandardOperands(&container, {});

  int64_t commands = 0;
  for (auto _ : state) {
    core::ExecResult result = executor.ExecuteEvent(&container, core::kEventPageFault);
    commands += result.commands_executed;
  }
  state.SetItemsProcessed(commands);
}
BENCHMARK(BM_ExecutorArithLoop_Ir);

void BM_TranslatorCompile(benchmark::State& state) {
  const std::string source = R"(
Event PageFault() {
  if (_free_count > reserved_target)
    page = de_queue_head(_free_queue)
  else begin
    page = mru(_active_queue)
    if (page.dirty) flush(page)
  endif
  return(page)
}
Event ReclaimFrame() {
  while (reclaim_count > 0) {
    release(_free_queue)
    reclaim_count = reclaim_count - 1
  }
}
)";
  for (auto _ : state) {
    lang::CompiledPolicy compiled = lang::CompilePolicy(source);
    benchmark::DoNotOptimize(compiled.program.TotalWords());
  }
}
BENCHMARK(BM_TranslatorCompile);

void BM_KernelTouchTlbHit(benchmark::State& state) {
  mach::Kernel kernel{mach::KernelParams{}};
  mach::Task* task = kernel.CreateTask("bench");
  uint64_t addr = kernel.VmAllocate(task, 4 * kPageSize);
  kernel.Touch(task, addr, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel.Touch(task, addr, false));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KernelTouchTlbHit);

// Direct (host-clock) measurement of the arith-loop workload for the JSON summary.
double MeasureCommandsPerSec() {
  mach::KernelParams params;
  params.hipec_build = true;
  mach::Kernel kernel(params);
  core::GlobalFrameManager manager(&kernel, {});
  core::PolicyExecutor executor(&kernel, &manager);
  executor.set_dispatch_mode(core::DispatchMode::kDecodedIr);

  mach::Task* task = kernel.CreateTask("bench");
  mach::VmObject* object = kernel.CreateAnonObject(4 * kPageSize);
  core::Container container(1, task, object, ArithLoopProgram(), 0, sim::kSecond);
  core::SetupStandardOperands(&container, {});

  for (int i = 0; i < 2'000; ++i) {  // warm up caches, branch predictors, lazy decode
    executor.ExecuteEvent(&container, core::kEventPageFault);
  }
  constexpr int kEvents = 50'000;
  int64_t commands = 0;
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kEvents; ++i) {
    commands += executor.ExecuteEvent(&container, core::kEventPageFault).commands_executed;
  }
  std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  return static_cast<double>(commands) / elapsed.count();
}

void EmitJsonSummary() {
  double cps = MeasureCommandsPerSec();
  bench::JsonLine()
      .Str("bench", "executor_arith_loop")
      .Str("mode", "decoded_ir")
      .Num("commands_per_sec", cps, 0)
      .Num("ns_per_command", 1e9 / cps)
      .Emit();
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  EmitJsonSummary();
  return 0;
}
