// The fault path allocates nothing at steady state (DESIGN.md §7), and the page tables behind
// it grow with the pages touched, not with the region size. Every operator new in this test
// binary is counted, with its bytes (alloc_counter.h).
#include <gtest/gtest.h>

#include <cstdint>

#include "alloc_counter.h"
#include "hipec/engine.h"
#include "mach/kernel.h"
#include "policies/policies.h"

namespace hipec {
namespace {

using mach::kPageSize;
using alloc_counter::AllocatedBytes;
using alloc_counter::AllocationCount;

constexpr uint64_t kRegionPages = 64;

// perfbench's fault_storm machine: 512 frames with 64 reserved, and a 16-frame private pool
// under the Table 2 FIFO-with-second-chance policy.
mach::KernelParams StormMachine(bool jit) {
  mach::KernelParams params;
  params.total_frames = 512;
  params.kernel_reserved_frames = 64;
  params.pageout.free_target = 16;
  params.pageout.free_min = 4;
  params.hipec_build = true;
  params.jit_mode = jit;
  return params;
}

core::HipecOptions StormOptions() {
  core::HipecOptions options;
  options.min_frames = 16;
  options.free_target = 4;
  options.inactive_target = 8;
  return options;
}

class FaultPathAllocTest : public ::testing::TestWithParam<bool> {};

// A region four times its pool swept in a fixed scattered order, every third touch a
// write: after warm-up every touch faults, a third of the evictions are dirty and go through
// the manager's flush exchange, the disk queue and the event heap.
TEST_P(FaultPathAllocTest, SteadyStateStormAllocatesNothing) {
  mach::Kernel kernel(StormMachine(/*jit=*/GetParam()));
  core::HipecEngine engine(&kernel);
  mach::Task* task = kernel.CreateTask("storm");
  const core::HipecRegion region = engine.VmAllocateHipec(
      task, kRegionPages * kPageSize, policies::FifoSecondChancePolicy(), StormOptions());
  ASSERT_TRUE(region.ok) << region.error;

  uint64_t touches = 0;
  auto sweep = [&] {
    bool ok = true;
    for (uint64_t i = 0; i < kRegionPages; ++i) {
      const uint64_t page = i * 37 % kRegionPages;
      ok &= kernel.Touch(task, region.addr + page * kPageSize, touches++ % 3 == 0);
    }
    return ok;
  };
  for (int s = 0; s < 50; ++s) {
    ASSERT_TRUE(sweep());
  }

  const int64_t faults_before = kernel.counters().Get("kernel.page_faults");
  const uint64_t calls_before = AllocationCount();
  const uint64_t bytes_before = AllocatedBytes();
  bool ok = true;
  for (int s = 0; s < 200; ++s) {
    ok &= sweep();
  }
  const uint64_t calls = AllocationCount() - calls_before;
  const uint64_t bytes = AllocatedBytes() - bytes_before;

  ASSERT_TRUE(ok);
  EXPECT_EQ(kernel.counters().Get("kernel.page_faults") - faults_before,
            static_cast<int64_t>(200 * kRegionPages));
  EXPECT_EQ(calls, 0u) << bytes << " bytes over " << 200 * kRegionPages << " faults";
  kernel.TerminateTask(task, "done");  // tears the region down, freeing its container
}

INSTANTIATE_TEST_SUITE_P(JitMode, FaultPathAllocTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "jit" : "interpreter";
                         });

// The largest regions the repository accepts: hipecd's 2^22-page specific regions and the
// 2^40-page anonymous regions a `.hpt` trace may declare. A fault at each end of both costs a
// handful of page-table nodes; a dense table would cost 32 MiB for the first alone.
TEST(SparseRegionAllocTest, HugeRegionsCostOnlyTheirTouchedPages) {
  mach::Kernel kernel(StormMachine(/*jit=*/false));
  core::HipecEngine engine(&kernel);
  mach::Task* task = kernel.CreateTask("huge");
  const uint64_t bytes_before = AllocatedBytes();

  constexpr uint64_t kHipecPages = uint64_t{1} << 22;
  const core::HipecRegion region = engine.VmAllocateHipec(
      task, kHipecPages * kPageSize, policies::FifoSecondChancePolicy(), StormOptions());
  ASSERT_TRUE(region.ok) << region.error;
  EXPECT_TRUE(kernel.Touch(task, region.addr, /*is_write=*/true));
  EXPECT_TRUE(kernel.Touch(task, region.addr + (kHipecPages - 1) * kPageSize, true));

  constexpr uint64_t kAnonPages = uint64_t{1} << 40;
  const uint64_t anon = kernel.VmAllocate(task, kAnonPages * kPageSize);
  EXPECT_TRUE(kernel.Touch(task, anon, /*is_write=*/true));
  EXPECT_TRUE(kernel.Touch(task, anon + (kAnonPages - 1) * kPageSize, true));

  EXPECT_LT(AllocatedBytes() - bytes_before, 1u << 20);
  EXPECT_EQ(kernel.counters().Get("kernel.page_faults"), 4);
  kernel.TerminateTask(task, "done");
}

}  // namespace
}  // namespace hipec
