// Heap-allocation counting through the replacement global operator new in alloc_count.cc.
#ifndef PERFBENCH_ALLOC_COUNT_H_
#define PERFBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace perfbench {

// Switches counting on or off process-wide (all threads).
void SetAllocCounting(bool on);
// Allocations counted since the process started (only while counting was on).
uint64_t AllocCount();

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_COUNT_H_
