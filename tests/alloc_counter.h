// Counts every operator new in a test binary: link alloc_counter.cc into the binary, which
// replaces the global operator new and delete. The replacements live in their own file so
// the compiler never sees them inlined against a standard allocation.
#ifndef HIPEC_TESTS_ALLOC_COUNTER_H_
#define HIPEC_TESTS_ALLOC_COUNTER_H_

#include <cstdint>

namespace hipec::alloc_counter {

// operator new calls so far, and the bytes they asked for.
uint64_t AllocationCount();
uint64_t AllocatedBytes();

}  // namespace hipec::alloc_counter

#endif  // HIPEC_TESTS_ALLOC_COUNTER_H_
