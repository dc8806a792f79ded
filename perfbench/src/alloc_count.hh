/**
 * @file
 * Heap-allocation counter, seen from outside the program.
 *
 * alloc_count.cc replaces every form of operator new and interposes the
 * C aligned_alloc that tensor storage (core/aligned.hh) uses, so it must
 * be compiled into the executable. Counting is off until enabled; when
 * off, each allocation costs one relaxed load more than the default.
 */

#ifndef PERFBENCH_ALLOC_COUNT_HH
#define PERFBENCH_ALLOC_COUNT_HH

#include <cstdint>

namespace perfbench {

struct AllocCounts
{
    uint64_t allocs = 0;
    uint64_t bytes = 0;
};

void setAllocCounting(bool on);

/** Totals counted while counting was on, across all threads. */
AllocCounts allocCounts();

} // namespace perfbench

#endif // PERFBENCH_ALLOC_COUNT_HH
