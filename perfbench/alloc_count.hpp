// Allocation counting for the benchmark binary: global operator new is
// replaced (alloc_count.cpp) so the traced run can report allocations per
// segment without touching program code.
#pragma once

#include <cstdint>

namespace perfbench {

// Allocations made by the calling thread so far. Always counted (a plain
// thread-local increment); read a before/after delta around work that runs
// on one thread.
std::uint64_t thread_allocs();

// Process-wide count, for work spread over threads the benchmark does not
// own (the sharded engine's workers). Counted only while enabled, so the
// multi-threaded sweep does not share one counter cacheline.
void set_global_alloc_counting(bool on);
std::uint64_t global_allocs();

}  // namespace perfbench
