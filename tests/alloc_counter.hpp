// Global allocation counter for the allocation-regression binaries.
//
// alloc_counter.cpp replaces global operator new/delete with counting
// wrappers, so only link it into a test binary of its own: the override
// is program-wide.
#pragma once

#include <cstdint>

namespace rrtcp::test {

// operator new calls since the program started.
std::uint64_t allocations();

}  // namespace rrtcp::test
