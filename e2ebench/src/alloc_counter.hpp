// Benchmark-only global operator new counter (runtime.allocs_per_step).
//
// The replacement operator new forwards to malloc and, only while counting
// is switched on, bumps a per-thread count. With counting off (every
// untraced run) the added cost is one relaxed atomic load per allocation.
#pragma once

#include <cstdint>

namespace e2ebench::alloc {

void set_counting(bool on);
/// Allocations the calling thread made while counting was on.
uint64_t thread_count();

}  // namespace e2ebench::alloc
