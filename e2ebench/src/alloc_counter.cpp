#include "alloc_counter.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace e2ebench::alloc {
namespace {

std::atomic<bool> g_counting{false};
thread_local uint64_t t_count = 0;

void* allocate(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) ++t_count;
  if (size == 0) size = 1;
  for (;;) {
    if (void* p = std::malloc(size)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

}  // namespace

void set_counting(bool on) { g_counting.store(on, std::memory_order_relaxed); }

uint64_t thread_count() { return t_count; }

}  // namespace e2ebench::alloc

// Every replaceable non-aligned form, so each allocation is counted once
// and every pointer is released by the matching free().
void* operator new(std::size_t size) { return e2ebench::alloc::allocate(size); }
void* operator new[](std::size_t size) { return e2ebench::alloc::allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return e2ebench::alloc::allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return e2ebench::alloc::allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
