#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

thread_local std::uint64_t t_allocs = 0;
std::atomic<bool> g_global_on{false};
std::atomic<std::uint64_t> g_global{0};

void* counted_malloc(std::size_t n) {
  ++t_allocs;
  if (g_global_on.load(std::memory_order_relaxed))
    g_global.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc{};
}

}  // namespace

std::uint64_t thread_allocs() { return t_allocs; }

void set_global_alloc_counting(bool on) {
  g_global_on.store(on, std::memory_order_relaxed);
}

std::uint64_t global_allocs() {
  return g_global.load(std::memory_order_relaxed);
}

}  // namespace perfbench

void* operator new(std::size_t n) { return perfbench::counted_malloc(n); }
void* operator new[](std::size_t n) { return perfbench::counted_malloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
