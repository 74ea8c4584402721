// Counts every allocation made through the global operator new — the
// library's rasters, curves, memo nodes and buffer-pool blocks all come
// from it — so the traced run can report allocation churn per frame
// (util.allocs_per_frame, util.alloc_mb_per_frame).  One relaxed atomic
// add per allocation; frees are not counted.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "bench.h"

namespace {
std::atomic<std::uint64_t> g_count{0};
std::atomic<std::uint64_t> g_bytes{0};
}  // namespace

hebsbench::AllocTotals hebsbench::alloc_totals() noexcept {
  return {g_count.load(std::memory_order_relaxed),
          g_bytes.load(std::memory_order_relaxed)};
}

void* operator new(std::size_t n) {
  g_count.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
