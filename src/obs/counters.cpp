#include "obs/counters.h"

#include <cstdio>

namespace hebs::obs {

namespace counter_detail {

// Zero-initialized constant-initialized storage: no static-init order
// hazards, no destructor, counting is valid for the whole process
// lifetime.
std::array<std::atomic<std::uint64_t>, kCounterCount> g_cells{};

}  // namespace counter_detail

namespace {

// HEBS_COUNTER_TABLE's `kind` column.
enum class Kind { kTotal, kGauge };

#define HEBS_COUNTER_NAME(e, name, field, kind) name,
constexpr const char* kNames[] = {HEBS_COUNTER_TABLE(HEBS_COUNTER_NAME)};
#undef HEBS_COUNTER_NAME

#define HEBS_COUNTER_GAUGE(e, name, field, kind) Kind::kind == Kind::kGauge,
constexpr bool kIsGauge[] = {HEBS_COUNTER_TABLE(HEBS_COUNTER_GAUGE)};
#undef HEBS_COUNTER_GAUGE

}  // namespace

const char* counter_name(Counter c) noexcept {
  const auto i = static_cast<std::size_t>(c);
  return i < kCounterCount ? kNames[i] : "hebs_unknown";
}

bool counter_is_gauge(Counter c) noexcept {
  const auto i = static_cast<std::size_t>(c);
  return i < kCounterCount && kIsGauge[i];
}

CounterSnapshot CounterSnapshot::delta_since(
    const CounterSnapshot& baseline) const noexcept {
  CounterSnapshot d;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    const auto c = static_cast<Counter>(i);
    d.values[i] = counter_is_gauge(c) ? values[i]
                                      : values[i] - baseline.values[i];
  }
  return d;
}

CounterSnapshot snapshot_counters() noexcept {
  CounterSnapshot s;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    s.values[i] = counter_detail::g_cells[i].load(std::memory_order_relaxed);
  }
  return s;
}

std::string counters_text(const CounterSnapshot& snap) {
  std::string out;
  out.reserve(kCounterCount * 48);
  char line[96];
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    const auto c = static_cast<Counter>(i);
    std::snprintf(line, sizeof(line), "%s %llu\n", counter_name(c),
                  static_cast<unsigned long long>(snap.values[i]));
    out += line;
  }
  return out;
}

}  // namespace hebs::obs
