#include "util/faultpoint.h"

#include <chrono>
#include <new>
#include <thread>

#include "obs/counters.h"
#include "util/error.h"

namespace hebs::util::fault {

namespace detail {

std::atomic<std::uint32_t> g_armed{0};

namespace {

/// SuppressScope nesting depth on this thread.  TU-local: every access
/// goes through suppress_enter/suppress_exit/fire_slow in this file,
/// so no other TU ever emits a TLS-wrapper reference to it (see the
/// header comment on suppress_enter).
thread_local int t_suppress = 0;

}  // namespace

void suppress_enter() noexcept { ++t_suppress; }
void suppress_exit() noexcept { --t_suppress; }

namespace {

/// Per-point firing state.  The spec is written only while the point is
/// disarmed (install/clear contract), so the firing path reads it
/// without synchronization; the hit/fired counts are atomics because
/// worker threads fire concurrently.
struct PointState {
  Spec spec;
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> fired{0};
};

PointState g_points[kPointCount];

PointState& state_of(Point p) noexcept {
  return g_points[static_cast<std::size_t>(p)];
}

#define HEBS_FAULT_POINT_COUNTER(e, name, counter) obs::Counter::counter,
constexpr obs::Counter kInjectionCounters[] = {
    HEBS_FAULT_POINT_TABLE(HEBS_FAULT_POINT_COUNTER)};
#undef HEBS_FAULT_POINT_COUNTER

obs::Counter injection_counter(Point p) noexcept {
  return kInjectionCounters[static_cast<std::size_t>(p)];
}

void arm(Point p) noexcept {
  g_armed.fetch_or(1u << static_cast<std::uint32_t>(p),
                   std::memory_order_relaxed);
}

void disarm(Point p) noexcept {
  g_armed.fetch_and(~(1u << static_cast<std::uint32_t>(p)),
                    std::memory_order_relaxed);
}

}  // namespace

bool fire_slow(Point p) noexcept {
  if (t_suppress > 0) return false;
  PointState& st = state_of(p);
  const std::uint64_t hit =
      st.hits.fetch_add(1, std::memory_order_relaxed) + 1;
  const Spec& spec = st.spec;
  if (hit < spec.first) return false;
  if (spec.every == 0 || (hit - spec.first) % spec.every != 0) return false;
  if (spec.count != 0) {
    // Claim one slot of the firing budget; once it is spent every later
    // hit passes through, and `fired` stays an exact firing count.
    std::uint64_t f = st.fired.load(std::memory_order_relaxed);
    do {
      if (f >= spec.count) return false;
    } while (!st.fired.compare_exchange_weak(f, f + 1,
                                             std::memory_order_relaxed));
  } else {
    st.fired.fetch_add(1, std::memory_order_relaxed);
  }
  obs::add(injection_counter(p));
  return true;
}

std::uint32_t stall_us(Point p) noexcept { return state_of(p).spec.stall_us; }

}  // namespace detail

namespace {

#define HEBS_FAULT_POINT_NAME(e, name, counter) name,
constexpr const char* kPointNames[] = {
    HEBS_FAULT_POINT_TABLE(HEBS_FAULT_POINT_NAME)};
#undef HEBS_FAULT_POINT_NAME

}  // namespace

const char* point_name(Point p) noexcept {
  const auto i = static_cast<std::size_t>(p);
  return i < kPointCount ? kPointNames[i] : "unknown";
}

namespace {

/// Allocation failure that still names its origin: catchable exactly
/// like the std::bad_alloc a real exhausted heap throws, but what()
/// carries the fault point so containment messages stay attributable
/// (the §14 contract: stage, frame index, fault point — never a bare
/// "unexpected failure").
class InjectedBadAlloc : public std::bad_alloc {
 public:
  const char* what() const noexcept override {
    return "injected fault at point pool-alloc: std::bad_alloc";
  }
};

}  // namespace

void throw_injected(Point p) {
  const std::string what =
      std::string("injected fault at point ") + point_name(p);
  switch (p) {
    case Point::kPoolAlloc:
      throw InjectedBadAlloc();
    case Point::kFrameCorrupt:
      throw Error(what + ": frame bytes corrupt/truncated at rebind");
    case Point::kCurveIo:
    case Point::kTraceIo:
      throw IoError(what);
    default:
      throw Error(what);
  }
}

void maybe_stall(Point p) {
  if (!should_fire(p)) return;
  std::this_thread::sleep_for(
      std::chrono::microseconds(detail::stall_us(p)));
}

namespace {

bool parse_point(const std::string& name, Point* out) {
  for (std::size_t i = 0; i < kPointCount; ++i) {
    const Point p = static_cast<Point>(i);
    if (name == point_name(p)) {
      *out = p;
      return true;
    }
  }
  return false;
}

bool parse_u64(const std::string& text, std::uint64_t* out) {
  if (text.empty()) return false;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

bool parse_spec(const std::string& text, Spec* out, std::string* error) {
  const std::size_t colon = text.find(':');
  const std::string name = text.substr(0, colon);
  Spec spec;
  if (!parse_point(name, &spec.point)) {
    std::string known;
    for (const char* n : kPointNames) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    return fail(error,
                "unknown fault point \"" + name + "\" (known: " + known + ")");
  }
  std::string params =
      colon == std::string::npos ? std::string() : text.substr(colon + 1);
  while (!params.empty()) {
    const std::size_t comma = params.find(',');
    const std::string item = params.substr(0, comma);
    params = comma == std::string::npos ? std::string()
                                        : params.substr(comma + 1);
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      return fail(error, "fault spec parameter \"" + item +
                             "\" is not key=value");
    }
    const std::string key = item.substr(0, eq);
    std::uint64_t value = 0;
    if (!parse_u64(item.substr(eq + 1), &value)) {
      return fail(error, "fault spec parameter \"" + item +
                             "\" needs an unsigned integer value");
    }
    if (key == "first") {
      if (value == 0) return fail(error, "fault spec first= is 1-based");
      spec.first = value;
    } else if (key == "every") {
      if (value == 0) return fail(error, "fault spec every= must be >= 1");
      spec.every = value;
    } else if (key == "count") {
      spec.count = value;  // 0 = unlimited
    } else if (key == "stall_us") {
      spec.stall_us = static_cast<std::uint32_t>(value);
    } else {
      return fail(error, "unknown fault spec key \"" + key +
                             "\" (known: first, every, count, stall_us)");
    }
  }
  *out = spec;
  return true;
}

bool parse_spec_list(const std::string& text, std::vector<Spec>* out,
                     std::string* error) {
  std::vector<Spec> specs;
  std::string rest = text;
  while (!rest.empty()) {
    const std::size_t semi = rest.find(';');
    const std::string item = rest.substr(0, semi);
    rest = semi == std::string::npos ? std::string() : rest.substr(semi + 1);
    if (item.empty()) continue;
    Spec spec;
    if (!parse_spec(item, &spec, error)) return false;
    specs.push_back(spec);
  }
  if (specs.empty()) {
    return fail(error, "fault spec \"" + text + "\" names no fault point");
  }
  *out = std::move(specs);
  return true;
}

void install(const Spec& spec) {
  detail::PointState& st = detail::state_of(spec.point);
  detail::disarm(spec.point);  // write the spec only while disarmed
  st.spec = spec;
  st.hits.store(0, std::memory_order_relaxed);
  st.fired.store(0, std::memory_order_relaxed);
  detail::arm(spec.point);
}

bool install_from_string(const std::string& text, std::string* error) {
  if (text == "off" || text == "none") {
    clear_all();
    return true;
  }
  std::vector<Spec> specs;
  if (!parse_spec_list(text, &specs, error)) return false;
  for (const Spec& spec : specs) install(spec);
  return true;
}

void clear_all() {
  detail::g_armed.store(0, std::memory_order_relaxed);
  for (std::size_t i = 0; i < kPointCount; ++i) {
    detail::PointState& st = detail::g_points[i];
    st.spec = Spec{};
    st.spec.point = static_cast<Point>(i);
    st.hits.store(0, std::memory_order_relaxed);
    st.fired.store(0, std::memory_order_relaxed);
  }
}

std::uint64_t fired_count(Point p) noexcept {
  return detail::state_of(p).fired.load(std::memory_order_relaxed);
}

std::uint64_t hit_count(Point p) noexcept {
  return detail::state_of(p).hits.load(std::memory_order_relaxed);
}

}  // namespace hebs::util::fault
