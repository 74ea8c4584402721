// Deterministic fault injection — named, counted fault points.
//
// The serving story (ROADMAP: hebs_served) needs the containment and
// degradation paths of the pipeline to be *provable*: a poisoned frame,
// a failing allocation, an I/O error or a stalled stage must be
// reproducible on demand, under sanitizers, at any thread count.  This
// header provides that harness as a set of registered fault points the
// library's own code consults at its failure boundaries:
//
//   pool-alloc     std::bad_alloc at the BufferPool/PoolAllocator
//                  allocation boundary (util/pool.cpp)
//   worker-task    util::Error inside the engine's per-frame worker
//                  task (pipeline/engine.cpp)
//   frame-corrupt  util::Error at FrameContext::rebind, simulating
//                  corrupt/truncated frame bytes
//   curve-io       util::IoError in DistortionCurve load/save
//   trace-io       util::IoError in the span-trace writer
//   stage-latency  an artificial stall (spec.stall_us) per pipeline
//                  stage execution — the deadline tests' clock lever
//
// A point fires according to an installed Spec: 1-based hit index
// `first`, period `every`, budget `count` (0 = unlimited).  The text
// form (HEBS_FAULT environment variable, SessionConfig::fault_spec,
// hebs_cli --fault) is "point[:key=value,...]", ';'-separated for
// several points; "off" clears every installed point.  Examples:
//
//   HEBS_FAULT=pool-alloc                 first pool allocation throws
//   HEBS_FAULT=worker-task:first=3        frame hit #3 throws
//   HEBS_FAULT=frame-corrupt:every=4,count=0   every 4th rebind, forever
//   HEBS_FAULT=stage-latency:stall_us=2000,count=0   2 ms per stage
//
// Zero-cost when off: the hot-path check (`should_fire`) is one relaxed
// atomic load and a branch — no allocation, no lock — so the fault-
// disabled fast path stays inside the zero-allocation steady-state
// contract (bench_alloc_steady_state, bench_frame_latency, and the
// no-alloc lint all gate it).  Every firing bumps the point's counter
// in the obs registry, so tests match injections against expectations.
//
// Installation is process-global (like the kernel-backend selection)
// and NOT synchronized against concurrent firing: install/clear while
// the pipeline is idle (Session::create does; tests do).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace hebs::util::fault {

/// Every registered fault point.  Order matches the obs counter block
/// (Counter::kFaultPoolAlloc..kFaultStageLatency).
enum class Point : std::uint32_t {
  kPoolAlloc,
  kWorkerTask,
  kFrameCorrupt,
  kCurveIo,
  kTraceIo,
  kStageLatency,
  kPointCount_,
};

inline constexpr std::size_t kPointCount =
    static_cast<std::size_t>(Point::kPointCount_);

/// When an armed point fires: hits are counted 1-based per point; the
/// point fires on hit indices first, first+every, first+2·every, …,
/// at most `count` times (0 = no budget).
struct Spec {
  Point point = Point::kPoolAlloc;
  std::uint64_t first = 1;
  std::uint64_t every = 1;
  std::uint64_t count = 1;
  /// kStageLatency only: stall per firing, microseconds.
  std::uint32_t stall_us = 1000;
};

namespace detail {
/// Bit p set = point p armed.  The one word the fast path reads.
extern std::atomic<std::uint32_t> g_armed;
/// Counts the hit and decides per the installed spec; bumps the obs
/// injection counter when firing.
bool fire_slow(Point p) noexcept;
/// The installed stall for a latency point.
std::uint32_t stall_us(Point p) noexcept;
/// Adjusts this thread's SuppressScope nesting depth.  Out-of-line so
/// the thread_local behind it is only ever touched from its own TU:
/// GCC's cross-TU TLS-wrapper access trips a UBSan false positive
/// ("load of null pointer") when inlined into instrumented callers,
/// and these calls only run on cold containment paths anyway.
void suppress_enter() noexcept;
void suppress_exit() noexcept;
}  // namespace detail

/// True when `p` has an installed spec.  One relaxed load.
inline bool armed(Point p) noexcept {
  return ((detail::g_armed.load(std::memory_order_relaxed) >>
           static_cast<std::uint32_t>(p)) &
          1u) != 0;
}

/// True when any point has an installed spec.  One relaxed load.
inline bool any_armed() noexcept {
  return detail::g_armed.load(std::memory_order_relaxed) != 0;
}

/// Counts a hit at this point and reports whether it fires.  The off
/// path (nothing installed) is one relaxed load and a branch.
inline bool should_fire(Point p) noexcept {
  if (!armed(p)) return false;
  return detail::fire_slow(p);
}

/// Throws the point's documented exception type (std::bad_alloc for
/// pool-alloc, util::IoError for the I/O points, util::Error
/// otherwise), message naming the point.
[[noreturn]] void throw_injected(Point p);

/// should_fire + throw_injected, the shape of the throwing fire sites.
inline void maybe_fail(Point p) {
  if (should_fire(p)) throw_injected(p);
}

/// Stall-type fire site: sleeps spec.stall_us when the point fires.
void maybe_stall(Point p);

/// Suppresses firing on this thread while alive.  The degraded-frame
/// fallback construction runs under one so a persistent fault (e.g.
/// pool-alloc:count=0) cannot re-fire inside its own containment
/// handler.
class SuppressScope {
 public:
  SuppressScope() noexcept { detail::suppress_enter(); }
  ~SuppressScope() { detail::suppress_exit(); }
  SuppressScope(const SuppressScope&) = delete;
  SuppressScope& operator=(const SuppressScope&) = delete;
};

/// The spec-syntax name ("pool-alloc", ...).
const char* point_name(Point p) noexcept;

/// Parses one "point[:key=value,...]" spec.  On failure returns false
/// and (if non-null) fills *error with a message naming the bad token.
bool parse_spec(const std::string& text, Spec* out, std::string* error);

/// Parses a ';'-separated spec list ("pool-alloc;curve-io:first=2").
bool parse_spec_list(const std::string& text, std::vector<Spec>* out,
                     std::string* error);

/// Installs a spec, resetting the point's hit/fired counts and arming
/// it.  Replaces any spec previously installed at the same point;
/// other points keep theirs.
void install(const Spec& spec);

/// Parses and installs a spec list.  The literal "off" (or "none")
/// clears every installed point instead.  All-or-nothing: a parse
/// error installs nothing and returns false.
bool install_from_string(const std::string& text, std::string* error);

/// Disarms every point and resets its counts.
void clear_all();

/// Firings at `p` since its last install (tests match this against the
/// obs counter and their expected injection count).
std::uint64_t fired_count(Point p) noexcept;

/// Hits (armed consultations) at `p` since its last install.
std::uint64_t hit_count(Point p) noexcept;

}  // namespace hebs::util::fault
