// Low-overhead span tracer: per-thread pre-sized ring buffers.
//
// Every pipeline stage worth attributing wall time to — histogram
// build, range search, per-probe evaluations, β refinement, LUT apply,
// color render, the flicker post-stage, the temporal-reuse decision —
// opens a ScopedSpan.  With tracing disabled (the default) a span site
// costs exactly one predictable branch: a relaxed load of the global
// enabled flag that stays false.  With tracing enabled, each span costs
// two steady_clock reads and one store into the recording thread's
// pre-sized ring; nothing on the record path allocates, takes a lock,
// or changes any computed value — traced runs are bit-identical to
// untraced runs, and bench_alloc_steady_state stays at 0
// allocations/frame with tracing on (rings are allocated by
// start_tracing, i.e. at session setup).
//
// Buffers are flight-recorder rings: when a thread's ring fills, the
// oldest events are overwritten and counted in dropped_spans().
// start/stop/collect/write are cold control-plane calls; collect and
// write expect no processing call to be in flight (the engine joins its
// workers before every Session call returns, so call them between
// frames/batches).
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace hebs::obs {

/// Span taxonomy (DESIGN.md §13).  Chrome-trace names come from
/// span_name().
enum class Span : std::uint8_t {
  kFrame,         ///< one frame's decision+render on a worker; arg = frame index
  kTemporalReuse, ///< a stream frame's reuse level (arg): 0 cold and
                  ///< 1 delta-refresh from TemporalReuse::process, 2 a
                  ///< byte-identical duplicate (the stream's plan step)
  kHistogram,     ///< exact histogram build (recount, not delta refresh)
  kRangeSearch,   ///< the decision: range search + β refine, one per decision
  kRangeProbe,    ///< one exact distortion probe; arg = candidate range
  kBetaRefine,    ///< refine_beta; arg = chosen per-mille β on exit
  kBetaProbe,     ///< one β candidate evaluation; arg = round(β * 1e6)
  kLutApply,      ///< displayed-raster materialization (LUT application)
  kColorRender,   ///< color post-stage rendering of one frame
  kFlickerPost,   ///< video applied-β re-derivation on a worker (or a
                  ///< containment replay on the caller); arg = frame index
  kSpanCount_,
};

inline constexpr std::size_t kSpanCount =
    static_cast<std::size_t>(Span::kSpanCount_);

/// The chrome://tracing event name of a span ("range-search", ...).
const char* span_name(Span s) noexcept;

namespace trace_detail {
extern std::atomic<bool> g_enabled;
/// Closes a span opened at start_ns on this thread: reads the clock,
/// claims the thread's ring on first use, appends one event.  Cold
/// misses (tracing stopped meanwhile, ring slots exhausted) drop the
/// event.  Never allocates.
void record_span(Span span, std::int64_t start_ns, std::int32_t arg) noexcept;
/// Monotonic timestamp (steady_clock, ns).
std::int64_t now_ns() noexcept;
}  // namespace trace_detail

/// Whether spans are currently being recorded.
inline bool tracing_enabled() noexcept {
  return trace_detail::g_enabled.load(std::memory_order_relaxed);
}

/// RAII span.  Disabled tracing: the constructor's single branch, and
/// the destructor sees the disarmed sentinel — no clock reads, no
/// stores beyond the members.
class ScopedSpan {
 public:
  explicit ScopedSpan(Span span, std::int32_t arg = 0) noexcept
      : span_(span), arg_(arg) {
    if (!tracing_enabled()) return;
    start_ns_ = trace_detail::now_ns();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (start_ns_ == kDisarmed) return;
    trace_detail::record_span(span_, start_ns_, arg_);
  }

  /// Updates the span's argument (e.g. the reuse level, decided after
  /// the span opened).
  void set_arg(std::int32_t arg) noexcept { arg_ = arg; }

 private:
  static constexpr std::int64_t kDisarmed =
      std::numeric_limits<std::int64_t>::min();
  Span span_;
  std::int32_t arg_;
  std::int64_t start_ns_ = kDisarmed;
};

struct TraceOptions {
  /// Ring slots: distinct recording threads supported per tracing
  /// epoch.  Threads beyond the cap drop their events (counted).
  std::size_t max_threads = 64;
  /// Events retained per thread before the ring wraps.
  std::size_t events_per_thread = std::size_t{1} << 16;
};

/// Allocates (or reuses) the ring buffers and starts recording.
/// Idempotent while active; restarting after stop_tracing() clears
/// previously recorded events.
void start_tracing(const TraceOptions& opts = {});

/// Stops recording.  Events stay available to collect/write until the
/// next start_tracing().
void stop_tracing() noexcept;

/// Drops all recorded events (buffers retained); recording state is
/// unchanged.  Call between measurement windows.
void clear_trace() noexcept;

/// Spans overwritten by ring wrap or dropped for lack of a ring slot.
std::uint64_t dropped_spans() noexcept;

/// One recorded span, in exporter-friendly form.
struct CollectedSpan {
  Span span = Span::kFrame;
  std::uint32_t tid = 0;       ///< recording thread's ring slot
  std::int64_t start_ns = 0;   ///< relative to the tracing epoch start
  std::int64_t dur_ns = 0;
  std::int32_t arg = 0;
};

/// Snapshot of every recorded span, sorted by (tid, start_ns).
std::vector<CollectedSpan> collect_trace();

/// Writes the recorded spans as chrome://tracing / Perfetto JSON
/// ("traceEvents" with complete "X" events).  Throws util::IoError when
/// the path cannot be opened or written.
void write_chrome_trace(const std::string& path);

}  // namespace hebs::obs
