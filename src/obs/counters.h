// Process-global observability counter registry.
//
// A fixed, enum-indexed array of relaxed atomics instrumenting the
// engine's invisible machinery: temporal-reuse levels, FrameContext and
// probe memo hit rates, BufferPool recycling, kernel-backend dispatch,
// search probe counts and ThreadPool fan-outs.  The registry is
// process-global (like the kernel backend selection): counting sites
// live on per-frame hot paths shared by every session, and a global
// fixed array is the only storage that is simultaneously allocation-free
// (bench_alloc_steady_state stays at 0 allocations/frame with counters
// enabled), TSan-clean (relaxed fetch_add carries no ordering duty — the
// counts are monotone diagnostics, never synchronization), and free of
// registration locks on the hot path.
//
// Counters are always on: one relaxed fetch_add per event.  Consumers
// read consistent *deltas* by snapshotting before and after the work
// they attribute (Session::stats() snapshots at create; FrameResult's
// breakdown snapshots around one frame).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace hebs::obs {

/// Every counter the registry tracks.  Names reported by counter_name()
/// are the Prometheus-style series names of the text dump.
enum class Counter : std::size_t {
  // Frame decisions (one per full range search, cold or warm).
  kFramesDecided,
  // Temporal reuse: frames seen and the level taken per frame
  // (byte-identical / delta-refresh / cold are mutually exclusive;
  // warm-verified counts searches whose seeded bracket verified).
  kTemporalFrames,
  kTemporalByteIdentical,
  kTemporalDeltaRefresh,
  kTemporalCold,
  kTemporalWarmVerified,
  // refine_beta's probe memo (the 36-slot eval array).
  kEvalMemoHit,
  kEvalMemoMiss,
  // FrameContext's per-range result memo (at_range / distortion_at_range).
  kAtRangeHit,
  kAtRangeMiss,
  // Search probe evaluations: exact distortion probes of the range
  // search, and β candidate evaluations inside refine_beta.
  kRangeProbes,
  kBetaProbes,
  // Speculative probes (DESIGN.md §11): probes the single-frame slot's
  // idle workers evaluated beside the one the search blocked on, and
  // those the serial walk never asked for.
  kSpecProbes,
  kSpecProbesWasted,
  // BufferPool: recycled (free-list hit) vs fresh (heap miss) blocks,
  // and the bytes currently checked out of any pool (a gauge).
  kPoolRecycled,
  kPoolFresh,
  kPoolBytesOutstanding,
  // Kernel dispatch sites by selected backend.
  kDispatchScalar,
  kDispatchSse42,
  kDispatchAvx2,
  kDispatchNeon,
  // ThreadPool: fan-outs, total indices fanned out, and fan-outs that
  // found the pool busy and queued behind another caller.
  kParallelForCalls,
  kParallelForItems,
  kParallelForQueued,
  // Fault injection (util/faultpoint.h): firings per registered point.
  // Zero in production — nonzero only under an installed HEBS_FAULT /
  // SessionConfig::fault_spec spec, where tests match them against the
  // expected injection count.
  kFaultPoolAlloc,
  kFaultWorkerTask,
  kFaultFrameCorrupt,
  kFaultCurveIo,
  kFaultTraceIo,
  kFaultStageLatency,
  // Graceful degradation: frames that emitted the identity fallback
  // (contained fault or blown deadline), frames that specifically blew
  // the soft per-frame deadline, and pool allocations served as counted
  // heap fallbacks because the pool's byte cap was exhausted.
  kFramesDegraded,
  kDeadlineMiss,
  kPoolHeapFallback,
  kCounterCount_,
};

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCounterCount_);

namespace counter_detail {
/// The registry cells.  Zero-initialized static storage; never touched
/// by constructors or destructors, so counting is safe at any point of
/// the process lifetime.
extern std::array<std::atomic<std::uint64_t>, kCounterCount> g_cells;
}  // namespace counter_detail

/// Adds `n` to a counter.  Relaxed: counts are diagnostics, not
/// synchronization (DESIGN.md §13).
inline void add(Counter c, std::uint64_t n = 1) noexcept {
  counter_detail::g_cells[static_cast<std::size_t>(c)].fetch_add(
      n, std::memory_order_relaxed);
}

/// Subtracts `n` from a gauge counter (kPoolBytesOutstanding).
inline void sub(Counter c, std::uint64_t n) noexcept {
  counter_detail::g_cells[static_cast<std::size_t>(c)].fetch_sub(
      n, std::memory_order_relaxed);
}

/// The Prometheus-style series name ("hebs_range_probes_total", ...).
const char* counter_name(Counter c) noexcept;

/// True for gauges (current level, may go down); false for monotone
/// totals.  delta_since() keeps gauges absolute.
bool counter_is_gauge(Counter c) noexcept;

/// A point-in-time copy of every counter.
struct CounterSnapshot {
  std::array<std::uint64_t, kCounterCount> values{};

  std::uint64_t operator[](Counter c) const noexcept {
    return values[static_cast<std::size_t>(c)];
  }

  /// This snapshot minus `baseline`, counter by counter — the activity
  /// between the two snapshots.  Gauges stay absolute (the level at
  /// *this* snapshot), totals subtract.
  CounterSnapshot delta_since(const CounterSnapshot& baseline) const noexcept;
};

/// Reads every counter (relaxed; consistent enough for diagnostics).
CounterSnapshot snapshot_counters() noexcept;

/// Renders a snapshot as Prometheus-style text: one "name value" line
/// per counter, ready for hebs_served to serve as a scrape body.
std::string counters_text(const CounterSnapshot& snap);

}  // namespace hebs::obs
