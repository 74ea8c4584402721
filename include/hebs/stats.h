// Runtime statistics of a hebs::Session — the stable slice of the
// observability layer (DESIGN.md §13).
//
// SessionStats is a plain snapshot of the library's subsystem counters,
// taken as the delta since the session was created: how many frame
// decisions ran, which temporal-reuse level each video frame took,
// cache hit rates of the probe memos, BufferPool recycling, kernel
// dispatch mix, and thread-pool fan-out activity.  to_text() renders it
// as Prometheus-style "name value" lines, ready for a daemon
// (hebs_served) to serve as a scrape body.
//
// The underlying counter registry is process-global (counting sites sit
// on hot paths shared by every session), so a session's delta is exact
// when it is the only session processing — the common case — and an
// aggregate otherwise.
#pragma once

#include <cstdint>
#include <string>

/// The counter registry, declared once.  One row per counter, in
/// registry order:
///
///   X(enumerator, series name, SessionStats field, kind)
///
/// The rows expand into obs::Counter, obs::counter_name and
/// obs::counter_is_gauge (src/obs/counters.*), the SessionStats fields
/// below, SessionStats::to_text and Session::stats().  `kind` is kTotal
/// (monotone; a session reports the delta since create) or kGauge (a
/// current level, reported absolute).  Adding a counter is one row.
#define HEBS_COUNTER_TABLE(X)                                                 \
  /* Full frame decisions (cold or warm-started range searches). */           \
  X(kFramesDecided, "hebs_frames_decided_total", frames_decided, kTotal)      \
  /* Temporal reuse (video paths): frames seen by the fast path and the       \
     level each took.  Byte-identical (previous result returned), delta       \
     refresh (histogram refreshed, search run) and cold (full recount +       \
     search) are mutually exclusive; warm-verified counts searches whose      \
     seeded bracket verified. */                                              \
  X(kTemporalFrames, "hebs_temporal_frames_total", temporal_frames, kTotal)   \
  X(kTemporalByteIdentical, "hebs_temporal_reuse_byte_identical_total",       \
    reuse_byte_identical, kTotal)                                             \
  X(kTemporalDeltaRefresh, "hebs_temporal_reuse_delta_refresh_total",         \
    reuse_delta_refresh, kTotal)                                              \
  X(kTemporalCold, "hebs_temporal_reuse_cold_total", reuse_cold, kTotal)      \
  X(kTemporalWarmVerified, "hebs_temporal_warm_verified_total",               \
    warm_verified, kTotal)                                                    \
  /* refine_beta's probe memo (the 36-slot eval array). */                    \
  X(kEvalMemoHit, "hebs_eval_memo_hits_total", eval_memo_hits, kTotal)        \
  X(kEvalMemoMiss, "hebs_eval_memo_misses_total", eval_memo_misses, kTotal)   \
  /* FrameContext's per-range result memo (at_range). */                      \
  X(kAtRangeHit, "hebs_at_range_hits_total", range_memo_hits, kTotal)         \
  X(kAtRangeMiss, "hebs_at_range_misses_total", range_memo_misses, kTotal)    \
  /* Search effort: exact distortion probes of the range search, β            \
     candidate evaluations inside refine_beta, and the speculative probes     \
     idle workers ran beside the one the search blocked on (DESIGN.md         \
     §11) with those the serial walk never asked for. */                      \
  X(kRangeProbes, "hebs_range_probes_total", range_probes, kTotal)            \
  X(kBetaProbes, "hebs_beta_probes_total", beta_probes, kTotal)               \
  X(kSpecProbes, "hebs_spec_probes_total", spec_probes, kTotal)               \
  X(kSpecProbesWasted, "hebs_spec_probes_wasted_total", spec_probes_wasted,   \
    kTotal)                                                                   \
  /* BufferPool: free-list hits, heap misses, and the bytes checked out       \
     of any pool now. */                                                      \
  X(kPoolRecycled, "hebs_pool_recycled_total", pool_recycled, kTotal)         \
  X(kPoolFresh, "hebs_pool_fresh_total", pool_fresh, kTotal)                  \
  X(kPoolBytesOutstanding, "hebs_pool_bytes_outstanding",                     \
    pool_bytes_outstanding, kGauge)                                           \
  /* Kernel dispatch sites by selected backend. */                            \
  X(kDispatchScalar, "hebs_kernel_dispatch_scalar_total", dispatch_scalar,    \
    kTotal)                                                                   \
  X(kDispatchSse42, "hebs_kernel_dispatch_sse42_total", dispatch_sse42,       \
    kTotal)                                                                   \
  X(kDispatchAvx2, "hebs_kernel_dispatch_avx2_total", dispatch_avx2, kTotal)  \
  X(kDispatchNeon, "hebs_kernel_dispatch_neon_total", dispatch_neon, kTotal)  \
  /* ThreadPool: fan-outs, indices fanned out, and fan-outs that found        \
     the pool busy and queued behind another caller. */                       \
  X(kParallelForCalls, "hebs_parallel_for_calls_total", parallel_for_calls,   \
    kTotal)                                                                   \
  X(kParallelForItems, "hebs_parallel_for_items_total", parallel_for_items,   \
    kTotal)                                                                   \
  X(kParallelForQueued, "hebs_parallel_for_queued_total",                     \
    parallel_for_queued, kTotal)                                              \
  /* Injected faults fired, one per fault point (util/faultpoint.h).          \
     Zero unless a HEBS_FAULT / SessionConfig::fault_spec spec is armed. */   \
  X(kFaultPoolAlloc, "hebs_fault_injected_pool_alloc_total",                  \
    fault_pool_alloc, kTotal)                                                 \
  X(kFaultWorkerTask, "hebs_fault_injected_worker_task_total",                \
    fault_worker_task, kTotal)                                                \
  X(kFaultFrameCorrupt, "hebs_fault_injected_frame_corrupt_total",            \
    fault_frame_corrupt, kTotal)                                              \
  X(kFaultCurveIo, "hebs_fault_injected_curve_io_total", fault_curve_io,      \
    kTotal)                                                                   \
  X(kFaultTraceIo, "hebs_fault_injected_trace_io_total", fault_trace_io,      \
    kTotal)                                                                   \
  X(kFaultStageLatency, "hebs_fault_injected_stage_latency_total",            \
    fault_stage_latency, kTotal)                                              \
  /* Graceful degradation (DESIGN.md §14): identity fallbacks emitted,        \
     soft frame deadlines blown, and pool allocations served as counted       \
     heap fallbacks because the pool's byte cap was exhausted. */             \
  X(kFramesDegraded, "hebs_frames_degraded_total", frames_degraded, kTotal)   \
  X(kDeadlineMiss, "hebs_deadline_miss_total", deadline_misses, kTotal)       \
  X(kPoolHeapFallback, "hebs_pool_heap_fallback_total", pool_heap_fallbacks,  \
    kTotal)

namespace hebs {

/// Counter snapshot returned by Session::stats(): one field per
/// HEBS_COUNTER_TABLE row, in registry order.  All fields are totals
/// since Session::create, except pool_bytes_outstanding (a
/// current-level gauge).
struct SessionStats {
#define HEBS_STATS_FIELD(e, name, field, kind) std::uint64_t field = 0;
  HEBS_COUNTER_TABLE(HEBS_STATS_FIELD)
#undef HEBS_STATS_FIELD

  /// Prometheus-style text dump: one "name value" line per field, in
  /// registry order, exactly as the registry's own dump renders it
  /// ("hebs_frames_decided_total 12", ...).
  std::string to_text() const;
};

}  // namespace hebs
