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

namespace hebs {

/// Counter snapshot returned by Session::stats().  All fields are
/// totals since Session::create, except pool_bytes_outstanding (a
/// current-level gauge).
struct SessionStats {
  /// Full frame decisions (cold or warm-started range searches).
  std::uint64_t frames_decided = 0;

  // ---- temporal reuse (video paths); levels are mutually exclusive
  std::uint64_t temporal_frames = 0;          ///< frames seen by the fast path
  std::uint64_t reuse_byte_identical = 0;     ///< previous result returned
  std::uint64_t reuse_delta_refresh = 0;      ///< histogram refreshed, search run
  std::uint64_t reuse_cold = 0;               ///< full recount + search
  std::uint64_t warm_verified = 0;            ///< seeded bracket verified

  // ---- search effort
  std::uint64_t range_probes = 0;             ///< exact distortion probes
  std::uint64_t beta_probes = 0;              ///< β candidate evaluations
  std::uint64_t eval_memo_hits = 0;           ///< refine_beta probe memo
  std::uint64_t eval_memo_misses = 0;
  std::uint64_t range_memo_hits = 0;          ///< FrameContext at_range memo
  std::uint64_t range_memo_misses = 0;
  std::uint64_t spec_probes = 0;              ///< speculative probes run
  std::uint64_t spec_probes_wasted = 0;       ///< ... never asked for

  // ---- buffer pool
  std::uint64_t pool_recycled = 0;            ///< free-list hits
  std::uint64_t pool_fresh = 0;               ///< heap misses
  std::uint64_t pool_bytes_outstanding = 0;   ///< gauge: bytes checked out now

  // ---- thread pool
  std::uint64_t parallel_for_calls = 0;
  std::uint64_t parallel_for_items = 0;
  std::uint64_t parallel_for_queued = 0;      ///< fan-outs that waited

  // ---- kernel dispatch sites by backend
  std::uint64_t dispatch_scalar = 0;
  std::uint64_t dispatch_sse42 = 0;
  std::uint64_t dispatch_avx2 = 0;
  std::uint64_t dispatch_neon = 0;

  // ---- failure containment & degradation (DESIGN.md §14)
  std::uint64_t frames_degraded = 0;      ///< identity fallbacks emitted
  std::uint64_t deadline_misses = 0;      ///< soft frame deadlines blown
  std::uint64_t pool_heap_fallbacks = 0;  ///< pool-cap overflows to heap

  // ---- injected faults fired, by fault point (testing/soak only;
  //      all zero unless a fault spec is armed)
  std::uint64_t fault_pool_alloc = 0;
  std::uint64_t fault_worker_task = 0;
  std::uint64_t fault_frame_corrupt = 0;
  std::uint64_t fault_curve_io = 0;
  std::uint64_t fault_trace_io = 0;
  std::uint64_t fault_stage_latency = 0;

  /// Prometheus-style text dump: one "name value" line per field, names
  /// matching the library's counter registry
  /// ("hebs_frames_decided_total 12", ...).
  std::string to_text() const;
};

}  // namespace hebs
