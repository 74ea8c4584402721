#include "obs/counters.h"

#include <cstdio>

namespace hebs::obs {

namespace counter_detail {

// Zero-initialized constant-initialized storage: no static-init order
// hazards, no destructor, counting is valid for the whole process
// lifetime.
std::array<std::atomic<std::uint64_t>, kCounterCount> g_cells{};

}  // namespace counter_detail

const char* counter_name(Counter c) noexcept {
  switch (c) {
    case Counter::kFramesDecided:
      return "hebs_frames_decided_total";
    case Counter::kTemporalFrames:
      return "hebs_temporal_frames_total";
    case Counter::kTemporalByteIdentical:
      return "hebs_temporal_reuse_byte_identical_total";
    case Counter::kTemporalDeltaRefresh:
      return "hebs_temporal_reuse_delta_refresh_total";
    case Counter::kTemporalCold:
      return "hebs_temporal_reuse_cold_total";
    case Counter::kTemporalWarmVerified:
      return "hebs_temporal_warm_verified_total";
    case Counter::kEvalMemoHit:
      return "hebs_eval_memo_hits_total";
    case Counter::kEvalMemoMiss:
      return "hebs_eval_memo_misses_total";
    case Counter::kAtRangeHit:
      return "hebs_at_range_hits_total";
    case Counter::kAtRangeMiss:
      return "hebs_at_range_misses_total";
    case Counter::kSpecProbes:
      return "hebs_spec_probes_total";
    case Counter::kSpecProbesWasted:
      return "hebs_spec_probes_wasted_total";
    case Counter::kRangeProbes:
      return "hebs_range_probes_total";
    case Counter::kBetaProbes:
      return "hebs_beta_probes_total";
    case Counter::kPoolRecycled:
      return "hebs_pool_recycled_total";
    case Counter::kPoolFresh:
      return "hebs_pool_fresh_total";
    case Counter::kPoolBytesOutstanding:
      return "hebs_pool_bytes_outstanding";
    case Counter::kDispatchScalar:
      return "hebs_kernel_dispatch_scalar_total";
    case Counter::kDispatchSse42:
      return "hebs_kernel_dispatch_sse42_total";
    case Counter::kDispatchAvx2:
      return "hebs_kernel_dispatch_avx2_total";
    case Counter::kDispatchNeon:
      return "hebs_kernel_dispatch_neon_total";
    case Counter::kParallelForCalls:
      return "hebs_parallel_for_calls_total";
    case Counter::kParallelForItems:
      return "hebs_parallel_for_items_total";
    case Counter::kParallelForQueued:
      return "hebs_parallel_for_queued_total";
    case Counter::kFaultPoolAlloc:
      return "hebs_fault_injected_pool_alloc_total";
    case Counter::kFaultWorkerTask:
      return "hebs_fault_injected_worker_task_total";
    case Counter::kFaultFrameCorrupt:
      return "hebs_fault_injected_frame_corrupt_total";
    case Counter::kFaultCurveIo:
      return "hebs_fault_injected_curve_io_total";
    case Counter::kFaultTraceIo:
      return "hebs_fault_injected_trace_io_total";
    case Counter::kFaultStageLatency:
      return "hebs_fault_injected_stage_latency_total";
    case Counter::kFramesDegraded:
      return "hebs_frames_degraded_total";
    case Counter::kDeadlineMiss:
      return "hebs_deadline_miss_total";
    case Counter::kPoolHeapFallback:
      return "hebs_pool_heap_fallback_total";
    case Counter::kCounterCount_:
      break;
  }
  return "hebs_unknown";
}

bool counter_is_gauge(Counter c) noexcept {
  return c == Counter::kPoolBytesOutstanding;
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
