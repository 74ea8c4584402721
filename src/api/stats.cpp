#include "hebs/stats.h"

#include <cstdio>

#include "obs/counters.h"

namespace hebs {

namespace {

void append_line(std::string& out, const char* name, std::uint64_t value) {
  char line[96];
  std::snprintf(line, sizeof(line), "%s %llu\n", name,
                static_cast<unsigned long long>(value));
  out += line;
}

}  // namespace

std::string SessionStats::to_text() const {
  using obs::Counter;
  using obs::counter_name;
  std::string out;
  out.reserve(1024);
  // Same series names as the process-global registry dump, so a scraper
  // needs one name catalog whether it reads Session::stats() or the
  // whole-process counters.
  append_line(out, counter_name(Counter::kFramesDecided), frames_decided);
  append_line(out, counter_name(Counter::kTemporalFrames), temporal_frames);
  append_line(out, counter_name(Counter::kTemporalByteIdentical),
              reuse_byte_identical);
  append_line(out, counter_name(Counter::kTemporalDeltaRefresh),
              reuse_delta_refresh);
  append_line(out, counter_name(Counter::kTemporalCold), reuse_cold);
  append_line(out, counter_name(Counter::kTemporalWarmVerified),
              warm_verified);
  append_line(out, counter_name(Counter::kRangeProbes), range_probes);
  append_line(out, counter_name(Counter::kBetaProbes), beta_probes);
  append_line(out, counter_name(Counter::kEvalMemoHit), eval_memo_hits);
  append_line(out, counter_name(Counter::kEvalMemoMiss), eval_memo_misses);
  append_line(out, counter_name(Counter::kAtRangeHit), range_memo_hits);
  append_line(out, counter_name(Counter::kAtRangeMiss), range_memo_misses);
  append_line(out, counter_name(Counter::kSpecProbes), spec_probes);
  append_line(out, counter_name(Counter::kSpecProbesWasted),
              spec_probes_wasted);
  append_line(out, counter_name(Counter::kPoolRecycled), pool_recycled);
  append_line(out, counter_name(Counter::kPoolFresh), pool_fresh);
  append_line(out, counter_name(Counter::kPoolBytesOutstanding),
              pool_bytes_outstanding);
  append_line(out, counter_name(Counter::kParallelForCalls),
              parallel_for_calls);
  append_line(out, counter_name(Counter::kParallelForItems),
              parallel_for_items);
  append_line(out, counter_name(Counter::kParallelForQueued),
              parallel_for_queued);
  append_line(out, counter_name(Counter::kDispatchScalar), dispatch_scalar);
  append_line(out, counter_name(Counter::kDispatchSse42), dispatch_sse42);
  append_line(out, counter_name(Counter::kDispatchAvx2), dispatch_avx2);
  append_line(out, counter_name(Counter::kDispatchNeon), dispatch_neon);
  append_line(out, counter_name(Counter::kFramesDegraded), frames_degraded);
  append_line(out, counter_name(Counter::kDeadlineMiss), deadline_misses);
  append_line(out, counter_name(Counter::kPoolHeapFallback),
              pool_heap_fallbacks);
  append_line(out, counter_name(Counter::kFaultPoolAlloc), fault_pool_alloc);
  append_line(out, counter_name(Counter::kFaultWorkerTask), fault_worker_task);
  append_line(out, counter_name(Counter::kFaultFrameCorrupt),
              fault_frame_corrupt);
  append_line(out, counter_name(Counter::kFaultCurveIo), fault_curve_io);
  append_line(out, counter_name(Counter::kFaultTraceIo), fault_trace_io);
  append_line(out, counter_name(Counter::kFaultStageLatency),
              fault_stage_latency);
  return out;
}

}  // namespace hebs
