// Temporal-coherence fast path for the stream executor.
//
// Video frames are rarely independent: most are byte-identical to or
// small deltas of their predecessor, and the HEBS operating point moves
// slowly outside scene cuts.  The stream exploits three levels of
// coherence:
//
//   1. unchanged frame (byte-identical to frame i−1): handled by the
//      stream itself, by clip position — the frame takes no search and
//      inherits its predecessor's raw result (PipelineEngine::
//      process_stream).  run_exact is a deterministic function of
//      (pixels, options, power model), so recomputing it would
//      reproduce the same bits.  Unconditionally exact;
//   2. small delta (this class): the exact histogram is refreshed
//      incrementally (`Histogram::refresh_from_delta`, integer counts ⇒
//      exact) and the range/β searches are warm-started from the
//      previous trace with bracket verification (`run_exact_traced`),
//      falling back to the cold search whenever verification misses.
//      Bit-identical to the cold search whenever measured distortion is
//      monotone over the search interval — see the contract note on
//      run_exact_traced;
//   3. large delta (scene cut): verification fails fast and the cold
//      search runs — the fast path degrades to a few wasted probes,
//      which the context memoizes for the cold search anyway, and a
//      seed cooldown stops even those on content that keeps missing.
//
// A `TemporalReuse` tracks one stream slot's previous searched frame
// and applies levels 2 and 3.  A frame equal to that previous frame is
// a zero-pixel delta here: level 1 is a property of clip position, and
// a slot's previous frame is a clip neighbour only at one worker.
//
// The invariants this rests on are documented in DESIGN.md §9.
#pragma once

#include <cstddef>

#include "core/hebs.h"
#include "histogram/histogram.h"
#include "image/image.h"
#include "pipeline/frame_context.h"
#include "pipeline/stages.h"

namespace hebs::pipeline {

/// Tunables of the temporal fast path.
struct TemporalOptions {
  /// Master switch; disabled, process() degrades to rebind + run_exact.
  bool enabled = true;
  /// Largest fraction of differing pixels the incremental histogram
  /// update may touch before bailing to the full SIMD recount.
  double max_delta_fraction = 0.25;
};

/// Per-slot stream state: the previous frame this slot searched, its
/// histogram, raw result and search trace.  Not thread-safe; the engine
/// gives each stream slot its own instance, and a slot is touched by at
/// most one worker per round.
class TemporalReuse {
 public:
  explicit TemporalReuse(TemporalOptions opts = {}) : opts_(opts) {}

  /// Binds `ctx` to `frame` and runs the exact search through whichever
  /// coherence level applies.  The returned result equals
  /// `ctx.rebind(frame); run_exact(ctx, d_max_percent)` bit-for-bit
  /// under the monotone-distortion contract (see run_exact_traced and
  /// DESIGN.md §9).  `seeded`: the previous frame this instance
  /// processed holds `frame`'s clip predecessor, so its trace may seed
  /// the search; otherwise the search runs unseeded (the histogram
  /// delta, which is exact, still applies).  The caller keeps `frame`
  /// alive while the binding lasts (as with rebind()).
  core::HebsResult process(FrameContext& ctx,
                           const hebs::image::GrayImage& frame,
                           double d_max_percent, bool seeded = true);

  /// Forgets the previous frame (e.g. between clips).
  void reset();

  /// Coherence counters for benches and tests.
  struct Stats {
    std::size_t frames = 0;       ///< frames processed
    std::size_t incremental = 0;  ///< incremental histogram refreshes
    std::size_t warmed = 0;       ///< searches whose seed verified
  };
  const Stats& stats() const noexcept { return stats_; }

 private:
  TemporalOptions opts_;
  bool has_prev_ = false;
  int seed_cooldown_ = 0;
  hebs::image::GrayImage prev_frame_;
  hebs::histogram::Histogram prev_hist_;
  core::HebsResult prev_raw_;
  SearchTrace trace_;
  Stats stats_;
};

}  // namespace hebs::pipeline
