// Frame-adaptive backlight scaling for video — the paper's future-work
// direction, implemented as an extension.
//
// Running HEBS independently per frame makes β track scene statistics,
// but abrupt β changes between visually similar frames read as backlight
// flicker.  The controller therefore rate-limits β transitions (with an
// exponential-moving-average target) while letting β jump freely across
// detected scene cuts, where the viewer expects a brightness change.
// Scene cuts are detected from the histogram L1 distance between
// consecutive frames.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/dbs.h"
#include "core/hebs.h"

namespace hebs::pipeline {
class FrameContext;  // defined in pipeline/frame_context.h
class PipelineEngine;  // defined in pipeline/engine.h
}

namespace hebs::core {

/// Tunables of the video backlight controller.
struct VideoOptions {
  /// Per-frame distortion budget.
  double d_max_percent = 10.0;
  /// HEBS pipeline options.
  HebsOptions hebs;
  /// Maximum |Δβ| between consecutive frames outside scene cuts.
  double max_beta_step = 0.04;
  /// EMA coefficient pulling β toward the per-frame optimum (0..1].
  double ema_alpha = 0.5;
  /// Histogram L1 distance (0..2) above which a scene cut is declared.
  double scene_cut_threshold = 0.5;
  // The four fields below configure process_clip only: it builds its
  // engine from them.  A PipelineEngine's stream entry points ignore
  // them and run on the engine's own EngineOptions.

  /// Worker threads for process_clip's engine-backed per-frame search
  /// and applied-β re-derivation; <= 0 selects the hardware concurrency.
  /// With temporal_reuse = false, decisions are identical for every
  /// thread count.  With temporal reuse on, byte-identical frames are
  /// reused by clip position (the same at every thread count), but a
  /// search warm-starts from its clip predecessor's only where its slot
  /// searched that predecessor (always at one worker, rarely at more),
  /// so β may differ by quantization wiggles between thread counts;
  /// every decision stays within the distortion budget either way
  /// (DESIGN.md §9).
  int num_threads = 0;
  /// Temporal-coherence fast path in process_clip (duplicate-frame
  /// reuse, incremental histograms, warm-started searches).  Decisions
  /// are bit-identical to the cold path under the monotone-distortion
  /// contract of DESIGN.md §9 (always within the distortion budget);
  /// disable for unconditional equality.
  bool temporal_reuse = true;
  /// Per-slot recycling buffer pools in process_clip (zero-allocation
  /// steady state).  Decisions are identical either way.
  bool use_buffer_pool = true;
  /// Soft per-frame deadline for process_clip's engine-backed search,
  /// microseconds; 0 = none.  See EngineOptions::frame_deadline_us.
  std::int64_t frame_deadline_us = 0;
};

/// What the controller decided for one frame.
struct FrameDecision {
  /// β the per-frame HEBS optimization asked for.
  double raw_beta = 1.0;
  /// β actually applied after flicker control.
  double beta = 1.0;
  /// Whether this frame was treated as a scene cut.
  bool scene_cut = false;
  /// The applied operating point (Λ re-derived for the applied β).
  OperatingPoint point;
  /// Measured distortion/power at the applied point.
  EvaluatedPoint evaluation;
};

/// Stateful per-frame controller.
class VideoBacklightController {
 public:
  VideoBacklightController(VideoOptions opts,
                           hebs::power::LcdSubsystemPower power_model =
                               hebs::power::LcdSubsystemPower::lp064v1());

  /// Processes the next frame of the stream.
  FrameDecision process(const hebs::image::GrayImage& frame);

  /// Processes a whole clip and returns one decision per frame.  Backed
  /// by the PipelineEngine: the per-frame HEBS searches and applied-β
  /// re-derivations run on the pool (opts.num_threads wide) while the β
  /// recurrence advances strictly in frame order, so with
  /// opts.temporal_reuse = false the decisions match serial process()
  /// calls bit-for-bit.
  std::vector<FrameDecision> process_clip(
      const std::vector<hebs::image::GrayImage>& frames);

  /// Resets stream state (β history and previous histogram).
  void reset();

  const VideoOptions& options() const noexcept { return opts_; }
  const hebs::power::LcdSubsystemPower& power_model() const noexcept {
    return power_model_;
  }

  /// Flicker metric over a processed clip: the largest |Δβ| between
  /// consecutive non-scene-cut frames.
  static double max_flicker_step(const std::vector<FrameDecision>& clip);

 private:
  // The post-stage, split at its only ordering dependency.  Private
  // because planning out of frame order corrupts the flicker filter's
  // history; process() and the engine's stream mode (the befriended
  // PipelineEngine) are the only ordered consumers.
  friend class hebs::pipeline::PipelineEngine;

  /// The ordered scalar step: scene-cut detection from the frame's exact
  /// histogram and the EMA + rate limit that turn `raw_beta` into the
  /// applied β.  Advances the stream state and returns the decision with
  /// raw_beta, beta and scene_cut filled; point and evaluation are left
  /// for rederive.  Costs microseconds — no raster work.
  FrameDecision plan_flicker(const hebs::histogram::Histogram& hist,
                             double raw_beta);

  /// The per-frame raster work: re-derives the transform for the planned
  /// β on `ctx`'s frame and fills decision.point and decision.evaluation
  /// (transformed raster materialized).  Reads no stream state and
  /// writes nothing into `ctx` (FrameContext::range_lean_shared), so
  /// the frames of a round re-derive concurrently — a duplicate run's
  /// frames all on their source's context, once its probe caches are
  /// warm.
  void rederive(const hebs::pipeline::FrameContext& ctx,
                const HebsResult& raw, FrameDecision& decision) const;

  /// plan_flicker then rederive for one frame: the serial post-stage.
  FrameDecision apply_flicker_control(const hebs::pipeline::FrameContext& ctx,
                                      const HebsResult& raw);

  /// The ordered post-stage for a frame whose search or re-derivation
  /// was contained as a fault (engine stream mode): emits the identity
  /// decision carried by `fallback` (β = 1 — the provably-safe point;
  /// dimming through a rate-limited β would need the quarantined frame
  /// state to re-derive Λ) and resets the flicker history, treating the
  /// degraded frame as a stream discontinuity.  This is what makes every frame after a
  /// fault bit-identical to a cold run started there: the controller
  /// restarts exactly as it would at a clip boundary.
  FrameDecision apply_degraded(const HebsResult& fallback);

  VideoOptions opts_;
  hebs::power::LcdSubsystemPower power_model_;
  std::optional<double> prev_beta_;
  std::optional<hebs::histogram::Histogram> prev_hist_;
};

}  // namespace hebs::core
