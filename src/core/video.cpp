#include "core/video.h"

#include <algorithm>
#include <cmath>

#include "core/backlight.h"
#include "histogram/histogram_ops.h"
#include "pipeline/engine.h"
#include "pipeline/frame_context.h"
#include "pipeline/stages.h"
#include "util/error.h"
#include "util/mathutil.h"

namespace hebs::core {

VideoBacklightController::VideoBacklightController(
    VideoOptions opts, hebs::power::LcdSubsystemPower power_model)
    : opts_(std::move(opts)), power_model_(std::move(power_model)) {
  HEBS_REQUIRE(opts_.d_max_percent >= 0.0, "distortion budget must be >= 0");
  HEBS_REQUIRE(opts_.max_beta_step > 0.0, "beta step must be positive");
  HEBS_REQUIRE(opts_.ema_alpha > 0.0 && opts_.ema_alpha <= 1.0,
               "ema_alpha must be in (0, 1]");
}

void VideoBacklightController::reset() {
  prev_beta_.reset();
  prev_hist_.reset();
}

FrameDecision VideoBacklightController::process(
    const hebs::image::GrayImage& frame) {
  hebs::pipeline::FrameContext ctx(frame, opts_.hebs, power_model_);
  const HebsResult raw =
      hebs::pipeline::run_exact(ctx, opts_.d_max_percent);
  return apply_flicker_control(ctx, raw);
}

FrameDecision VideoBacklightController::apply_flicker_control(
    const hebs::pipeline::FrameContext& ctx, const HebsResult& raw) {
  FrameDecision decision = plan_flicker(ctx.exact_histogram(), raw.point.beta);
  rederive(ctx, raw, decision);
  return decision;
}

FrameDecision VideoBacklightController::plan_flicker(
    const hebs::histogram::Histogram& hist, double raw_beta) {
  FrameDecision decision;
  decision.raw_beta = raw_beta;

  // Scene-cut detection from histogram change, on the exact histogram:
  // the cut detector compares what is actually on screen.
  decision.scene_cut =
      prev_hist_.has_value() &&
      hebs::histogram::l1_distance(*prev_hist_, hist) >
          opts_.scene_cut_threshold;

  double applied_beta = decision.raw_beta;
  if (prev_beta_.has_value() && !decision.scene_cut) {
    // Pull toward the raw optimum, capped by the flicker rate limit.
    const double target = util::lerp(*prev_beta_, decision.raw_beta,
                                     opts_.ema_alpha);
    applied_beta = util::clamp(target, *prev_beta_ - opts_.max_beta_step,
                               *prev_beta_ + opts_.max_beta_step);
    applied_beta = util::clamp(applied_beta, 0.0, 1.0);
  }
  decision.beta = applied_beta;

  prev_beta_ = applied_beta;
  prev_hist_ = hist;
  return decision;
}

void VideoBacklightController::rederive(
    const hebs::pipeline::FrameContext& ctx, const HebsResult& raw,
    FrameDecision& decision) const {
  // Re-derive the transform for the applied β.  Two candidates: (a)
  // compress the frame into the range the applied backlight displays
  // without clipping, and (b) keep the per-frame optimal Λ and accept
  // top clipping at the applied β (the concurrent-scaling trade).  Keep
  // whichever distorts less.
  const double applied_beta = decision.beta;
  const int applied_range =
      std::max(opts_.hebs.min_range, gmax_for_beta(applied_beta));
  hebs::pipeline::RangeProbe scratch;
  const HebsResult& compressed =
      ctx.range_lean_shared(applied_range, scratch);
  const OperatingPoint compress_point{compressed.lambda, applied_beta};
  // Lean candidate evaluations: only the winner's transformed raster is
  // materialized below.
  const auto compress_eval = ctx.evaluate_lean(compress_point);
  const OperatingPoint keep_point{raw.point.luminance_transform,
                                  applied_beta};
  const auto keep_eval = ctx.evaluate_lean(keep_point);
  if (keep_eval.distortion_percent < compress_eval.distortion_percent) {
    decision.point = keep_point;
    decision.evaluation = keep_eval;
  } else {
    decision.point = compress_point;
    decision.evaluation = compress_eval;
  }
  ctx.materialize_transformed(decision.evaluation);
}

FrameDecision VideoBacklightController::apply_degraded(
    const HebsResult& fallback) {
  FrameDecision decision;
  decision.raw_beta = fallback.point.beta;  // 1.0: the identity fallback
  decision.beta = fallback.point.beta;
  decision.scene_cut = false;
  decision.point = fallback.point;
  decision.evaluation = fallback.evaluation;
  // Stream discontinuity: forget the β/histogram history so the next
  // frame starts the stream cold (bit-identical to a fresh controller).
  prev_beta_.reset();
  prev_hist_.reset();
  return decision;
}

std::vector<FrameDecision> VideoBacklightController::process_clip(
    const std::vector<hebs::image::GrayImage>& frames) {
  // Stream mode takes its HebsOptions from this controller's
  // VideoOptions, not from EngineOptions (which configures batch mode).
  hebs::pipeline::EngineOptions engine_opts;
  engine_opts.num_threads = opts_.num_threads;
  engine_opts.temporal_reuse = opts_.temporal_reuse;
  engine_opts.use_buffer_pool = opts_.use_buffer_pool;
  engine_opts.frame_deadline_us = opts_.frame_deadline_us;
  hebs::pipeline::PipelineEngine engine(engine_opts, power_model_);
  return engine.process_stream(frames, *this);
}

double VideoBacklightController::max_flicker_step(
    const std::vector<FrameDecision>& clip) {
  double worst = 0.0;
  for (std::size_t i = 1; i < clip.size(); ++i) {
    if (clip[i].scene_cut) continue;
    worst = std::max(worst, std::abs(clip[i].beta - clip[i - 1].beta));
  }
  return worst;
}

}  // namespace hebs::core
