#include "core/hebs.h"

#include "core/distortion_curve.h"
#include "pipeline/frame_context.h"
#include "pipeline/stages.h"

// The front ends below are thin wrappers over the staged pipeline in
// src/pipeline/: each builds a FrameContext (the per-frame memo of
// histogram, reference-side metric caches, GHE curves and per-range
// results) and drives the histogram -> select_target -> Φ -> PLC ->
// evaluate sequence (pipeline/stages.h).  Batch and video callers should
// prefer pipeline::PipelineEngine, which runs the same steps with
// worker-context reuse and a thread pool; outputs are bit-identical
// either way.

namespace hebs::core {

HebsResult hebs_at_range(const hebs::image::GrayImage& image, int range,
                         const HebsOptions& opts,
                         const hebs::power::LcdSubsystemPower& power_model) {
  pipeline::FrameContext ctx(image, opts, power_model);
  return ctx.at_range(range);
}

HebsResult hebs_with_curve(const hebs::image::GrayImage& image,
                           double d_max_percent, const DistortionCurve& curve,
                           const HebsOptions& opts,
                           const hebs::power::LcdSubsystemPower& power_model) {
  pipeline::FrameContext ctx(image, opts, power_model);
  return pipeline::run_with_curve(ctx, d_max_percent, curve);
}

HebsResult hebs_exact(const hebs::image::GrayImage& image,
                      double d_max_percent, const HebsOptions& opts,
                      const hebs::power::LcdSubsystemPower& power_model) {
  pipeline::FrameContext ctx(image, opts, power_model);
  return pipeline::run_exact(ctx, d_max_percent);
}

HebsPolicy::HebsPolicy(HebsOptions opts,
                       hebs::power::LcdSubsystemPower power_model)
    : opts_(std::move(opts)), power_model_(std::move(power_model)) {}

std::string HebsPolicy::name() const { return "HEBS"; }

OperatingPoint HebsPolicy::choose(const hebs::image::GrayImage& image,
                                  double d_max_percent) const {
  return hebs_exact(image, d_max_percent, opts_, power_model_).point;
}

}  // namespace hebs::core
