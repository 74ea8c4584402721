#include "baseline/cbcs.h"

#include <algorithm>

#include "histogram/histogram.h"
#include "pipeline/frame_context.h"
#include "transform/classic.h"
#include "util/error.h"
#include "util/mathutil.h"

namespace hebs::baseline {

hebs::core::OperatingPoint cbcs_operating_point(double g_l, double g_u,
                                                double beta) {
  HEBS_REQUIRE(g_l >= 0.0 && g_u <= 1.0 && g_l < g_u, "invalid band");
  HEBS_REQUIRE(beta > 0.0 && beta <= 1.0, "beta must be in (0, 1]");
  const hebs::transform::PwlCurve band =
      hebs::transform::single_band_curve(g_l, g_u);
  hebs::transform::PwlCurve::PointList pts;
  pts.reserve(band.points().size());
  for (const auto& p : band.points()) {
    pts.push_back({p.x, beta * p.y});
  }
  return {hebs::transform::PwlCurve(std::move(pts)), beta};
}

CbcsPolicy::CbcsPolicy(CbcsOptions opts,
                       hebs::quality::DistortionOptions distortion,
                       hebs::power::LcdSubsystemPower power_model)
    : opts_(std::move(opts)),
      distortion_(distortion),
      power_model_(std::move(power_model)) {
  HEBS_REQUIRE(!opts_.low_clip_quantiles.empty() &&
                   !opts_.high_keep_quantiles.empty() &&
                   !opts_.beta_blend.empty(),
               "CBCS search grid must be non-empty");
}

std::string CbcsPolicy::name() const { return "CBCS"; }

hebs::core::OperatingPoint CbcsPolicy::choose(
    const hebs::image::GrayImage& image, double d_max_percent) const {
  HEBS_REQUIRE(d_max_percent >= 0.0, "distortion budget must be >= 0");
  // One context for the whole grid search: histogram percentiles and the
  // reference-side metric caches are computed once.
  hebs::core::HebsOptions eval_opts;
  eval_opts.distortion = distortion_;
  hebs::pipeline::FrameContext ctx(image, eval_opts, power_model_);
  const auto& hist = ctx.histogram();

  hebs::core::OperatingPoint best = hebs::core::identity_operating_point();
  double best_saving = 0.0;
  bool found = false;

  for (double lo_q : opts_.low_clip_quantiles) {
    for (double hi_q : opts_.high_keep_quantiles) {
      // Band endpoints from histogram percentiles (the truncation of [5]).
      const double g_l =
          static_cast<double>(hist.percentile_level(
              util::clamp(lo_q, 0.0, 1.0))) /
          hebs::image::kMaxPixel;
      const double g_u =
          static_cast<double>(hist.percentile_level(
              util::clamp(hi_q, 0.0, 1.0))) /
          hebs::image::kMaxPixel;
      if (g_u - g_l < 0.05) continue;  // degenerate band

      for (double blend : opts_.beta_blend) {
        const double beta = util::clamp(
            util::lerp(g_u - g_l, g_u, util::clamp01(blend)), 0.05, 1.0);
        const auto point = cbcs_operating_point(
            std::min(g_l, g_u - 0.05), g_u, beta);
        // Lean: the grid only reads distortion/saving per probe.
        const auto eval = ctx.evaluate_lean(point);
        if (eval.distortion_percent <= d_max_percent &&
            (!found || eval.saving_percent > best_saving)) {
          best = point;
          best_saving = eval.saving_percent;
          found = true;
        }
      }
    }
  }
  return best;
}

}  // namespace hebs::baseline
