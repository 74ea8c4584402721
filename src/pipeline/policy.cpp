#include "pipeline/policy.h"

#include <utility>

#include "pipeline/bbhe.h"
#include "pipeline/stages.h"

namespace hebs::pipeline {

core::HebsResult ExactPolicy::decide(FrameContext& ctx,
                                     double d_max_percent) const {
  return run_exact(ctx, d_max_percent);
}

core::HebsResult AtRangePolicy::decide(FrameContext& ctx, double) const {
  return ctx.at_range(range_);
}

core::HebsResult CurvePolicy::decide(FrameContext& ctx,
                                     double d_max_percent) const {
  return run_with_curve(ctx, d_max_percent, curve_());
}

core::HebsResult BbhePolicy::decide(FrameContext& ctx,
                                    double d_max_percent) const {
  return run_bbhe(ctx, d_max_percent);
}

core::HebsResult DbsPolicyAdapter::decide(FrameContext& ctx,
                                          double d_max_percent) const {
  core::HebsResult r;
  r.evaluation = ctx.evaluate(policy_->choose(ctx.image(), d_max_percent));
  r.point = r.evaluation.point;
  r.lambda = r.point.luminance_transform;
  return r;
}

}  // namespace hebs::pipeline
