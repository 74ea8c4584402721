// Tests for the staged pipeline: FrameContext memoization, the per-frame
// steps, and the cached-vs-one-shot bit-identity contract.
#include <gtest/gtest.h>

#include "hebs/advanced/core.h"
#include "hebs/advanced/image.h"
#include "hebs/advanced/pipeline.h"
#include "hebs/advanced/util.h"

namespace hebs::pipeline {
namespace {

using hebs::image::UsidId;

const hebs::power::LcdSubsystemPower& model() {
  static const auto m = hebs::power::LcdSubsystemPower::lp064v1();
  return m;
}

void expect_same_result(const core::HebsResult& a, const core::HebsResult& b) {
  EXPECT_EQ(a.target.g_min, b.target.g_min);
  EXPECT_EQ(a.target.g_max, b.target.g_max);
  EXPECT_EQ(a.point.beta, b.point.beta);
  EXPECT_EQ(a.plc_mse, b.plc_mse);
  EXPECT_EQ(a.lambda.points(), b.lambda.points());
  EXPECT_EQ(a.phi.points(), b.phi.points());
  EXPECT_EQ(a.evaluation.distortion_percent, b.evaluation.distortion_percent);
  EXPECT_EQ(a.evaluation.saving_percent, b.evaluation.saving_percent);
  EXPECT_EQ(a.evaluation.transformed, b.evaluation.transformed);
}

TEST(SampleLevels, MatchesOperatorEvalExactly) {
  const auto img = hebs::image::make_usid(UsidId::kLena, 64);
  const auto r = core::hebs_at_range(img, 150, {}, model());
  for (const auto* curve : {&r.phi, &r.lambda}) {
    const auto samples = curve->sample_levels();
    for (int i = 0; i < hebs::transform::FloatLut::kSize; ++i) {
      const double x = static_cast<double>(i) / hebs::image::kMaxPixel;
      EXPECT_EQ(samples[i], (*curve)(x)) << "level " << i;
    }
  }
}

TEST(FrameContext, HistogramMatchesDirectComputation) {
  const auto img = hebs::image::make_usid(UsidId::kPeppers, 48);
  FrameContext ctx(img, {}, model());
  EXPECT_EQ(ctx.histogram(), hebs::histogram::Histogram::from_image(img));
  EXPECT_EQ(&ctx.histogram(), &ctx.exact_histogram());
}

TEST(FrameContext, AtRangeIsMemoized) {
  const auto img = hebs::image::make_usid(UsidId::kGirl, 48);
  FrameContext ctx(img, {}, model());
  const core::HebsResult& first = ctx.at_range(150);
  const core::HebsResult& second = ctx.at_range(150);
  EXPECT_EQ(&first, &second);
}

TEST(FrameContext, RangesClampingToSameTargetShareOneRun) {
  // A dark image whose brightest level caps g_max: every range beyond
  // the native maximum collapses onto the same target.
  hebs::image::GrayImage img(32, 32, 0);
  for (int y = 0; y < 32; ++y) {
    for (int x = 0; x < 32; ++x) {
      img(x, y) = static_cast<std::uint8_t>((x * 4) % 120);
    }
  }
  FrameContext ctx(img, {}, model());
  const core::HebsResult& a = ctx.at_range(200);
  const core::HebsResult& b = ctx.at_range(255);
  EXPECT_EQ(a.target.g_max, b.target.g_max);
  EXPECT_EQ(&a, &b);  // one pipeline run served both ranges
}

TEST(FrameContext, AtRangeMatchesFreeFunction) {
  const auto img = hebs::image::make_usid(UsidId::kBaboon, 48);
  core::HebsOptions opts;
  opts.segments = 6;
  FrameContext ctx(img, opts, model());
  for (int range : {60, 120, 200}) {
    expect_same_result(ctx.at_range(range),
                       core::hebs_at_range(img, range, opts, model()));
  }
}

TEST(FrameContext, EvaluateMatchesFreeFunction) {
  const auto img = hebs::image::make_usid(UsidId::kPout, 48);
  FrameContext ctx(img, {}, model());
  const auto r = ctx.at_range(140);
  const core::OperatingPoint point{r.lambda, 0.42};
  const auto cached = ctx.evaluate(point);
  const auto one_shot = core::evaluate_operating_point(img, point, model());
  EXPECT_EQ(cached.distortion_percent, one_shot.distortion_percent);
  EXPECT_EQ(cached.saving_percent, one_shot.saving_percent);
  EXPECT_EQ(cached.power.ccfl_watts, one_shot.power.ccfl_watts);
  EXPECT_EQ(cached.power.panel_watts, one_shot.power.panel_watts);
  EXPECT_EQ(cached.transformed, one_shot.transformed);
}

TEST(FrameContext, RebindClearsFrameCaches) {
  const auto a = hebs::image::make_usid(UsidId::kLena, 48);
  const auto b = hebs::image::make_usid(UsidId::kTrees, 48);
  FrameContext ctx(a, {}, model());
  const auto from_a = ctx.at_range(150).evaluation.distortion_percent;
  ctx.rebind(b);
  EXPECT_EQ(ctx.histogram(), hebs::histogram::Histogram::from_image(b));
  const auto from_b = ctx.at_range(150).evaluation.distortion_percent;
  EXPECT_EQ(from_b, core::hebs_at_range(b, 150, {}, model())
                        .evaluation.distortion_percent);
  EXPECT_NE(from_a, from_b);  // different frames, different measurements
}

TEST(FrameContext, UnboundContextThrows) {
  FrameContext ctx({}, model());
  EXPECT_FALSE(ctx.bound());
  EXPECT_THROW((void)ctx.histogram(), hebs::util::InvalidArgument);
  EXPECT_THROW((void)ctx.at_range(100), hebs::util::InvalidArgument);
}

TEST(Stages, ComposeToTheFrontEndResult) {
  const auto img = hebs::image::make_usid(UsidId::kElaine, 48);
  core::HebsOptions opts;
  opts.segments = 8;
  FrameContext ctx(img, opts, model());
  core::HebsResult result = run_stages_at_range_lean(ctx, 130);
  ctx.materialize_transformed(result);
  expect_same_result(result, core::hebs_at_range(img, 130, opts, model()));
}

TEST(Stages, RunIndividuallyInOrder) {
  const auto img = hebs::image::make_usid(UsidId::kLena, 48);
  FrameContext ctx(img, {}, model());
  core::HebsResult result;

  (void)ctx.histogram();

  result.target = select_target(ctx, 150);
  EXPECT_EQ(result.target.range(), 150);

  result.phi = phi_for_target(ctx, result.target);
  EXPECT_TRUE(result.phi.is_monotonic());
  EXPECT_GE(result.phi.segment_count(), 100);

  core::PlcResult plc = core::plc_coarsen(result.phi, ctx.options().segments);
  result.lambda = std::move(plc.curve);
  result.plc_mse = plc.mse;
  EXPECT_LE(result.lambda.segment_count(), ctx.options().segments);

  result.point = core::OperatingPoint{
      result.lambda, core::beta_for_gmax(result.target.g_max,
                                         ctx.options().min_beta,
                                         ctx.max_pixel())};
  result.evaluation = ctx.evaluate_lean(result.point);
  EXPECT_GT(result.point.beta, 0.0);
  EXPECT_GT(result.evaluation.saving_percent, 0.0);

  // The steps in order are exactly what the driver composes.
  expect_same_result(result, run_stages_at_range_lean(ctx, 150));
}

TEST(Stages, RunExactMatchesHebsExact) {
  const auto img = hebs::image::make_usid(UsidId::kSplash, 48);
  FrameContext ctx(img, {}, model());
  expect_same_result(run_exact(ctx, 10.0),
                     core::hebs_exact(img, 10.0, {}, model()));
}

TEST(Stages, ValidateOptions) {
  const auto img = hebs::image::make_usid(UsidId::kLena, 48);
  core::HebsOptions bad;
  bad.segments = 0;
  FrameContext ctx(img, bad, model());
  EXPECT_THROW((void)ctx.at_range(100), hebs::util::InvalidArgument);
  EXPECT_THROW((void)select_target(ctx, 0), hebs::util::InvalidArgument);
}

}  // namespace
}  // namespace hebs::pipeline
