// Bit-identity of the facade against the PR 1 internal entry points:
// the Session must reproduce hebs_exact / hebs_with_curve / DLS / CBCS
// outputs exactly — same beta, same curves, same measured numbers, same
// displayed raster — through batch and video as well.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "hebs/advanced/baseline.h"
#include "hebs/advanced/core.h"
#include "hebs/advanced/pipeline.h"
#include "hebs/advanced/util.h"
#include "hebs/hebs.h"
#include "image/synthetic.h"

namespace {

using hebs::ImageView;
using hebs::Session;
using hebs::SessionConfig;
using hebs::image::GrayImage;
using hebs::image::GrayImage16;
using hebs::image::UsidId;

const hebs::power::LcdSubsystemPower& model() {
  static const auto m = hebs::power::LcdSubsystemPower::lp064v1();
  return m;
}

std::vector<GrayImage> seed_images(int size) {
  std::vector<GrayImage> images;
  for (UsidId id : {UsidId::kLena, UsidId::kPeppers, UsidId::kPout}) {
    images.push_back(hebs::image::make_usid(id, size));
  }
  return images;
}

ImageView view_of(const GrayImage& img) {
  return ImageView::gray8(img.pixels().data(), img.width(), img.height());
}

hebs::Session make_session(SessionConfig config = {}) {
  auto session = Session::create(std::move(config));
  EXPECT_TRUE(session.has_value()) << session.status().to_string();
  return std::move(session).value();
}

/// The raster in a FrameResult must be byte-identical to an internal
/// GrayImage.
void expect_same_raster(const hebs::OwnedImage& got, const GrayImage& want) {
  ASSERT_EQ(got.width(), want.width());
  ASSERT_EQ(got.height(), want.height());
  const auto span = want.pixels();
  EXPECT_TRUE(std::equal(got.pixels().begin(), got.pixels().end(),
                         span.begin(), span.end()));
}

void expect_matches_hebs(const hebs::FrameResult& got,
                         const hebs::core::HebsResult& want) {
  EXPECT_EQ(got.beta, want.point.beta);
  EXPECT_EQ(got.g_min, want.target.g_min);
  EXPECT_EQ(got.g_max, want.target.g_max);
  EXPECT_EQ(got.plc_mse, want.plc_mse);
  EXPECT_EQ(got.distortion_percent, want.evaluation.distortion_percent);
  EXPECT_EQ(got.saving_percent, want.evaluation.saving_percent);
  EXPECT_EQ(got.power.ccfl_watts, want.evaluation.power.ccfl_watts);
  EXPECT_EQ(got.power.panel_watts, want.evaluation.power.panel_watts);
  ASSERT_EQ(got.lambda.size(), want.lambda.points().size());
  for (std::size_t i = 0; i < got.lambda.size(); ++i) {
    EXPECT_EQ(got.lambda[i].x, want.lambda.points()[i].x);
    EXPECT_EQ(got.lambda[i].y, want.lambda.points()[i].y);
  }
  ASSERT_EQ(got.phi.size(), want.phi.points().size());
  expect_same_raster(got.displayed, want.evaluation.transformed);
}

TEST(SessionBitIdentity, HebsExactMatchesDirectCall) {
  auto session = make_session();
  for (const GrayImage& img : seed_images(48)) {
    auto result = session.process({view_of(img), 10.0});
    ASSERT_TRUE(result.has_value()) << result.status().to_string();
    expect_matches_hebs(*result,
                        hebs::core::hebs_exact(img, 10.0, {}, model()));
  }
}

TEST(SessionBitIdentity, FixedRangeMatchesHebsAtRange) {
  auto session = make_session();
  const auto img = hebs::image::make_usid(UsidId::kSplash, 48);
  auto result = session.process({view_of(img), 10.0, 120});
  ASSERT_TRUE(result.has_value()) << result.status().to_string();
  expect_matches_hebs(*result,
                      hebs::core::hebs_at_range(img, 120, {}, model()));
}

TEST(SessionBitIdentity, HebsCurveMatchesDirectCall) {
  // Characterize once at a small size, persist, and hand the session
  // the same curve through its config — both paths then run the
  // deployed Fig. 4 flow on identical inputs.
  const auto album = hebs::image::usid_album(32);
  const auto curve = hebs::core::DistortionCurve::characterize(
      album, hebs::core::DistortionCurve::default_ranges(), {}, model());
  const std::string path = ::testing::TempDir() + "hebs_api_curve.csv";
  curve.save(path);

  auto session =
      make_session(SessionConfig().policy("hebs-curve").curve_path(path));
  for (const GrayImage& img : seed_images(48)) {
    auto result = session.process({view_of(img), 10.0});
    ASSERT_TRUE(result.has_value()) << result.status().to_string();
    expect_matches_hebs(
        *result, hebs::core::hebs_with_curve(img, 10.0, curve, {}, model()));
  }
}

void expect_matches_point(const hebs::FrameResult& got,
                          const hebs::core::EvaluatedPoint& want) {
  EXPECT_EQ(got.beta, want.point.beta);
  EXPECT_EQ(got.distortion_percent, want.distortion_percent);
  EXPECT_EQ(got.saving_percent, want.saving_percent);
  ASSERT_EQ(got.lambda.size(), want.point.luminance_transform.points().size());
  for (std::size_t i = 0; i < got.lambda.size(); ++i) {
    EXPECT_EQ(got.lambda[i].x, want.point.luminance_transform.points()[i].x);
    EXPECT_EQ(got.lambda[i].y, want.point.luminance_transform.points()[i].y);
  }
  expect_same_raster(got.displayed, want.transformed);
}

TEST(SessionBitIdentity, DlsMatchesPolicy) {
  auto session = make_session(SessionConfig().policy("dls"));
  const auto img = hebs::image::make_usid(UsidId::kGirl, 48);
  auto result = session.process({view_of(img), 10.0});
  ASSERT_TRUE(result.has_value()) << result.status().to_string();
  const auto point =
      hebs::baseline::DlsPolicy(
          hebs::baseline::DlsMode::kBrightnessCompensation, {}, model())
          .choose(img, 10.0);
  expect_matches_point(*result, hebs::core::evaluate_operating_point(
                                    img, point, model(), {}));
}

TEST(SessionBitIdentity, CbcsMatchesPolicy) {
  auto session = make_session(SessionConfig().policy("cbcs"));
  const auto img = hebs::image::make_usid(UsidId::kSail, 48);
  auto result = session.process({view_of(img), 10.0});
  ASSERT_TRUE(result.has_value()) << result.status().to_string();
  const auto point =
      hebs::baseline::CbcsPolicy({}, {}, model()).choose(img, 10.0);
  expect_matches_point(*result, hebs::core::evaluate_operating_point(
                                    img, point, model(), {}));
}

TEST(SessionBitIdentity, PercentMappedAliasesUiqiHvs) {
  const auto img = hebs::image::make_usid(UsidId::kBaboon, 48);
  auto a = make_session(SessionConfig().metric("uiqi-hvs"))
               .process({view_of(img), 10.0});
  auto b = make_session(SessionConfig().metric("percent-mapped"))
               .process({view_of(img), 10.0});
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_EQ(a->beta, b->beta);
  EXPECT_EQ(a->distortion_percent, b->distortion_percent);
  EXPECT_EQ(a->displayed, b->displayed);
}

TEST(SessionBitIdentity, BatchMatchesSerialProcess) {
  auto session = make_session(SessionConfig().threads(2));
  const auto images = seed_images(48);
  std::vector<ImageView> frames;
  for (const auto& img : images) frames.push_back(view_of(img));
  auto batch = session.process_batch(frames, 10.0);
  ASSERT_TRUE(batch.has_value()) << batch.status().to_string();
  ASSERT_EQ(batch->size(), images.size());
  for (std::size_t i = 0; i < images.size(); ++i) {
    expect_matches_hebs((*batch)[i],
                        hebs::core::hebs_exact(images[i], 10.0, {}, model()));
  }
}

TEST(SessionBitIdentity, BaselineBatchMatchesSerialProcess) {
  auto session = make_session(SessionConfig().policy("dls"));
  const auto images = seed_images(40);
  std::vector<ImageView> frames;
  for (const auto& img : images) frames.push_back(view_of(img));
  auto batch = session.process_batch(frames, 10.0);
  ASSERT_TRUE(batch.has_value()) << batch.status().to_string();
  for (std::size_t i = 0; i < images.size(); ++i) {
    auto single = session.process({frames[i], 10.0});
    ASSERT_TRUE(single.has_value());
    EXPECT_EQ((*batch)[i].beta, single->beta);
    EXPECT_EQ((*batch)[i].displayed, single->displayed);
  }
}

TEST(SessionBitIdentity, VideoMatchesSerialController) {
  const auto clip = hebs::image::make_video_clip(8, 48);
  std::vector<ImageView> frames;
  for (const auto& frame : clip) frames.push_back(view_of(frame));

  auto session = make_session(SessionConfig().threads(2));
  auto video = session.process_video(frames, 10.0);
  ASSERT_TRUE(video.has_value()) << video.status().to_string();
  ASSERT_EQ(video->size(), clip.size());

  hebs::core::VideoOptions vopts;
  vopts.d_max_percent = 10.0;
  hebs::core::VideoBacklightController controller(vopts, model());
  for (std::size_t i = 0; i < clip.size(); ++i) {
    const auto want = controller.process(clip[i]);
    const hebs::VideoFrameResult& got = (*video)[i];
    EXPECT_EQ(got.raw_beta, want.raw_beta) << "frame " << i;
    EXPECT_EQ(got.beta, want.beta) << "frame " << i;
    EXPECT_EQ(got.scene_cut, want.scene_cut) << "frame " << i;
    EXPECT_EQ(got.frame.distortion_percent,
              want.evaluation.distortion_percent)
        << "frame " << i;
    expect_same_raster(got.frame.displayed, want.evaluation.transformed);
  }
}

// ------------------------------------------------ single-frame slot reuse
// Session::process runs every hebs-* frame on the engine's persistent
// single-frame slot: one FrameContext rebound per call and one retained
// buffer pool.  Call for call, a mixed sequence through one session must
// equal the internal entry point and a fresh session — nothing an
// earlier call left in the slot (caches, recycled buffers, another frame
// size, a rejected frame) may reach a later result.

/// The first `rows` rows of `img`: non-square and one-row frames.
GrayImage top_rows(const GrayImage& img, int rows) {
  return GrayImage::from_pixels(
      img.width(), rows,
      img.pixels().first(static_cast<std::size_t>(img.width()) * rows));
}

/// Every output field of two facade results, bit for bit.
void expect_same_result(const hebs::FrameResult& got,
                        const hebs::FrameResult& want) {
  EXPECT_EQ(got.beta, want.beta);
  EXPECT_EQ(got.g_min, want.g_min);
  EXPECT_EQ(got.g_max, want.g_max);
  EXPECT_EQ(got.lambda, want.lambda);
  EXPECT_EQ(got.phi, want.phi);
  EXPECT_EQ(got.plc_mse, want.plc_mse);
  EXPECT_EQ(got.distortion_percent, want.distortion_percent);
  EXPECT_EQ(got.saving_percent, want.saving_percent);
  EXPECT_EQ(got.power, want.power);
  EXPECT_EQ(got.reference_power, want.reference_power);
  EXPECT_EQ(got.displayed, want.displayed);
  EXPECT_EQ(got.displayed16, want.displayed16);
  EXPECT_EQ(got.displayed_rgb, want.displayed_rgb);
  EXPECT_EQ(got.hue_error, want.hue_error);
  EXPECT_EQ(got.degraded, want.degraded);
}

/// One call of a slot-reuse sequence.
struct SlotStep {
  ImageView view;         ///< what the session is handed
  const GrayImage* luma;  ///< what the decision runs on
  double budget;
  int fixed_range = 0;
  bool color = false;
};

/// Square, non-square and one-row frames plus an rgb8 frame, called at
/// 5/10/20% budgets, a fixed range and with color output, revisiting
/// earlier frames after others.
struct SlotFrames {
  GrayImage square = hebs::image::make_usid(UsidId::kLena, 48);
  GrayImage wide = top_rows(hebs::image::make_usid(UsidId::kPeppers, 64), 40);
  GrayImage row = top_rows(hebs::image::make_usid(UsidId::kBaboon, 64), 1);
  hebs::image::RgbImage rgb =
      hebs::image::make_usid_color(UsidId::kSail, 48);
  GrayImage luma = rgb.to_luma();

  std::vector<SlotStep> steps() const {
    const ImageView color =
        ImageView::rgb8(rgb.data().data(), rgb.width(), rgb.height());
    return {
        {view_of(square), &square, 10.0},
        {view_of(wide), &wide, 5.0},
        {view_of(row), &row, 20.0},
        {view_of(square), &square, 20.0},
        {view_of(wide), &wide, 10.0, 120},
        {color, &luma, 10.0, 0, true},
        {view_of(row), &row, 5.0},
        {view_of(square), &square, 10.0},
    };
  }
};

/// Runs `steps` through one session per {1, 4} threads x {pooled, plain
/// heap} and checks every call against `direct` (the internal entry
/// point, which throws InvalidArgument for a frame outside the metric's
/// domain) and against a fresh session.
template <typename Direct>
void expect_slot_sequence(const SessionConfig& base,
                          const std::vector<SlotStep>& steps,
                          const Direct& direct) {
  for (int threads : {1, 4}) {
    for (bool pool : {true, false}) {
      SCOPED_TRACE(std::to_string(threads) + " threads, buffer_pool " +
                   (pool ? "on" : "off"));
      const SessionConfig config =
          SessionConfig(base).threads(threads).buffer_pool(pool);
      auto session = make_session(config);
      for (std::size_t k = 0; k < steps.size(); ++k) {
        SCOPED_TRACE("step " + std::to_string(k));
        const SlotStep& step = steps[k];
        hebs::FrameRequest request{step.view, step.budget, step.fixed_range};
        request.color_output = step.color;
        auto got = session.process(request);
        auto fresh = make_session(config).process(request);
        std::optional<hebs::core::HebsResult> want;
        try {
          want = direct(step);
        } catch (const hebs::util::InvalidArgument&) {
        }
        if (!want) {
          // Outside the metric's domain: the same typed error from the
          // reused slot as from a fresh session.
          ASSERT_FALSE(got.has_value());
          ASSERT_FALSE(fresh.has_value());
          EXPECT_EQ(got.status().code(), fresh.status().code());
          continue;
        }
        ASSERT_TRUE(got.has_value()) << got.status().to_string();
        ASSERT_TRUE(fresh.has_value()) << fresh.status().to_string();
        expect_matches_hebs(*got, *want);
        expect_same_result(*got, *fresh);
      }
    }
  }
}

TEST(SessionSlotReuse, HebsExactSequenceMatchesDirectCallsAndFreshSessions) {
  const SlotFrames frames;
  // The default windowed metric rejects the one-row frame (a typed
  // error the slot must recover from); rmse is defined at every size.
  for (const bool rmse : {false, true}) {
    SCOPED_TRACE(rmse ? "rmse" : "uiqi-hvs");
    hebs::core::HebsOptions opts;
    if (rmse) opts.distortion.metric = hebs::quality::Metric::kRmse;
    expect_slot_sequence(
        SessionConfig().metric(rmse ? "rmse" : "uiqi-hvs"), frames.steps(),
        [&opts](const SlotStep& s) {
          return s.fixed_range > 0
                     ? hebs::core::hebs_at_range(*s.luma, s.fixed_range, opts,
                                                 model())
                     : hebs::core::hebs_exact(*s.luma, s.budget, opts,
                                              model());
        });
  }
}

TEST(SessionSlotReuse, ConcurrentCallersMatchFreshSessions) {
  // Callers sharing one session: whichever call finds the slot busy runs
  // on a one-off context; every result still equals a fresh session's.
  const SlotFrames frames;
  const std::vector<SlotStep> steps = frames.steps();
  const SessionConfig config = SessionConfig().metric("rmse").threads(2);
  const auto request_of = [](const SlotStep& step) {
    hebs::FrameRequest request{step.view, step.budget, step.fixed_range};
    request.color_output = step.color;
    return request;
  };
  std::vector<hebs::FrameResult> want;
  for (const SlotStep& step : steps) {
    auto fresh = make_session(config).process(request_of(step));
    ASSERT_TRUE(fresh.has_value()) << fresh.status().to_string();
    want.push_back(std::move(fresh).value());
  }
  auto session = make_session(config);
  constexpr std::size_t kCallers = 4;
  std::vector<std::vector<std::optional<hebs::FrameResult>>> got(
      kCallers, std::vector<std::optional<hebs::FrameResult>>(steps.size()));
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (std::size_t k = 0; k < steps.size(); ++k) {
        // Each caller walks the sequence from its own offset.
        const std::size_t i = (k + t) % steps.size();
        auto result = session.process(request_of(steps[i]));
        if (result) got[t][i] = std::move(result).value();
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (std::size_t t = 0; t < kCallers; ++t) {
    for (std::size_t i = 0; i < steps.size(); ++i) {
      SCOPED_TRACE("caller " + std::to_string(t) + ", step " +
                   std::to_string(i));
      ASSERT_TRUE(got[t][i].has_value());
      expect_same_result(*got[t][i], want[i]);
    }
  }
}

TEST(SessionSlotReuse, HebsCurveSequenceMatchesDirectCallsAndFreshSessions) {
  hebs::core::HebsOptions opts;
  opts.distortion.metric = hebs::quality::Metric::kRmse;
  const auto curve = hebs::core::DistortionCurve::characterize(
      hebs::image::usid_album(32),
      hebs::core::DistortionCurve::default_ranges(), opts, model());
  const std::string path = ::testing::TempDir() + "hebs_slot_curve.csv";
  curve.save(path);
  const SlotFrames frames;
  expect_slot_sequence(
      SessionConfig().policy("hebs-curve").metric("rmse").curve_path(path),
      frames.steps(), [&](const SlotStep& s) {
        return s.fixed_range > 0
                   ? hebs::core::hebs_at_range(*s.luma, s.fixed_range, opts,
                                               model())
                   : hebs::core::hebs_with_curve(*s.luma, s.budget, curve,
                                                 opts, model());
      });
}

TEST(SessionSlotReuse, DeepSessionSequenceMatchesContextAndFreshSessions) {
  const GrayImage16 square =
      GrayImage16::widen(hebs::image::make_usid(UsidId::kLena, 48), 1024);
  const GrayImage16 wide = GrayImage16::widen(
      top_rows(hebs::image::make_usid(UsidId::kPeppers, 64), 40), 1024);
  struct Step {
    const GrayImage16* image;
    double budget;
    int fixed_range;
  };
  const std::vector<Step> steps = {{&square, 10.0, 0},
                                   {&wide, 5.0, 0},
                                   {&square, 10.0, 600},
                                   {&wide, 20.0, 0},
                                   {&square, 10.0, 0}};
  for (int threads : {1, 4}) {
    for (bool pool : {true, false}) {
      SCOPED_TRACE(std::to_string(threads) + " threads, buffer_pool " +
                   (pool ? "on" : "off"));
      const SessionConfig config =
          SessionConfig().bit_depth(10).threads(threads).buffer_pool(pool);
      auto session = make_session(config);
      for (std::size_t k = 0; k < steps.size(); ++k) {
        SCOPED_TRACE("step " + std::to_string(k));
        const Step& step = steps[k];
        const hebs::FrameRequest request{
            ImageView::gray16(step.image->pixels().data(),
                              step.image->width(), step.image->height()),
            step.budget, step.fixed_range};
        auto got = session.process(request);
        auto fresh = make_session(config).process(request);
        ASSERT_TRUE(got.has_value()) << got.status().to_string();
        ASSERT_TRUE(fresh.has_value()) << fresh.status().to_string();
        hebs::pipeline::FrameContext ctx(*step.image, {}, model());
        const hebs::core::HebsResult want =
            step.fixed_range > 0
                ? ctx.at_range(step.fixed_range)
                : hebs::pipeline::run_exact(ctx, step.budget);
        EXPECT_EQ(got->beta, want.point.beta);
        EXPECT_EQ(got->g_min, want.target.g_min);
        EXPECT_EQ(got->g_max, want.target.g_max);
        EXPECT_EQ(got->distortion_percent,
                  want.evaluation.distortion_percent);
        EXPECT_EQ(got->lambda.size(), want.lambda.points().size());
        const auto px = want.evaluation.transformed16.pixels();
        EXPECT_TRUE(std::equal(got->displayed16.pixels().begin(),
                               got->displayed16.pixels().end(), px.begin(),
                               px.end()));
        expect_same_result(*got, *fresh);
      }
    }
  }
}

}  // namespace
