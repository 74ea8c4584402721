// Error-path tests for the stable facade: Status/Expected semantics,
// per-field SessionConfig validation, request validation, registry
// lookups, and the tightened core option checks behind them.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "hebs/advanced/core.h"
#include "hebs/hebs.h"
#include "hebs/advanced/image.h"
#include "hebs/advanced/util.h"

namespace {

using hebs::ImageView;
using hebs::Session;
using hebs::SessionConfig;
using hebs::Status;
using hebs::StatusCode;

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.to_string(), "ok");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s(StatusCode::kInvalidStride, "stride 3 too small");
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(static_cast<bool>(s));
  EXPECT_EQ(s.to_string(), "invalid-stride: stride 3 too small");
}

TEST(Status, EveryCodeHasAName) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidOption, StatusCode::kInvalidImage,
        StatusCode::kInvalidStride, StatusCode::kInvalidBudget,
        StatusCode::kUnknownPolicy, StatusCode::kUnknownMetric,
        StatusCode::kUnknownDepth, StatusCode::kIoError,
        StatusCode::kInternal}) {
    EXPECT_STRNE(hebs::status_code_name(code), "unknown");
  }
}

TEST(Expected, HoldsValueOrStatus) {
  hebs::Expected<int> ok(42);
  EXPECT_TRUE(ok.has_value());
  EXPECT_EQ(*ok, 42);
  EXPECT_TRUE(ok.status().ok());
  EXPECT_EQ(ok.value_or(-1), 42);

  hebs::Expected<int> bad(Status(StatusCode::kInternal, "boom"));
  EXPECT_FALSE(bad.has_value());
  EXPECT_EQ(bad.status().code(), StatusCode::kInternal);
  EXPECT_EQ(bad.value_or(-1), -1);
  EXPECT_THROW((void)bad.value(), std::logic_error);
}

TEST(Expected, RejectsOkStatus) {
  EXPECT_THROW(hebs::Expected<int>{Status{}}, std::logic_error);
}

// ------------------------------------------------ per-field validation

void expect_invalid_option(const SessionConfig& config) {
  const Status s = config.validate();
  EXPECT_EQ(s.code(), StatusCode::kInvalidOption) << s.to_string();
}

TEST(SessionConfigValidate, DefaultsAreValid) {
  EXPECT_TRUE(SessionConfig().validate().ok());
}

TEST(SessionConfigValidate, RejectsSegmentsBelowOne) {
  expect_invalid_option(SessionConfig().segments(0));
  expect_invalid_option(SessionConfig().segments(-3));
}

TEST(SessionConfigValidate, RejectsGMinFloorOutsideDomain) {
  expect_invalid_option(SessionConfig().g_min_floor(-1));
  expect_invalid_option(SessionConfig().g_min_floor(255));
}

TEST(SessionConfigValidate, RejectsMinRangeBelowTwo) {
  expect_invalid_option(SessionConfig().min_range(1));
  expect_invalid_option(SessionConfig().min_range(0));
  expect_invalid_option(SessionConfig().min_range(300));
}

TEST(SessionConfigValidate, RejectsMinBetaOutsideUnitInterval) {
  expect_invalid_option(SessionConfig().min_beta(0.0));
  expect_invalid_option(SessionConfig().min_beta(-0.1));
  expect_invalid_option(SessionConfig().min_beta(1.5));
}

TEST(SessionConfigValidate, RejectsEqualizationStrengthAboveOne) {
  expect_invalid_option(SessionConfig().equalization_strength(1.01));
  expect_invalid_option(SessionConfig().equalization_strength(
      std::numeric_limits<double>::quiet_NaN()));
  // Negative means adaptive and is valid.
  EXPECT_TRUE(SessionConfig().equalization_strength(-1.0).validate().ok());
}

TEST(SessionConfigValidate, RejectsNegativeThreads) {
  expect_invalid_option(SessionConfig().threads(-1));
}

TEST(SessionConfigValidate, RejectsVideoKnobsOutsideDomain) {
  expect_invalid_option(SessionConfig().max_beta_step(0.0));
  expect_invalid_option(SessionConfig().ema_alpha(0.0));
  expect_invalid_option(SessionConfig().scene_cut_threshold(2.5));
  expect_invalid_option(SessionConfig().scene_cut_threshold(
      std::numeric_limits<double>::quiet_NaN()));
  expect_invalid_option(SessionConfig().characterization_size(8));
}

// The same domains are enforced (as throws) at the internal layer, so
// code bypassing the facade cannot reach the degenerate DP either.
TEST(CoreOptionValidation, RejectedFieldsThrowInternally) {
  const auto img = hebs::image::make_usid(hebs::image::UsidId::kLena, 32);
  const auto model = hebs::power::LcdSubsystemPower::lp064v1();

  hebs::core::HebsOptions bad_segments;
  bad_segments.segments = 0;
  EXPECT_THROW((void)hebs::core::hebs_at_range(img, 100, bad_segments, model),
               hebs::util::InvalidArgument);

  hebs::core::HebsOptions bad_min_range;
  bad_min_range.min_range = 1;
  EXPECT_THROW((void)hebs::core::hebs_at_range(img, 100, bad_min_range, model),
               hebs::util::InvalidArgument);

  hebs::core::HebsOptions bad_min_beta;
  bad_min_beta.min_beta = 0.0;
  EXPECT_THROW((void)hebs::core::hebs_at_range(img, 100, bad_min_beta, model),
               hebs::util::InvalidArgument);
}

// ------------------------------------------------- request validation

hebs::Session make_session(SessionConfig config = {}) {
  auto session = Session::create(std::move(config));
  EXPECT_TRUE(session.has_value()) << session.status().to_string();
  return std::move(session).value();
}

TEST(SessionErrors, EmptyViewIsInvalidImage) {
  auto session = make_session();
  auto result = session.process({ImageView(), 10.0});
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidImage);
}

TEST(SessionErrors, BadStrideIsInvalidStride) {
  std::vector<std::uint8_t> pixels(64, 0);
  auto session = make_session();
  auto result =
      session.process({ImageView::gray8(pixels.data(), 8, 8, 5), 10.0});
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidStride);
}

TEST(SessionErrors, OutOfRangeBudgetIsInvalidBudget) {
  const auto img = hebs::image::make_usid(hebs::image::UsidId::kLena, 32);
  const ImageView view =
      ImageView::gray8(img.pixels().data(), img.width(), img.height());
  auto session = make_session();
  EXPECT_EQ(session.process({view, -1.0}).status().code(),
            StatusCode::kInvalidBudget);
  EXPECT_EQ(session.process({view, 150.0}).status().code(),
            StatusCode::kInvalidBudget);
  EXPECT_EQ(session.process_batch({view}, -0.5).status().code(),
            StatusCode::kInvalidBudget);
  EXPECT_EQ(session.process_video({view}, 101.0).status().code(),
            StatusCode::kInvalidBudget);
}

TEST(SessionErrors, FixedRangeOutsideDomainIsInvalidOption) {
  const auto img = hebs::image::make_usid(hebs::image::UsidId::kLena, 32);
  const ImageView view =
      ImageView::gray8(img.pixels().data(), img.width(), img.height());
  auto session = make_session();
  EXPECT_EQ(session.process({view, 10.0, 300}).status().code(),
            StatusCode::kInvalidOption);
  EXPECT_EQ(session.process({view, 10.0, -2}).status().code(),
            StatusCode::kInvalidOption);
  // The same floor min_range enforces: a one-level range is rejected.
  EXPECT_EQ(session.process({view, 10.0, 1}).status().code(),
            StatusCode::kInvalidOption);
}

TEST(SessionErrors, FixedRangeRejectedForBaselinePolicies) {
  const auto img = hebs::image::make_usid(hebs::image::UsidId::kLena, 32);
  const ImageView view =
      ImageView::gray8(img.pixels().data(), img.width(), img.height());
  auto session = make_session(SessionConfig().policy("cbcs"));
  EXPECT_EQ(session.process({view, 10.0, 128}).status().code(),
            StatusCode::kInvalidOption);
}

TEST(SessionErrors, VideoRequiresHebsExact) {
  const auto img = hebs::image::make_usid(hebs::image::UsidId::kLena, 32);
  const ImageView view =
      ImageView::gray8(img.pixels().data(), img.width(), img.height());
  auto session = make_session(SessionConfig().policy("dls"));
  EXPECT_EQ(session.process_video({view}, 10.0).status().code(),
            StatusCode::kInvalidOption);
}

TEST(SessionErrors, BatchNamesTheOffendingFrame) {
  const auto img = hebs::image::make_usid(hebs::image::UsidId::kLena, 32);
  auto session = make_session();
  const std::vector<ImageView> frames = {
      ImageView::gray8(img.pixels().data(), img.width(), img.height()),
      ImageView()};
  auto result = session.process_batch(frames, 10.0);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidImage);
  EXPECT_NE(result.status().message().find("frame 1"), std::string::npos);
}

TEST(SessionErrors, MissingCurveFileIsIoError) {
  auto session = Session::create(SessionConfig()
                                     .policy("hebs-curve")
                                     .curve_path("/nonexistent/curve.csv"));
  EXPECT_EQ(session.status().code(), StatusCode::kIoError);
}

// ------------------------------------------------------- registries

TEST(Registries, CreateRejectsUnknownNames) {
  EXPECT_EQ(Session::create(SessionConfig().policy("mbbhe")).status().code(),
            StatusCode::kUnknownPolicy);
  EXPECT_EQ(Session::create(SessionConfig().metric("psnr")).status().code(),
            StatusCode::kUnknownMetric);
}

TEST(Registries, LaunchEntriesArePresent) {
  for (const char* name : {"hebs-exact", "hebs-curve", "dls", "cbcs", "bbhe"}) {
    EXPECT_TRUE(hebs::PolicyRegistry::contains(name)) << name;
  }
  for (const char* name : {"uiqi-hvs", "percent-mapped"}) {
    EXPECT_TRUE(hebs::MetricRegistry::contains(name)) << name;
  }
  EXPECT_FALSE(hebs::PolicyRegistry::contains("no-such-policy"));
  EXPECT_FALSE(hebs::MetricRegistry::contains("no-such-metric"));
}

TEST(Registries, NamesMatchEntriesAndHaveDescriptions) {
  const auto policy_names = hebs::PolicyRegistry::names();
  ASSERT_EQ(policy_names.size(), hebs::PolicyRegistry::entries().size());
  for (std::size_t i = 0; i < policy_names.size(); ++i) {
    EXPECT_EQ(policy_names[i], hebs::PolicyRegistry::entries()[i].name);
    EXPECT_FALSE(hebs::PolicyRegistry::entries()[i].description.empty());
  }
  const auto metric_names = hebs::MetricRegistry::names();
  ASSERT_EQ(metric_names.size(), hebs::MetricRegistry::entries().size());
  for (std::size_t i = 0; i < metric_names.size(); ++i) {
    EXPECT_EQ(metric_names[i], hebs::MetricRegistry::entries()[i].name);
    EXPECT_FALSE(hebs::MetricRegistry::entries()[i].description.empty());
  }
}

// Round-trip: every registered name must build a working session.
TEST(Registries, EveryRegisteredNameCreatesASession) {
  for (const auto& name : hebs::PolicyRegistry::names()) {
    auto session = Session::create(SessionConfig().policy(name));
    EXPECT_TRUE(session.has_value())
        << name << ": " << session.status().to_string();
  }
  for (const auto& name : hebs::MetricRegistry::names()) {
    auto session = Session::create(SessionConfig().metric(name));
    if (name == "hue-error") {
      // Report-only: listed so the color modes are comparable, but it
      // measures chroma of the RGB rendering, not luma distortion — it
      // cannot drive the decision loop.
      ASSERT_FALSE(session.has_value());
      EXPECT_EQ(session.status().code(), StatusCode::kInvalidOption);
      continue;
    }
    EXPECT_TRUE(session.has_value())
        << name << ": " << session.status().to_string();
  }
}

}  // namespace
