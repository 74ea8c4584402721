// Engine slots that outlive the call (DESIGN.md §9, "Engine slots"):
// batch slot k and stream slot k run on worker slot k, whose buffer
// pool and FrameContext the engine keeps across calls.  A
// call on kept slots must compute exactly what the same call computes
// on a fresh engine — whatever ran before it, at any geometry, depth or
// thread count, after a contained fault, and while another call holds
// the slots (that call runs on call-local slots).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "hebs/advanced/core.h"
#include "hebs/advanced/image.h"
#include "hebs/advanced/obs.h"
#include "hebs/advanced/pipeline.h"
#include "hebs/advanced/util.h"
#include "hebs/hebs.h"

namespace hebs::pipeline {
namespace {

namespace fault = hebs::util::fault;
using hebs::image::GrayImage;
using hebs::image::GrayImage16;
using hebs::image::RgbImage;
using hebs::image::UsidId;

constexpr double kBudget = 10.0;

const hebs::power::LcdSubsystemPower& model() {
  static const auto m = hebs::power::LcdSubsystemPower::lp064v1();
  return m;
}

/// The top-left w x h crop of a USID scene (non-square geometries).
GrayImage scene(UsidId id, int w, int h) {
  const GrayImage full = hebs::image::make_usid(id, std::max(w, h));
  GrayImage out(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) out(x, y) = full(x, y);
  }
  return out;
}

std::vector<GrayImage> album(int count, int w, int h, int offset = 0) {
  const UsidId ids[] = {UsidId::kLena,  UsidId::kPeppers, UsidId::kBaboon,
                        UsidId::kGirl,  UsidId::kPout,    UsidId::kSail,
                        UsidId::kTrees, UsidId::kSplash};
  std::vector<GrayImage> out;
  for (int i = 0; i < count; ++i) {
    out.push_back(scene(ids[(i + offset) % 8], w, h));
  }
  return out;
}

std::vector<GrayImage16> widen(const std::vector<GrayImage>& frames,
                               int levels) {
  std::vector<GrayImage16> out;
  for (const auto& f : frames) out.push_back(GrayImage16::widen(f, levels));
  return out;
}

std::vector<RgbImage> colorize(const std::vector<GrayImage>& frames) {
  std::vector<RgbImage> out;
  for (const auto& g : frames) {
    RgbImage rgb(g.width(), g.height());
    auto dst = rgb.data();
    const auto src = g.pixels();
    for (std::size_t i = 0; i < src.size(); ++i) {
      dst[3 * i + 0] = src[i];
      dst[3 * i + 1] = static_cast<std::uint8_t>(src[i] / 2);
      dst[3 * i + 2] = static_cast<std::uint8_t>(255 - src[i]);
    }
    out.push_back(std::move(rgb));
  }
  return out;
}

/// A clip with repeats (dedupe runs), a slow pan and a scene cut.
std::vector<GrayImage> clip(int w, int h) {
  const auto s = album(3, w, h);
  std::vector<GrayImage> out = {s[0], s[0], s[0]};
  GrayImage pan = s[1];
  for (int k = 0; k < 5; ++k) {
    for (auto& px : pan.pixels()) px = static_cast<std::uint8_t>(px * 31 / 32);
    out.push_back(pan);
  }
  out.push_back(s[2]);
  out.push_back(s[2]);
  return out;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

template <typename T>
bool same_bytes(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

void expect_same_curve(const hebs::transform::PwlCurve& a,
                       const hebs::transform::PwlCurve& b) {
  ASSERT_EQ(a.points().size(), b.points().size());
  for (std::size_t k = 0; k < a.points().size(); ++k) {
    EXPECT_TRUE(same_bits(a.points()[k].x, b.points()[k].x));
    EXPECT_TRUE(same_bits(a.points()[k].y, b.points()[k].y));
  }
}

void expect_same_evaluation(const core::EvaluatedPoint& a,
                            const core::EvaluatedPoint& b) {
  EXPECT_TRUE(same_bits(a.point.beta, b.point.beta));
  expect_same_curve(a.point.luminance_transform, b.point.luminance_transform);
  EXPECT_TRUE(same_bits(a.distortion_percent, b.distortion_percent));
  EXPECT_TRUE(same_bits(a.saving_percent, b.saving_percent));
  EXPECT_TRUE(same_bits(a.power.ccfl_watts, b.power.ccfl_watts));
  EXPECT_TRUE(same_bits(a.power.panel_watts, b.power.panel_watts));
  EXPECT_EQ(a.transformed.width(), b.transformed.width());
  EXPECT_TRUE(same_bytes(a.transformed.pixels(), b.transformed.pixels()));
  EXPECT_EQ(a.transformed16.width(), b.transformed16.width());
  EXPECT_TRUE(same_bytes(a.transformed16.pixels(), b.transformed16.pixels()));
}

void expect_same(const core::HebsResult& a, const core::HebsResult& b) {
  expect_same_evaluation(a.evaluation, b.evaluation);
  expect_same_curve(a.phi, b.phi);
  expect_same_curve(a.lambda, b.lambda);
  EXPECT_TRUE(same_bits(a.plc_mse, b.plc_mse));
  EXPECT_EQ(a.target.g_min, b.target.g_min);
  EXPECT_EQ(a.target.g_max, b.target.g_max);
}

void expect_same(const ColorBatchResult& a, const ColorBatchResult& b) {
  expect_same(a.luma, b.luma);
  EXPECT_EQ(a.color.displayed.width(), b.color.displayed.width());
  EXPECT_TRUE(same_bytes(a.color.displayed.data(), b.color.displayed.data()));
  EXPECT_TRUE(same_bits(a.color.hue_error, b.color.hue_error));
}

void expect_same(const core::FrameDecision& a, const core::FrameDecision& b) {
  EXPECT_TRUE(same_bits(a.raw_beta, b.raw_beta));
  EXPECT_TRUE(same_bits(a.beta, b.beta));
  EXPECT_EQ(a.scene_cut, b.scene_cut);
  EXPECT_TRUE(same_bits(a.point.beta, b.point.beta));
  expect_same_curve(a.point.luminance_transform, b.point.luminance_transform);
  expect_same_evaluation(a.evaluation, b.evaluation);
}

template <typename T>
bool same_vector(const std::vector<T>& a, const std::vector<T>& b) {
  return same_bytes(std::span<const T>(a), std::span<const T>(b));
}

void expect_same(const hebs::FrameResult& a, const hebs::FrameResult& b) {
  EXPECT_TRUE(same_bits(a.beta, b.beta));
  EXPECT_TRUE(same_bits(a.distortion_percent, b.distortion_percent));
  EXPECT_TRUE(same_bits(a.saving_percent, b.saving_percent));
  ASSERT_EQ(a.lambda.size(), b.lambda.size());
  for (std::size_t k = 0; k < a.lambda.size(); ++k) {
    EXPECT_TRUE(same_bits(a.lambda[k].x, b.lambda[k].x));
    EXPECT_TRUE(same_bits(a.lambda[k].y, b.lambda[k].y));
  }
  EXPECT_TRUE(same_vector(a.displayed.pixels(), b.displayed.pixels()));
  EXPECT_TRUE(same_vector(a.displayed16.pixels(), b.displayed16.pixels()));
  EXPECT_TRUE(same_vector(a.displayed_rgb.pixels(), b.displayed_rgb.pixels()));
  EXPECT_TRUE(same_bits(a.hue_error, b.hue_error));
  EXPECT_EQ(a.degraded, b.degraded);
}

void expect_same(const hebs::VideoFrameResult& a,
                 const hebs::VideoFrameResult& b) {
  EXPECT_TRUE(same_bits(a.raw_beta, b.raw_beta));
  EXPECT_TRUE(same_bits(a.beta, b.beta));
  EXPECT_EQ(a.scene_cut, b.scene_cut);
  expect_same(a.frame, b.frame);
}

template <typename R>
void expect_same_all(const std::vector<R>& a, const std::vector<R>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("frame " + std::to_string(i));
    expect_same(a[i], b[i]);
  }
}

std::vector<hebs::ImageView> views(const std::vector<GrayImage>& frames) {
  std::vector<hebs::ImageView> out;
  for (const auto& f : frames) {
    out.push_back(
        hebs::ImageView::gray8(f.pixels().data(), f.width(), f.height()));
  }
  return out;
}

std::vector<hebs::ImageView> views(const std::vector<GrayImage16>& frames) {
  std::vector<hebs::ImageView> out;
  for (const auto& f : frames) {
    out.push_back(
        hebs::ImageView::gray16(f.pixels().data(), f.width(), f.height()));
  }
  return out;
}

std::vector<hebs::ImageView> views(const std::vector<RgbImage>& frames) {
  std::vector<hebs::ImageView> out;
  for (const auto& f : frames) {
    out.push_back(
        hebs::ImageView::rgb8(f.data().data(), f.width(), f.height()));
  }
  return out;
}

EngineOptions engine_options(int threads, bool temporal = true) {
  EngineOptions opts;
  opts.num_threads = threads;
  opts.temporal_reuse = temporal;
  return opts;
}

core::VideoOptions video_options(int threads, bool temporal) {
  core::VideoOptions v;
  v.d_max_percent = kBudget;
  v.num_threads = threads;
  v.temporal_reuse = temporal;
  return v;
}

std::uint64_t fresh_blocks() {
  return obs::snapshot_counters()[obs::Counter::kPoolFresh];
}

class EngineSlots : public ::testing::Test {
 protected:
  void SetUp() override { fault::clear_all(); }
  void TearDown() override { fault::clear_all(); }
};

// Back-to-back gray batches alternating geometry (96² → 160×90 → 96²)
// and depth (8 → 10 → 8 bit): each call equals the same call on a fresh
// engine.
TEST_F(EngineSlots, BatchCallsMatchFreshEngine) {
  const auto square = album(6, 96, 96);
  const auto wide = album(5, 160, 90, 3);
  const auto wide10 = widen(wide, 1024);
  const auto square10 = widen(album(6, 96, 96, 2), 1024);
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    PipelineEngine kept(engine_options(threads), model());
    const auto fresh8 = [&](const std::vector<GrayImage>& frames) {
      PipelineEngine fresh(engine_options(threads), model());
      return fresh.process_batch(frames, kBudget);
    };
    const auto fresh16 = [&](const std::vector<GrayImage16>& frames) {
      PipelineEngine fresh(engine_options(threads), model());
      return fresh.process_batch(std::span<const GrayImage16>(frames),
                                 ExactPolicy(), kBudget);
    };
    const auto run16 = [&](const std::vector<GrayImage16>& frames) {
      return kept.process_batch(std::span<const GrayImage16>(frames),
                                ExactPolicy(), kBudget);
    };
    expect_same_all(kept.process_batch(square, kBudget), fresh8(square));
    expect_same_all(run16(wide10), fresh16(wide10));
    expect_same_all(kept.process_batch(wide, kBudget), fresh8(wide));
    expect_same_all(run16(square10), fresh16(square10));
    expect_same_all(kept.process_batch(square, kBudget), fresh8(square));
  }
}

// Color batches change geometry between calls; each frame's worker
// extracts its luma and decides exactly what process_batch decides on
// the pre-converted luma.
TEST_F(EngineSlots, ColorBatchCallsMatchFreshEngine) {
  const auto square = colorize(album(5, 96, 96));
  const auto wide = colorize(album(6, 160, 90, 4));
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    PipelineEngine kept(engine_options(threads), model());
    for (const auto* frames : {&square, &wide, &square}) {
      PipelineEngine fresh(engine_options(threads), model());
      const auto got = kept.process_batch_color(
          *frames, kBudget, core::ColorMode::kSharedCurve);
      expect_same_all(got, fresh.process_batch_color(
                               *frames, kBudget,
                               core::ColorMode::kSharedCurve));
      std::vector<GrayImage> lumas;
      for (const auto& rgb : *frames) lumas.push_back(rgb.to_luma());
      const auto gray = fresh.process_batch(lumas, kBudget);
      for (std::size_t i = 0; i < got.size(); ++i) {
        expect_same(got[i].luma, gray[i]);
      }
    }
  }
}

// Streams with temporal reuse on and off share the worker slots with
// batches; each clip still starts cold, so every call equals a fresh
// engine's.
TEST_F(EngineSlots, StreamCallsMatchFreshEngine) {
  const auto square = clip(96, 96);
  const auto wide = clip(160, 90);
  for (const bool temporal : {true, false}) {
    for (const int threads : {1, 2, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads) +
                   (temporal ? ", temporal" : ", cold"));
      PipelineEngine kept(engine_options(threads, temporal), model());
      const auto vopts = video_options(threads, temporal);
      const auto fresh = [&](const std::vector<GrayImage>& frames) {
        PipelineEngine engine(engine_options(threads, temporal), model());
        return engine.process_stream(frames, vopts);
      };
      expect_same_all(kept.process_stream(square, vopts), fresh(square));
      expect_same_all(kept.process_stream(wide, vopts), fresh(wide));
      (void)kept.process_batch(album(4, 160, 90), kBudget);
      expect_same_all(kept.process_stream(square, vopts), fresh(square));
    }
  }
}

// A stream whose controller runs other pipeline options than the
// engine's batches must not reuse a context built for the batch options
// (nor a batch one built for the stream's).
TEST_F(EngineSlots, ContextsFollowTheCallsOptions) {
  const auto frames = clip(96, 96);
  const auto batch = album(4, 96, 96);
  auto vopts = video_options(2, true);
  vopts.hebs.segments = 4;
  vopts.hebs.min_range = 32;
  PipelineEngine kept(engine_options(2), model());
  PipelineEngine fresh_stream(engine_options(2), model());
  PipelineEngine fresh_batch(engine_options(2), model());
  const auto want_stream = fresh_stream.process_stream(frames, vopts);
  const auto want_batch = fresh_batch.process_batch(batch, kBudget);
  expect_same_all(kept.process_batch(batch, kBudget), want_batch);
  expect_same_all(kept.process_stream(frames, vopts), want_stream);
  expect_same_all(kept.process_batch(batch, kBudget), want_batch);
}

// A fault contained in call 1 quarantines its slot; call 2 equals a
// fresh engine's call 2.
TEST_F(EngineSlots, ContainedFaultLeavesNextCallIdentical) {
  const auto frames = album(6, 96, 96);
  const auto colors = colorize(album(4, 160, 90));
  const auto video = clip(96, 96);
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    PipelineEngine kept(engine_options(threads), model());
    PipelineEngine fresh(engine_options(threads), model());
    const auto want_batch = fresh.process_batch(frames, kBudget);
    const auto want_color = PipelineEngine(engine_options(threads), model())
                                .process_batch_color(
                                    colors, kBudget,
                                    core::ColorMode::kSharedCurve);
    const auto want_stream =
        PipelineEngine(engine_options(threads), model())
            .process_stream(video, video_options(threads, true));

    std::string error;
    std::vector<FrameFault> faults;
    ASSERT_TRUE(fault::install_from_string("worker-task:first=2", &error));
    (void)kept.process_batch(frames, kBudget, &faults);
    fault::clear_all();
    EXPECT_EQ(std::count_if(faults.begin(), faults.end(),
                            [](const FrameFault& f) { return f.degraded; }),
              1);
    expect_same_all(kept.process_batch(frames, kBudget), want_batch);

    // An allocation fault unwinds a search mid-update.
    ASSERT_TRUE(fault::install_from_string("pool-alloc:first=50", &error));
    (void)kept.process_batch(frames, kBudget, &faults);
    fault::clear_all();
    EXPECT_EQ(std::count_if(faults.begin(), faults.end(),
                            [](const FrameFault& f) { return f.degraded; }),
              1);
    expect_same_all(kept.process_batch(frames, kBudget), want_batch);

    ASSERT_TRUE(fault::install_from_string("worker-task:first=3", &error));
    (void)kept.process_batch_color(colors, kBudget,
                                   core::ColorMode::kSharedCurve, &faults);
    fault::clear_all();
    EXPECT_TRUE(faults[2].degraded || threads > 1);
    expect_same_all(kept.process_batch_color(colors, kBudget,
                                             core::ColorMode::kSharedCurve),
                    want_color);

    ASSERT_TRUE(fault::install_from_string("worker-task:first=4", &error));
    (void)kept.process_stream(video, video_options(threads, true), &faults);
    fault::clear_all();
    expect_same_all(
        kept.process_stream(video, video_options(threads, true)),
        want_stream);
  }
}

// The session stages each multi-frame call's views into rasters it
// keeps across calls.  A call whose frames have the previous call's
// geometry (and depth) but other content equals the same call on a
// fresh session; so does one with fewer frames.
TEST_F(EngineSlots, SessionStagingMatchesFreshSession) {
  const auto gray_a = album(4, 96, 96);
  const auto gray_b = album(3, 96, 96, 4);
  const auto rgb_a = colorize(album(4, 96, 96, 1));
  const auto rgb_b = colorize(album(4, 96, 96, 5));
  const auto clip_a = clip(96, 96);
  auto clip_b = clip(96, 96);
  std::reverse(clip_b.begin(), clip_b.end());
  const auto deep_a = widen(gray_a, 1024);
  const auto deep_b = widen(gray_b, 1024);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const auto config = hebs::SessionConfig().threads(threads);
    auto kept = hebs::Session::create(config);
    ASSERT_TRUE(kept.has_value());
    const auto fresh = [&] {
      auto session = hebs::Session::create(config);
      EXPECT_TRUE(session.has_value());
      return session;
    };
    ASSERT_TRUE(kept->process_batch(views(gray_a), kBudget).has_value());
    expect_same_all(*kept->process_batch(views(gray_b), kBudget),
                    *fresh()->process_batch(views(gray_b), kBudget));
    ASSERT_TRUE(kept->process_batch_color(views(rgb_a), kBudget).has_value());
    expect_same_all(*kept->process_batch_color(views(rgb_b), kBudget),
                    *fresh()->process_batch_color(views(rgb_b), kBudget));
    ASSERT_TRUE(kept->process_video(views(clip_a), kBudget).has_value());
    expect_same_all(*kept->process_video(views(clip_b), kBudget),
                    *fresh()->process_video(views(clip_b), kBudget));
    ASSERT_TRUE(kept->process_video_color(views(rgb_a), kBudget).has_value());
    expect_same_all(*kept->process_video_color(views(rgb_b), kBudget),
                    *fresh()->process_video_color(views(rgb_b), kBudget));

    const auto deep_config =
        hebs::SessionConfig().threads(threads).bit_depth(10);
    auto deep = hebs::Session::create(deep_config);
    ASSERT_TRUE(deep.has_value());
    ASSERT_TRUE(deep->process_batch(views(deep_a), kBudget).has_value());
    expect_same_all(
        *deep->process_batch(views(deep_b), kBudget),
        *hebs::Session::create(deep_config)->process_batch(views(deep_b),
                                                           kBudget));
  }
}

/// ExactPolicy whose first decision waits until the other call's policy
/// has started deciding too, or 10 s pass.  `overlapped` records that
/// the wait ended because the other call arrived.
class RendezvousPolicy final : public Policy {
 public:
  explicit RendezvousPolicy(std::atomic<int>& arrived) : arrived_(arrived) {}
  core::HebsResult decide(FrameContext& ctx,
                          double d_max_percent) const override {
    if (!entered_.exchange(true)) {
      arrived_.fetch_add(1);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (arrived_.load() < 2 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      overlapped = arrived_.load() == 2;
    }
    return ExactPolicy().decide(ctx, d_max_percent);
  }

  mutable std::atomic<bool> overlapped{false};

 private:
  std::atomic<int>& arrived_;
  mutable std::atomic<bool> entered_{false};
};

// Two threads run process_batch_color on one engine at once.  On a
// one-thread engine both calls decide inline on their callers' threads,
// and the rendezvous proves they overlap inside the engine, so one of
// them ran on call-local slots: the worker slots' holder never waits
// for the other call.  Both match the serial results, and back to back
// the kept slots recycle every block.
TEST_F(EngineSlots, ConcurrentColorBatchesRunOnCallLocalSlots) {
  const auto a = colorize(album(3, 96, 96));
  const auto b = colorize(album(3, 160, 90, 5));
  const auto mode = core::ColorMode::kSharedCurve;
  const auto want_a =
      PipelineEngine(engine_options(1), model()).process_batch_color(
          a, kBudget, mode);
  const auto want_b =
      PipelineEngine(engine_options(1), model()).process_batch_color(
          b, kBudget, mode);

  PipelineEngine engine(engine_options(1), model());
  for (int pass = 0; pass < 2; ++pass) {
    (void)engine.process_batch_color(a, kBudget, mode);
    (void)engine.process_batch_color(b, kBudget, mode);
  }
  const std::uint64_t before = fresh_blocks();
  (void)engine.process_batch_color(a, kBudget, mode);
  (void)engine.process_batch_color(b, kBudget, mode);
  EXPECT_EQ(fresh_blocks() - before, 0u);

  std::atomic<int> arrived{0};
  const RendezvousPolicy policy_a(arrived);
  const RendezvousPolicy policy_b(arrived);
  std::vector<ColorBatchResult> got_b;
  std::thread other([&] {
    got_b = engine.process_batch_color(b, policy_b, kBudget, mode);
  });
  const auto got_a = engine.process_batch_color(a, policy_a, kBudget, mode);
  other.join();
  EXPECT_TRUE(policy_a.overlapped && policy_b.overlapped)
      << "one call waited for the other";
  expect_same_all(got_a, want_a);
  expect_same_all(got_b, want_b);
}

// The same race on multi-thread engines (fan-outs share one thread
// pool, so the calls interleave rather than overlap throughout): both
// complete with the serial results, and the engine's next call too.
TEST_F(EngineSlots, ConcurrentColorBatchesMatchSerial) {
  const auto a = colorize(album(4, 96, 96));
  const auto b = colorize(album(5, 160, 90, 2));
  const auto mode = core::ColorMode::kSharedCurve;
  for (const int threads : {2, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const auto want_a = PipelineEngine(engine_options(threads), model())
                            .process_batch_color(a, kBudget, mode);
    const auto want_b = PipelineEngine(engine_options(threads), model())
                            .process_batch_color(b, kBudget, mode);
    PipelineEngine engine(engine_options(threads), model());
    for (int round = 0; round < 3; ++round) {
      std::vector<ColorBatchResult> got_b;
      std::thread other(
          [&] { got_b = engine.process_batch_color(b, kBudget, mode); });
      const auto got_a = engine.process_batch_color(a, kBudget, mode);
      other.join();
      expect_same_all(got_a, want_a);
      expect_same_all(got_b, want_b);
    }
    expect_same_all(engine.process_batch_color(b, kBudget, mode), want_b);
  }
}

}  // namespace
}  // namespace hebs::pipeline
