// Stream dedupe by clip position (DESIGN.md §9, "Stream rounds"): a
// frame byte-identical to frame i−1 takes no search lane, inherits its
// run's source result and re-derives on the source's context.  The
// decisions must be exactly a one-thread cold run's at every thread
// count, and the byte-identical reuse count must be the number of
// frames equal to their predecessor — whatever the worker count.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "hebs/advanced/core.h"
#include "hebs/advanced/image.h"
#include "hebs/advanced/obs.h"
#include "hebs/advanced/pipeline.h"

namespace hebs::pipeline {
namespace {

using hebs::image::GrayImage;
using hebs::image::UsidId;
using obs::Counter;

constexpr int kSize = 48;

const hebs::power::LcdSubsystemPower& model() {
  static const auto m = hebs::power::LcdSubsystemPower::lp064v1();
  return m;
}

std::vector<GrayImage> scenes() {
  const UsidId ids[] = {UsidId::kLena,  UsidId::kPeppers, UsidId::kBaboon,
                        UsidId::kGirl,  UsidId::kPout,    UsidId::kSail,
                        UsidId::kTrees, UsidId::kSplash};
  std::vector<GrayImage> out;
  for (const UsidId id : ids) out.push_back(hebs::image::make_usid(id, kSize));
  return out;
}

/// Runs of `lengths[r]` copies of scene r % 8, back to back: every run
/// after the first follows a scene cut.
std::vector<GrayImage> runs_clip(const std::vector<int>& lengths) {
  const auto s = scenes();
  std::vector<GrayImage> clip;
  for (std::size_t r = 0; r < lengths.size(); ++r) {
    for (int k = 0; k < lengths[r]; ++k) clip.push_back(s[r % s.size()]);
  }
  return clip;
}

struct Clip {
  std::string name;
  std::vector<GrayImage> frames;
};

std::vector<Clip> clips() {
  std::vector<Clip> out;
  // Run lengths 1–11, a repeat run opening and closing the clip; with
  // 1/2/4/8 threads a round holds 1/4/8/16 runs, so the long runs land
  // across every fixed-stride round boundary the worker counts had.
  out.push_back({"runs", runs_clip({3, 1, 11, 2, 5, 1, 7, 4, 1, 9, 6, 2, 10,
                                    1, 8})});
  // A,A,B,B alternation after a cut, then a single frame and a repeat
  // of an earlier scene that is not its predecessor (no reuse).
  {
    const auto s = scenes();
    std::vector<GrayImage> f = {s[2]};
    for (int k = 0; k < 12; ++k) f.push_back(k / 2 % 2 == 0 ? s[5] : s[6]);
    f.push_back(s[7]);
    f.push_back(s[5]);
    f.push_back(s[5]);
    out.push_back({"alternating", std::move(f)});
  }
  // No scene cuts: the scenes differ only in a patch that sets their
  // brightest level, so the rate-limited applied β keeps moving through
  // each run and every duplicate re-derives at its own β.
  {
    GrayImage base = hebs::image::make_usid(UsidId::kSail, kSize);
    for (auto& px : base.pixels()) px = static_cast<std::uint8_t>(px / 2);
    std::vector<GrayImage> f;
    const double patches[] = {0.98, 0.6, 0.85, 0.55};
    const int lengths[] = {2, 5, 3, 4};
    for (int r = 0; r < 4; ++r) {
      GrayImage img = base;
      hebs::image::fill_rect(img, 0, 0, 10, 10, patches[r]);
      for (int k = 0; k < lengths[r]; ++k) f.push_back(img);
    }
    out.push_back({"drift", std::move(f)});
  }
  // One run: the whole clip is a single source.
  out.push_back({"static", runs_clip({12})});
  // No repeats at all.
  out.push_back({"distinct", runs_clip({1, 1, 1, 1, 1, 1, 1, 1, 1, 1})});
  return out;
}

std::size_t repeats(const std::vector<GrayImage>& frames) {
  std::size_t n = 0;
  for (std::size_t i = 1; i < frames.size(); ++i) {
    if (frames[i] == frames[i - 1]) ++n;
  }
  return n;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_same_decision(const core::FrameDecision& a,
                          const core::FrameDecision& b) {
  EXPECT_TRUE(same_bits(a.beta, b.beta));
  EXPECT_TRUE(same_bits(a.raw_beta, b.raw_beta));
  EXPECT_EQ(a.scene_cut, b.scene_cut);
  EXPECT_TRUE(same_bits(a.point.beta, b.point.beta));
  const auto& pa = a.point.luminance_transform.points();
  const auto& pb = b.point.luminance_transform.points();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t k = 0; k < pa.size(); ++k) {
    EXPECT_TRUE(same_bits(pa[k].x, pb[k].x) && same_bits(pa[k].y, pb[k].y))
        << "Λ point " << k;
  }
  EXPECT_TRUE(same_bits(a.evaluation.distortion_percent,
                        b.evaluation.distortion_percent));
  EXPECT_TRUE(
      same_bits(a.evaluation.saving_percent, b.evaluation.saving_percent));
  EXPECT_EQ(a.evaluation.transformed, b.evaluation.transformed);
}

core::VideoOptions video_options(int threads, bool temporal) {
  core::VideoOptions v;
  v.num_threads = threads;
  v.temporal_reuse = temporal;
  return v;
}

std::vector<core::FrameDecision> stream(const std::vector<GrayImage>& frames,
                                        int threads, bool temporal) {
  EngineOptions opts;
  opts.num_threads = threads;
  opts.temporal_reuse = temporal;
  return PipelineEngine(opts, model())
      .process_stream(frames, video_options(threads, temporal));
}

TEST(StreamDedupe, DecisionsEqualOneThreadColdRunAtEveryThreadCount) {
  for (const Clip& clip : clips()) {
    SCOPED_TRACE(clip.name);
    const auto cold = stream(clip.frames, 1, /*temporal=*/false);
    ASSERT_EQ(cold.size(), clip.frames.size());
    if (clip.name == "drift") {
      // Some duplicate really re-derives (no copy of its predecessor).
      bool moving = false;
      for (std::size_t i = 1; i < cold.size(); ++i) {
        moving |= clip.frames[i] == clip.frames[i - 1] &&
                  cold[i].beta != cold[i - 1].beta;
      }
      EXPECT_TRUE(moving);
    }
    for (int threads : {1, 2, 4, 8}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      const auto got = stream(clip.frames, threads, /*temporal=*/true);
      ASSERT_EQ(got.size(), cold.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE("frame " + std::to_string(i));
        expect_same_decision(got[i], cold[i]);
      }
    }
  }
}

TEST(StreamDedupe, ByteIdenticalCountIsPositionalAtEveryThreadCount) {
  for (const Clip& clip : clips()) {
    SCOPED_TRACE(clip.name);
    const std::size_t dups = repeats(clip.frames);
    for (int threads : {1, 2, 4, 8}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      const auto before = obs::snapshot_counters();
      (void)stream(clip.frames, threads, /*temporal=*/true);
      const auto d = obs::snapshot_counters().delta_since(before);
      EXPECT_EQ(d[Counter::kTemporalByteIdentical], dups);
      // A duplicate takes no search; every other frame takes one.
      EXPECT_EQ(d[Counter::kFramesDecided], clip.frames.size() - dups);
      // The temporal split still adds up to one level per frame.
      EXPECT_EQ(d[Counter::kTemporalFrames], clip.frames.size());
      EXPECT_EQ(d[Counter::kTemporalByteIdentical] +
                    d[Counter::kTemporalDeltaRefresh] +
                    d[Counter::kTemporalCold],
                clip.frames.size());
    }
  }
}

TEST(StreamDedupe, TemporalReuseOffSearchesEveryFrame) {
  const auto clip = runs_clip({4, 3});
  for (int threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    const auto before = obs::snapshot_counters();
    (void)stream(clip, threads, /*temporal=*/false);
    const auto d = obs::snapshot_counters().delta_since(before);
    EXPECT_EQ(d[Counter::kTemporalByteIdentical], 0u);
    EXPECT_EQ(d[Counter::kFramesDecided], clip.size());
  }
}

TEST(StreamDedupe, DuplicatesRecordTheirReuseInTheTrace) {
  const auto clip = runs_clip({1, 5, 2});
  for (int threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    obs::start_tracing();
    (void)stream(clip, threads, /*temporal=*/true);
    obs::stop_tracing();
    const auto spans = obs::collect_trace();
    obs::clear_trace();
    EXPECT_EQ(obs::dropped_spans(), 0u);
    std::size_t frames = 0;
    std::size_t byte_identical = 0;
    std::size_t post = 0;
    for (const obs::CollectedSpan& s : spans) {
      if (s.span == obs::Span::kFrame) ++frames;
      if (s.span == obs::Span::kTemporalReuse && s.arg == 2) ++byte_identical;
      if (s.span == obs::Span::kFlickerPost) ++post;
    }
    EXPECT_EQ(frames, clip.size());
    EXPECT_EQ(byte_identical, repeats(clip));
    EXPECT_EQ(post, clip.size());
  }
}

}  // namespace
}  // namespace hebs::pipeline
