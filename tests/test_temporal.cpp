// Tests for the temporal-coherence fast path and its bit-identity
// guarantees: stream outputs must match the cold per-frame search
// exactly on every clip shape (static, slow pan, scene cuts, duplicate
// frames), whatever the seed quality, thread count, or pool state.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hebs/advanced/core.h"
#include "histogram/histogram.h"
#include "hebs/advanced/image.h"
#include "hebs/advanced/obs.h"
#include "hebs/advanced/pipeline.h"
#include "power/lcd_power.h"
#include "util/pool.h"
#include "hebs/advanced/util.h"

namespace hebs::pipeline {
namespace {

using hebs::image::GrayImage;

const hebs::power::LcdSubsystemPower& model() {
  static const auto m = hebs::power::LcdSubsystemPower::lp064v1();
  return m;
}

bool same_result(const core::HebsResult& a, const core::HebsResult& b) {
  return a.point.beta == b.point.beta &&
         a.point.luminance_transform.points() ==
             b.point.luminance_transform.points() &&
         a.phi.points() == b.phi.points() &&
         a.lambda.points() == b.lambda.points() &&
         a.plc_mse == b.plc_mse && a.target.g_min == b.target.g_min &&
         a.target.g_max == b.target.g_max &&
         a.evaluation.distortion_percent ==
             b.evaluation.distortion_percent &&
         a.evaluation.saving_percent == b.evaluation.saving_percent &&
         a.evaluation.transformed == b.evaluation.transformed;
}

bool same_decision(const core::FrameDecision& a,
                   const core::FrameDecision& b) {
  return a.raw_beta == b.raw_beta && a.beta == b.beta &&
         a.scene_cut == b.scene_cut && a.point.beta == b.point.beta &&
         a.point.luminance_transform.points() ==
             b.point.luminance_transform.points() &&
         a.evaluation.distortion_percent ==
             b.evaluation.distortion_percent &&
         a.evaluation.saving_percent == b.evaluation.saving_percent &&
         a.evaluation.transformed == b.evaluation.transformed;
}

// --------------------------------------------------------------- clips

std::vector<GrayImage> static_clip(int frames, int size) {
  const GrayImage base = hebs::image::make_usid(hebs::image::UsidId::kPout,
                                                size);
  return std::vector<GrayImage>(static_cast<std::size_t>(frames), base);
}

std::vector<GrayImage> scene_cut_clip(int size) {
  using hebs::image::UsidId;
  std::vector<GrayImage> clip;
  for (UsidId id : {UsidId::kPout, UsidId::kBaboon, UsidId::kSplash}) {
    const GrayImage scene = hebs::image::make_usid(id, size);
    for (int i = 0; i < 4; ++i) clip.push_back(scene);
  }
  return clip;
}

std::vector<GrayImage> duplicate_frame_clip(int size) {
  // A B B A A B: duplicates both within and across runs.
  const GrayImage a = hebs::image::make_usid(hebs::image::UsidId::kLena,
                                             size);
  const GrayImage b = hebs::image::make_usid(hebs::image::UsidId::kPears,
                                             size);
  return {a, b, b, a, a, b};
}

/// Serial reference: a fresh controller processing frame by frame
/// through the cold path (fresh context per frame).
std::vector<core::FrameDecision> serial_reference(
    const std::vector<GrayImage>& clip, core::VideoOptions opts) {
  opts.temporal_reuse = false;
  opts.use_buffer_pool = false;
  core::VideoBacklightController ctl(opts, model());
  std::vector<core::FrameDecision> out;
  out.reserve(clip.size());
  for (const auto& frame : clip) out.push_back(ctl.process(frame));
  return out;
}

void expect_stream_matches_serial(const std::vector<GrayImage>& clip) {
  core::VideoOptions opts;
  opts.d_max_percent = 10.0;
  const auto reference = serial_reference(clip, opts);
  for (const bool temporal : {false, true}) {
    for (const bool pooled : {false, true}) {
      for (const int threads : {1, 4}) {
        core::VideoOptions run = opts;
        run.temporal_reuse = temporal;
        run.use_buffer_pool = pooled;
        run.num_threads = threads;
        core::VideoBacklightController ctl(run, model());
        const auto decisions = ctl.process_clip(clip);
        ASSERT_EQ(decisions.size(), reference.size());
        for (std::size_t i = 0; i < decisions.size(); ++i) {
          EXPECT_TRUE(same_decision(decisions[i], reference[i]))
              << "frame " << i << " temporal=" << temporal
              << " pooled=" << pooled << " threads=" << threads;
        }
      }
    }
  }
}

TEST(Temporal, StreamMatchesSerialOnStaticClip) {
  expect_stream_matches_serial(static_clip(8, 48));
}

TEST(Temporal, StreamMatchesSerialOnSlowPan) {
  expect_stream_matches_serial(hebs::image::make_video_clip(10, 48));
}

TEST(Temporal, StreamMatchesSerialOnSceneCuts) {
  expect_stream_matches_serial(scene_cut_clip(48));
}

TEST(Temporal, StreamMatchesSerialOnDuplicateFrames) {
  expect_stream_matches_serial(duplicate_frame_clip(48));
}

TEST(Temporal, StreamSeedsOnlyFromTheClipPredecessor) {
  // A sprite crossing a held scene: small deltas whose warm starts
  // verify.  At one worker each search is seeded by its predecessor's;
  // at two, every round holds four runs, so no slot ever holds its
  // source's predecessor and no search may be seeded.
  const GrayImage base = hebs::image::make_usid(hebs::image::UsidId::kSail,
                                                48);
  std::vector<GrayImage> clip;
  for (int f = 0; f < 10; ++f) {
    GrayImage frame = base;
    for (int y = 10; y < 14; ++y) {
      for (int x = f; x < f + 4; ++x) frame(x, y) = 230;
    }
    clip.push_back(std::move(frame));
  }
  std::uint64_t warm[2] = {0, 0};
  for (const int threads : {1, 2}) {
    pipeline::EngineOptions eopts;
    eopts.num_threads = threads;
    pipeline::PipelineEngine engine(eopts, model());
    core::VideoOptions vopts;
    vopts.num_threads = threads;
    const auto before = hebs::obs::snapshot_counters();
    (void)engine.process_stream(clip, vopts);
    warm[threads - 1] = hebs::obs::snapshot_counters().delta_since(
        before)[hebs::obs::Counter::kTemporalWarmVerified];
  }
  EXPECT_GT(warm[0], 0u);
  EXPECT_EQ(warm[1], 0u);
}

// ------------------------------------------- warm-start bit-identity

/// The load-bearing property: run_exact_traced returns the bits of
/// run_exact for ANY seed — a stale seed, a seed from unrelated
/// content, or none — wherever measured distortion is monotone over
/// the search interval (the DESIGN.md §9 contract; budgets inside a
/// sub-0.1% non-monotone wiggle may legitimately select a different
/// verified bracket).  Fuzzed over diverse images and round budgets,
/// which sit well clear of the wiggles.
TEST(Temporal, WarmSearchMatchesColdForArbitrarySeeds) {
  const auto album = hebs::image::usid_album(48);
  const double budgets[] = {2.0, 10.0, 35.0};
  std::vector<SearchTrace> traces;
  // First pass: collect every (image, budget) trace.
  for (const auto& [name, img] : album) {
    for (const double d : budgets) {
      FrameContext ctx(img, {}, model());
      SearchTrace trace;
      (void)run_exact_traced(ctx, d, nullptr, &trace);
      traces.push_back(trace);
    }
  }
  // Second pass: every image/budget warmed with a rotating (usually
  // wrong) seed must still reproduce the cold bits.
  hebs::util::Rng rng(7);
  std::size_t warm_hits = 0;
  std::size_t runs = 0;
  for (std::size_t i = 0; i < album.size(); ++i) {
    for (const double d : budgets) {
      const auto& img = album[i].image;
      FrameContext cold_ctx(img, {}, model());
      const core::HebsResult cold = run_exact(cold_ctx, d);
      const auto& seed =
          traces[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<int>(traces.size()) - 1))];
      FrameContext warm_ctx(img, {}, model());
      SearchTrace out;
      const core::HebsResult warm =
          run_exact_traced(warm_ctx, d, &seed, &out);
      EXPECT_TRUE(same_result(cold, warm))
          << album[i].name << " at D_max " << d;
      warm_hits += out.warmed ? 1 : 0;
      ++runs;
    }
  }
  // Self-seeding sanity: an exact seed must verify (fast path taken).
  for (const double d : budgets) {
    const auto& img = album[0].image;
    FrameContext ctx(img, {}, model());
    SearchTrace first;
    const auto cold = run_exact_traced(ctx, d, nullptr, &first);
    FrameContext ctx2(img, {}, model());
    SearchTrace second;
    const auto warm = run_exact_traced(ctx2, d, &first, &second);
    EXPECT_TRUE(same_result(cold, warm));
    EXPECT_TRUE(second.warmed);
  }
  (void)warm_hits;
  (void)runs;
}

// ----------------------------------------------- TemporalReuse engine

TEST(Temporal, ReuseMatchesColdOnPerturbedFrames) {
  // Frame chain A, A, A+ε, B (duplicate, small delta, scene change):
  // every TemporalReuse result must equal a fresh cold search.  The
  // duplicate is a zero-pixel delta here (byte-identical reuse is the
  // stream's position check, StreamDedupe.*).
  const GrayImage a = hebs::image::make_usid(hebs::image::UsidId::kGirl, 48);
  GrayImage a_eps = a;
  a_eps.set(3, 5, static_cast<std::uint8_t>(a.at(3, 5) ^ 0x10));
  a_eps.set(40, 41, static_cast<std::uint8_t>(a.at(40, 41) + 1));
  const GrayImage b = hebs::image::make_usid(hebs::image::UsidId::kBaboon,
                                             48);
  const std::vector<GrayImage> chain = {a, a, a_eps, b};

  hebs::util::BufferPool pool;
  hebs::util::PoolScope scope(&pool);
  FrameContext ctx({}, model());
  TemporalReuse reuse;
  const auto before = hebs::obs::snapshot_counters();
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const core::HebsResult warm = reuse.process(ctx, chain[i], 10.0);
    FrameContext cold_ctx(chain[i], {}, model());
    const core::HebsResult cold = run_exact(cold_ctx, 10.0);
    EXPECT_TRUE(same_result(warm, cold)) << "frame " << i;
  }
  EXPECT_GE(hebs::obs::snapshot_counters().delta_since(
                before)[hebs::obs::Counter::kTemporalDeltaRefresh],
            2u);
}

TEST(Temporal, RebindAfterPoolRecycleLeaksNoStaleCaches) {
  // One context cycling A → B → A through a recycling pool must produce
  // the same bits as fresh contexts: recycled buffers carry no stale
  // cache state through FrameContext::rebind.
  const GrayImage a = hebs::image::make_usid(hebs::image::UsidId::kSail, 48);
  const GrayImage b = hebs::image::make_usid(hebs::image::UsidId::kOnion,
                                             48);
  hebs::util::BufferPool pool;
  hebs::util::PoolScope scope(&pool);
  FrameContext recycled({}, model());
  const GrayImage* sequence[] = {&a, &b, &a, &b, &a};
  for (const GrayImage* frame : sequence) {
    recycled.rebind(*frame);
    const core::HebsResult warm = run_exact(recycled, 10.0);
    FrameContext fresh(*frame, {}, model());
    const core::HebsResult cold = run_exact(fresh, 10.0);
    EXPECT_TRUE(same_result(warm, cold));
  }
  // The pool did recycle (second A onward draws from the free lists).
  EXPECT_GT(pool.stats().hits, 0u);
}

// ------------------------------------------------ incremental histogram

TEST(Temporal, HistogramDeltaRefreshIsExact) {
  hebs::util::Rng rng(2005);
  const GrayImage prev = hebs::image::make_usid(hebs::image::UsidId::kTrees,
                                                64);
  GrayImage cur = prev;
  for (int i = 0; i < 200; ++i) {
    const int x = rng.uniform_int(0, 63);
    const int y = rng.uniform_int(0, 63);
    cur.set(x, y, static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
  }
  auto hist = hebs::histogram::Histogram::from_image(prev);
  std::size_t changed = 0;
  ASSERT_TRUE(hist.refresh_from_delta(prev, cur, cur.size(), &changed));
  EXPECT_LE(changed, 200u);
  const auto exact = hebs::histogram::Histogram::from_image(cur);
  EXPECT_EQ(hist, exact);
}

TEST(Temporal, HistogramDeltaRefreshDetectsIdenticalFrames) {
  const GrayImage img = hebs::image::make_usid(hebs::image::UsidId::kWest,
                                               48);
  auto hist = hebs::histogram::Histogram::from_image(img);
  const auto before = hist;
  std::size_t changed = 123;
  ASSERT_TRUE(hist.refresh_from_delta(img, img, 0, &changed));
  EXPECT_EQ(changed, 0u);
  EXPECT_EQ(hist, before);
}

TEST(Temporal, HistogramDeltaRefreshBailsOnLargeDeltas) {
  const GrayImage a(33, 17, 10);  // odd sizes exercise the word tail
  const GrayImage b(33, 17, 200);
  auto hist = hebs::histogram::Histogram::from_image(a);
  const auto before = hist;
  EXPECT_FALSE(hist.refresh_from_delta(a, b, a.size() / 4));
  EXPECT_EQ(hist, before);  // untouched on bail
  // Unlimited threshold succeeds even on a full-frame change.
  ASSERT_TRUE(hist.refresh_from_delta(a, b, a.size()));
  EXPECT_EQ(hist, hebs::histogram::Histogram::from_image(b));
}

}  // namespace
}  // namespace hebs::pipeline
