// Tests for the batch/stream PipelineEngine: determinism across thread
// counts, bit-identity with the serial path, ordered flicker control.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "hebs/advanced/core.h"
#include "hebs/advanced/image.h"
#include "hebs/advanced/pipeline.h"
#include "pipeline/executor.h"
#include "hebs/advanced/util.h"

namespace hebs::pipeline {
namespace {

using hebs::image::GrayImage;
using hebs::image::UsidId;

const hebs::power::LcdSubsystemPower& model() {
  static const auto m = hebs::power::LcdSubsystemPower::lp064v1();
  return m;
}

std::vector<GrayImage> small_album(int count, int size) {
  const UsidId ids[] = {UsidId::kLena,    UsidId::kPeppers, UsidId::kBaboon,
                        UsidId::kGirl,    UsidId::kPout,    UsidId::kSail,
                        UsidId::kTrees,   UsidId::kSplash};
  std::vector<GrayImage> images;
  images.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    images.push_back(hebs::image::make_usid(ids[i % 8], size));
  }
  return images;
}

void expect_same_result(const core::HebsResult& a, const core::HebsResult& b) {
  EXPECT_EQ(a.point.beta, b.point.beta);
  EXPECT_EQ(a.lambda.points(), b.lambda.points());
  EXPECT_EQ(a.evaluation.distortion_percent, b.evaluation.distortion_percent);
  EXPECT_EQ(a.evaluation.saving_percent, b.evaluation.saving_percent);
  EXPECT_EQ(a.evaluation.transformed, b.evaluation.transformed);
}

TEST(Executor, RunsEveryIndexOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4);
  std::vector<int> hits(100, 0);
  pool.parallel_for(hits.size(), [&](std::size_t i, int worker) {
    ASSERT_GE(worker, 0);
    ASSERT_LT(worker, 4);
    ++hits[i];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Executor, SingleThreadRunsInline) {
  ThreadPool pool(1);
  std::vector<int> workers;
  pool.parallel_for(8, [&](std::size_t, int worker) {
    workers.push_back(worker);  // safe: inline execution, no concurrency
  });
  EXPECT_EQ(workers.size(), 8u);
  for (int w : workers) EXPECT_EQ(w, 0);
}

TEST(Executor, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(10,
                        [](std::size_t i, int) {
                          if (i == 7) {
                            throw hebs::util::InvalidArgument("boom");
                          }
                        }),
      hebs::util::InvalidArgument);
  // The pool survives a throwing task.
  int sum = 0;
  std::atomic<int> total{0};
  pool.parallel_for(10, [&total](std::size_t i, int) {
    total += static_cast<int>(i);
  });
  sum = total.load();
  EXPECT_EQ(sum, 45);
}

TEST(Engine, BatchIsBitIdenticalToSerial) {
  const auto images = small_album(6, 48);
  EngineOptions opts;
  opts.num_threads = 2;
  PipelineEngine engine(opts, model());
  const auto batch = engine.process_batch(images, 10.0);
  ASSERT_EQ(batch.size(), images.size());
  for (std::size_t i = 0; i < images.size(); ++i) {
    expect_same_result(batch[i],
                       core::hebs_exact(images[i], 10.0, {}, model()));
  }
}

TEST(Engine, BatchInvariantAcrossThreadCounts) {
  const auto images = small_album(5, 48);
  std::vector<std::vector<core::HebsResult>> runs;
  for (int threads : {1, 2, 8}) {
    EngineOptions opts;
    opts.num_threads = threads;
    PipelineEngine engine(opts, model());
    EXPECT_EQ(engine.thread_count(), threads);
    runs.push_back(engine.process_batch(images, 10.0));
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), runs[0].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      expect_same_result(runs[r][i], runs[0][i]);
    }
  }
}

TEST(Engine, BatchAtRangeMatchesSerial) {
  const auto images = small_album(4, 48);
  EngineOptions opts;
  opts.num_threads = 2;
  PipelineEngine engine(opts, model());
  const auto batch =
      engine.process_batch(images, hebs::pipeline::AtRangePolicy(150), 0.0);
  for (std::size_t i = 0; i < images.size(); ++i) {
    expect_same_result(batch[i],
                       core::hebs_at_range(images[i], 150, {}, model()));
  }
}

TEST(Engine, ConcurrentSingleFrameCallsShareTheSlotSafely) {
  // One-frame calls from several threads: one runs on the engine's
  // single-frame slot, the others on one-off contexts, and the slot
  // sees alternating sizes; every result matches the serial call.
  std::vector<GrayImage> images = small_album(2, 48);
  for (GrayImage& img : small_album(2, 40)) images.push_back(std::move(img));
  EngineOptions opts;
  opts.num_threads = 2;
  PipelineEngine engine(opts, model());
  std::vector<std::vector<core::HebsResult>> got(images.size());
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < images.size(); ++t) {
    callers.emplace_back([&, t] {
      for (int rep = 0; rep < 3; ++rep) {
        got[t] = engine.process_batch(
            std::span<const GrayImage>(&images[t], 1), 10.0);
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (std::size_t t = 0; t < images.size(); ++t) {
    ASSERT_EQ(got[t].size(), 1u);
    expect_same_result(got[t][0],
                       core::hebs_exact(images[t], 10.0, {}, model()));
  }
}

TEST(Engine, EmptyBatchReturnsEmpty) {
  PipelineEngine engine;
  EXPECT_TRUE(engine.process_batch({}, 10.0).empty());
}

TEST(Engine, BatchPropagatesInvalidInput) {
  std::vector<GrayImage> images = small_album(2, 48);
  images.emplace_back();  // empty frame
  EngineOptions opts;
  opts.num_threads = 2;
  PipelineEngine engine(opts, model());
  EXPECT_THROW((void)engine.process_batch(images, 10.0),
               hebs::util::InvalidArgument);
}

core::VideoOptions fast_video_options(int threads) {
  core::VideoOptions opts;
  opts.d_max_percent = 10.0;
  opts.max_beta_step = 0.04;
  opts.num_threads = threads;
  return opts;
}

TEST(EngineStream, MatchesSerialControllerBitForBit) {
  // A slow pan, a static run, then frames that cut between scenes: at
  // least three stream rounds (2 x threads frames each) at 8 threads.
  auto clip = hebs::image::make_video_clip(16, 48);
  const GrayImage still = clip.back();
  for (int i = 0; i < 8; ++i) clip.push_back(still);
  for (GrayImage& img : small_album(12, 48)) clip.push_back(std::move(img));

  // Serial reference: one controller fed frame by frame.
  core::VideoBacklightController serial(fast_video_options(1), model());
  std::vector<core::FrameDecision> expected;
  for (const auto& frame : clip) expected.push_back(serial.process(frame));
  ASSERT_TRUE(std::any_of(expected.begin(), expected.end(),
                          [](const auto& d) { return d.scene_cut; }));

  for (int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    EngineOptions eopts;
    eopts.num_threads = threads;
    eopts.temporal_reuse = false;
    PipelineEngine engine(eopts, model());
    core::VideoOptions vopts = fast_video_options(threads);
    vopts.temporal_reuse = false;
    const auto streamed = engine.process_stream(clip, vopts);

    ASSERT_EQ(streamed.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      SCOPED_TRACE("frame " + std::to_string(i));
      EXPECT_EQ(streamed[i].raw_beta, expected[i].raw_beta);
      EXPECT_EQ(streamed[i].beta, expected[i].beta);
      EXPECT_EQ(streamed[i].scene_cut, expected[i].scene_cut);
      EXPECT_EQ(streamed[i].point.beta, expected[i].point.beta);
      EXPECT_EQ(streamed[i].point.luminance_transform.points(),
                expected[i].point.luminance_transform.points());
      EXPECT_EQ(streamed[i].evaluation.distortion_percent,
                expected[i].evaluation.distortion_percent);
      EXPECT_EQ(streamed[i].evaluation.transformed,
                expected[i].evaluation.transformed);
    }
  }
}

TEST(EngineStream, ProcessClipInvariantAcrossThreadCounts) {
  const auto clip = hebs::image::make_video_clip(8, 48);
  std::vector<std::vector<core::FrameDecision>> runs;
  for (int threads : {1, 2, 8}) {
    core::VideoBacklightController ctl(fast_video_options(threads), model());
    runs.push_back(ctl.process_clip(clip));
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), runs[0].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_EQ(runs[r][i].beta, runs[0][i].beta);
      EXPECT_EQ(runs[r][i].scene_cut, runs[0][i].scene_cut);
      EXPECT_EQ(runs[r][i].evaluation.saving_percent,
                runs[0][i].evaluation.saving_percent);
    }
  }
}

TEST(EngineStream, FlickerStaysRateLimited) {
  const auto clip = hebs::image::make_video_clip(12, 48);
  const auto opts = fast_video_options(4);
  EngineOptions eopts;
  eopts.num_threads = 4;
  PipelineEngine engine(eopts, model());
  const auto decisions = engine.process_stream(clip, opts);
  EXPECT_EQ(decisions.size(), clip.size());
  EXPECT_LE(core::VideoBacklightController::max_flicker_step(decisions),
            opts.max_beta_step + 1e-9);
}

}  // namespace
}  // namespace hebs::pipeline
