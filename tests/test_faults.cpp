// Fault-matrix tests: deterministic fault injection across the
// pipeline (DESIGN.md §14).
//
// Every throwing fault point is driven through the engine's batch and
// stream paths (gray and color) at 1, 2 and 8 threads, asserting the
// containment contract: no call fails, exactly the budgeted frames
// degrade to the identity fallback, the injection counters match the
// firings, and — the hard invariant — every frame processed after a
// contained fault is bit-identical to a run without the fault (batch)
// or to a cold run started just after it (stream, whose controller
// treats the degraded frame as a clip boundary).  The deadline path is
// driven deterministically with the stage-latency stall point, and the
// facade's typed per-frame statuses are checked end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <new>
#include <numeric>
#include <span>
#include <string>
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
using hebs::image::RgbImage;
using hebs::image::UsidId;

const hebs::power::LcdSubsystemPower& model() {
  static const auto m = hebs::power::LcdSubsystemPower::lp064v1();
  return m;
}

std::vector<GrayImage> small_album(int count, int size) {
  const UsidId ids[] = {UsidId::kLena, UsidId::kPeppers, UsidId::kBaboon,
                        UsidId::kGirl, UsidId::kPout,    UsidId::kSail,
                        UsidId::kTrees, UsidId::kSplash};
  std::vector<GrayImage> images;
  images.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    images.push_back(hebs::image::make_usid(ids[i % 8], size));
  }
  return images;
}

std::vector<RgbImage> small_rgb_album(int count, int size) {
  std::vector<RgbImage> images;
  images.reserve(static_cast<std::size_t>(count));
  for (const auto& g : small_album(count, size)) {
    RgbImage rgb(g.width(), g.height());
    auto dst = rgb.data();
    const auto src = g.pixels();
    for (std::size_t i = 0; i < src.size(); ++i) {
      dst[3 * i + 0] = src[i];
      dst[3 * i + 1] = static_cast<std::uint8_t>(src[i] / 2);
      dst[3 * i + 2] = static_cast<std::uint8_t>(255 - src[i]);
    }
    images.push_back(std::move(rgb));
  }
  return images;
}

void expect_same_result(const core::HebsResult& a, const core::HebsResult& b) {
  EXPECT_EQ(a.point.beta, b.point.beta);
  EXPECT_EQ(a.lambda.points(), b.lambda.points());
  EXPECT_EQ(a.evaluation.distortion_percent, b.evaluation.distortion_percent);
  EXPECT_EQ(a.evaluation.transformed, b.evaluation.transformed);
}

void expect_same_decision(const core::FrameDecision& a,
                          const core::FrameDecision& b) {
  EXPECT_EQ(a.beta, b.beta);
  EXPECT_EQ(a.raw_beta, b.raw_beta);
  EXPECT_EQ(a.point.beta, b.point.beta);
  EXPECT_EQ(a.point.luminance_transform.points(),
            b.point.luminance_transform.points());
  EXPECT_EQ(a.evaluation.transformed, b.evaluation.transformed);
}

void expect_same_rgb(const RgbImage& a, const RgbImage& b) {
  ASSERT_EQ(a.width(), b.width());
  ASSERT_EQ(a.height(), b.height());
  const auto da = a.data();
  const auto db = b.data();
  EXPECT_TRUE(std::equal(da.begin(), da.end(), db.begin(), db.end()));
}

/// The identity fallback a degraded frame must carry: β = 1, zero
/// distortion/saving, and the unmodified input as the displayed raster.
void expect_identity(const core::HebsResult& r, const GrayImage& input) {
  EXPECT_EQ(r.point.beta, 1.0);
  EXPECT_EQ(r.evaluation.distortion_percent, 0.0);
  EXPECT_EQ(r.evaluation.saving_percent, 0.0);
  EXPECT_EQ(r.evaluation.transformed, input);
}

/// The pool draws of a clean `call`: the pool-alloc point is armed so
/// that it never fires, and its hit count is read afterwards.
template <typename Call>
std::uint64_t clean_draws(Call&& call) {
  fault::Spec never;
  never.point = fault::Point::kPoolAlloc;
  never.first = std::uint64_t{1} << 62;
  fault::install(never);
  call();
  const std::uint64_t draws = fault::hit_count(fault::Point::kPoolAlloc);
  fault::clear_all();
  return draws;
}

/// The hit indices 1..n, each once, in a golden-ratio order.  Above one
/// thread a stream's searches and re-derivations interleave, so which
/// frame and stage a hit index lands in depends on scheduling; a sweep
/// for a hit that lands in a given re-derivation stops at the first one
/// that does, and this order spreads its tries over the whole call
/// instead of walking the call's long search-only opening first.
std::vector<std::uint64_t> spread_hits(std::uint64_t n) {
  std::uint64_t step = static_cast<std::uint64_t>(0.6180339887 * n) | 1;
  while (std::gcd(step, n) != 1) ++step;
  std::vector<std::uint64_t> order;
  order.reserve(n);
  for (std::uint64_t k = 0; k < n; ++k) order.push_back(1 + k * step % n);
  return order;
}

class FaultMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::clear_all(); }
  void TearDown() override { fault::clear_all(); }
};

// ---------------------------------------------------------------------
// The injection machinery itself.

TEST_F(FaultMatrixTest, SpecParsing) {
  fault::Spec spec;
  std::string error;
  ASSERT_TRUE(fault::parse_spec("worker-task", &spec, &error));
  EXPECT_EQ(spec.point, fault::Point::kWorkerTask);
  EXPECT_EQ(spec.first, 1u);
  EXPECT_EQ(spec.every, 1u);
  EXPECT_EQ(spec.count, 1u);

  ASSERT_TRUE(fault::parse_spec("frame-corrupt:first=3,every=2,count=0",
                                &spec, &error));
  EXPECT_EQ(spec.point, fault::Point::kFrameCorrupt);
  EXPECT_EQ(spec.first, 3u);
  EXPECT_EQ(spec.every, 2u);
  EXPECT_EQ(spec.count, 0u);

  ASSERT_TRUE(fault::parse_spec("stage-latency:stall_us=250", &spec, &error));
  EXPECT_EQ(spec.stall_us, 250u);

  EXPECT_FALSE(fault::parse_spec("no-such-point", &spec, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(fault::parse_spec("pool-alloc:bogus=1", &spec, &error));
  EXPECT_FALSE(fault::parse_spec("pool-alloc:first=xyz", &spec, &error));

  std::vector<fault::Spec> specs;
  ASSERT_TRUE(
      fault::parse_spec_list("pool-alloc;curve-io:first=2", &specs, &error));
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].point, fault::Point::kPoolAlloc);
  EXPECT_EQ(specs[1].point, fault::Point::kCurveIo);
  EXPECT_EQ(specs[1].first, 2u);
}

TEST_F(FaultMatrixTest, FiringPatternHonorsFirstEveryCount) {
  std::string error;
  ASSERT_TRUE(fault::install_from_string("worker-task:first=2,every=3,count=2",
                                         &error))
      << error;
  std::vector<bool> fired;
  for (int i = 0; i < 10; ++i) {
    fired.push_back(fault::should_fire(fault::Point::kWorkerTask));
  }
  // 1-based hits 2 and 5 fire; the budget (count=2) then exhausts.
  const std::vector<bool> expected = {false, true,  false, false, true,
                                      false, false, false, false, false};
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(fault::fired_count(fault::Point::kWorkerTask), 2u);
  EXPECT_EQ(fault::hit_count(fault::Point::kWorkerTask), 10u);
}

TEST_F(FaultMatrixTest, UnlimitedBudgetKeepsFiring) {
  std::string error;
  ASSERT_TRUE(fault::install_from_string("worker-task:count=0", &error));
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(fault::should_fire(fault::Point::kWorkerTask));
  }
  EXPECT_EQ(fault::fired_count(fault::Point::kWorkerTask), 5u);
}

TEST_F(FaultMatrixTest, SuppressScopeBlocksFiring) {
  std::string error;
  ASSERT_TRUE(fault::install_from_string("worker-task:count=0", &error));
  {
    fault::SuppressScope scope;
    EXPECT_FALSE(fault::should_fire(fault::Point::kWorkerTask));
  }
  EXPECT_TRUE(fault::should_fire(fault::Point::kWorkerTask));
}

TEST_F(FaultMatrixTest, ThrowTypesMatchTheDocumentedContract) {
  std::string error;
  ASSERT_TRUE(fault::install_from_string(
      "pool-alloc:count=0;worker-task:count=0;curve-io:count=0;"
      "trace-io:count=0;frame-corrupt:count=0",
      &error))
      << error;
  EXPECT_THROW(fault::maybe_fail(fault::Point::kPoolAlloc), std::bad_alloc);
  EXPECT_THROW(fault::maybe_fail(fault::Point::kWorkerTask),
               hebs::util::Error);
  EXPECT_THROW(fault::maybe_fail(fault::Point::kCurveIo),
               hebs::util::IoError);
  EXPECT_THROW(fault::maybe_fail(fault::Point::kTraceIo),
               hebs::util::IoError);
  EXPECT_THROW(fault::maybe_fail(fault::Point::kFrameCorrupt),
               hebs::util::Error);
}

TEST_F(FaultMatrixTest, OffClearsEveryPoint) {
  std::string error;
  ASSERT_TRUE(fault::install_from_string("pool-alloc;worker-task", &error));
  EXPECT_TRUE(fault::armed(fault::Point::kPoolAlloc));
  ASSERT_TRUE(fault::install_from_string("off", &error));
  EXPECT_FALSE(fault::armed(fault::Point::kPoolAlloc));
  EXPECT_FALSE(fault::armed(fault::Point::kWorkerTask));
}

TEST_F(FaultMatrixTest, DisarmedHotPathCountsNothing) {
  EXPECT_FALSE(fault::armed(fault::Point::kWorkerTask));
  EXPECT_FALSE(fault::should_fire(fault::Point::kWorkerTask));
  EXPECT_EQ(fault::hit_count(fault::Point::kWorkerTask), 0u);
  EXPECT_EQ(fault::fired_count(fault::Point::kWorkerTask), 0u);
}

// Each point's firing moves its own injection counter and no other,
// and that counter's series is named after the point.
TEST_F(FaultMatrixTest, EveryPointFiresIntoItsOwnCounter) {
  for (std::size_t i = 0; i < fault::kPointCount; ++i) {
    const auto p = static_cast<fault::Point>(i);
    std::string point = fault::point_name(p);
    SCOPED_TRACE(point);
    fault::clear_all();
    std::string error;
    ASSERT_TRUE(
        fault::install_from_string(point + ":first=1,count=1", &error))
        << error;
    const auto before = obs::snapshot_counters();
    EXPECT_TRUE(fault::should_fire(p));
    EXPECT_FALSE(fault::should_fire(p));  // the budget is spent
    const auto after = obs::snapshot_counters();
    fault::clear_all();

    std::vector<std::string> moved;
    for (std::size_t c = 0; c < obs::kCounterCount; ++c) {
      if (after.values[c] == before.values[c]) continue;
      EXPECT_EQ(after.values[c] - before.values[c], 1u);
      moved.push_back(obs::counter_name(static_cast<obs::Counter>(c)));
    }
    std::replace(point.begin(), point.end(), '-', '_');
    EXPECT_EQ(moved, std::vector<std::string>{"hebs_fault_injected_" +
                                              point + "_total"});
  }
}

// ---------------------------------------------------------------------
// Batch containment: every throwing point × thread counts.

struct ThrowingPoint {
  fault::Point point;
  const char* spec;
  obs::Counter counter;
};

const ThrowingPoint kThrowingPoints[] = {
    {fault::Point::kWorkerTask, "worker-task", obs::Counter::kFaultWorkerTask},
    {fault::Point::kFrameCorrupt, "frame-corrupt",
     obs::Counter::kFaultFrameCorrupt},
    {fault::Point::kPoolAlloc, "pool-alloc", obs::Counter::kFaultPoolAlloc},
};

TEST_F(FaultMatrixTest, BatchContainsEveryPointAtEveryThreadCount) {
  const auto images = small_album(8, 48);
  EngineOptions clean_opts;
  clean_opts.num_threads = 1;
  const auto reference =
      PipelineEngine(clean_opts, model()).process_batch(images, 10.0);

  for (const ThrowingPoint& tp : kThrowingPoints) {
    for (int threads : {1, 2, 8}) {
      SCOPED_TRACE(std::string(tp.spec) + " @ " + std::to_string(threads) +
                   " threads");
      fault::clear_all();
      std::string error;
      ASSERT_TRUE(fault::install_from_string(tp.spec, &error)) << error;
      const auto before = obs::snapshot_counters();

      EngineOptions opts;
      opts.num_threads = threads;
      PipelineEngine engine(opts, model());
      std::vector<FrameFault> faults;
      std::vector<core::HebsResult> results;
      ASSERT_NO_THROW(results = engine.process_batch(images, 10.0, &faults));
      fault::clear_all();  // nothing re-fires during verification

      ASSERT_EQ(results.size(), images.size());
      ASSERT_EQ(faults.size(), images.size());
      // count=1: exactly one frame degraded (which one is a scheduling
      // artifact at >1 thread; the containment is per-frame either way).
      std::size_t degraded = 0;
      for (std::size_t i = 0; i < faults.size(); ++i) {
        if (!faults[i].degraded) {
          // Uncontaminated frames are bit-identical to the clean run.
          expect_same_result(results[i], reference[i]);
          continue;
        }
        ++degraded;
        expect_identity(results[i], images[i]);
        EXPECT_FALSE(faults[i].deadline);
        EXPECT_NE(faults[i].message.find("frame " + std::to_string(i)),
                  std::string::npos)
            << faults[i].message;
        EXPECT_NE(faults[i].message.find(fault::point_name(tp.point)),
                  std::string::npos)
            << faults[i].message;
      }
      EXPECT_EQ(degraded, 1u);
      EXPECT_EQ(fault::fired_count(tp.point), 0u);  // counts reset by clear
      const auto d = obs::snapshot_counters().delta_since(before);
      EXPECT_EQ(d[tp.counter], 1u);
      EXPECT_EQ(d[obs::Counter::kFramesDegraded], 1u);
    }
  }
}

TEST_F(FaultMatrixTest, SingleFrameInlinePathContains) {
  const auto images = small_album(1, 48);
  std::string error;
  ASSERT_TRUE(fault::install_from_string("worker-task", &error));
  EngineOptions opts;
  opts.num_threads = 4;  // exercises the intra-frame row-executor setup
  PipelineEngine engine(opts, model());
  std::vector<FrameFault> faults;
  std::vector<core::HebsResult> results;
  ASSERT_NO_THROW(results = engine.process_batch(images, 10.0, &faults));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(faults[0].degraded);
  expect_identity(results[0], images[0]);
}

TEST_F(FaultMatrixTest, PersistentFaultDegradesEveryFrameWithoutEscaping) {
  // count=0 would re-fire inside the containment handler without the
  // SuppressScope; the call must still finish with every frame degraded.
  const auto images = small_album(6, 48);
  std::string error;
  ASSERT_TRUE(fault::install_from_string("worker-task:count=0", &error));
  EngineOptions opts;
  opts.num_threads = 2;
  PipelineEngine engine(opts, model());
  std::vector<FrameFault> faults;
  std::vector<core::HebsResult> results;
  ASSERT_NO_THROW(results = engine.process_batch(images, 10.0, &faults));
  fault::clear_all();
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(faults[i].degraded);
    expect_identity(results[i], images[i]);
  }
}

TEST_F(FaultMatrixTest, BatchColorContains) {
  const auto images = small_rgb_album(6, 48);
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(threads);
    fault::clear_all();
    std::string error;
    ASSERT_TRUE(fault::install_from_string("worker-task", &error));
    EngineOptions opts;
    opts.num_threads = threads;
    PipelineEngine engine(opts, model());
    std::vector<FrameFault> faults;
    std::vector<ColorBatchResult> results;
    ASSERT_NO_THROW(results = engine.process_batch_color(
                        images, 10.0, core::ColorMode::kSharedCurve, &faults));
    fault::clear_all();
    ASSERT_EQ(results.size(), images.size());
    std::size_t degraded = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (!faults[i].degraded) continue;
      ++degraded;
      // Degraded color frame: identity decision and the unmodified
      // input as the displayed raster, zero chroma drift.
      EXPECT_EQ(results[i].luma.point.beta, 1.0);
      expect_same_rgb(results[i].color.displayed, images[i]);
      EXPECT_EQ(results[i].color.hue_error, 0.0);
    }
    EXPECT_EQ(degraded, 1u);
  }
}

TEST_F(FaultMatrixTest, BatchColorPoolAllocSweepMatchesCleanRun) {
  // A color batch frame renders right after its decision, on its slot
  // pool and inside its containment, so a pool-alloc fault can land in
  // the search or in the render.  Sweep a one-shot fault over the pool
  // draws of a 4-frame batch: wherever it lands, exactly one frame
  // degrades to the identity decision and its unmodified RGB, and every
  // other frame equals the clean run bit for bit.
  const auto images = small_rgb_album(4, 32);
  std::vector<GrayImage> lumas;
  for (const RgbImage& f : images) lumas.push_back(f.to_luma());
  const auto engine_for = [](int threads) {
    EngineOptions opts;
    opts.num_threads = threads;
    return PipelineEngine(opts, model());
  };
  const auto color_run = [&](int threads, std::span<const RgbImage> batch,
                             std::vector<FrameFault>* faults = nullptr) {
    return engine_for(threads).process_batch_color(
        batch, 10.0, core::ColorMode::kLumaRatio, faults);
  };
  const auto gray_run = [&](int threads, std::span<const GrayImage> batch) {
    return engine_for(threads).process_batch(batch, 10.0);
  };

  for (const int threads : {1, 2}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    std::vector<ColorBatchResult> clean;
    const std::uint64_t draws =
        clean_draws([&] { clean = color_run(threads, images); });
    // The renders draw from the slot pools: the color batch draws more
    // than the gray batch on its lumas.
    EXPECT_GT(draws, clean_draws([&] { (void)gray_run(threads, lumas); }));
    // Every 97th draw, and the last.
    std::vector<std::uint64_t> points;
    for (std::uint64_t n = 1; n < draws; n += 97) points.push_back(n);
    points.push_back(draws);
    if (threads == 1) {
      // One slot decides the frames in order, each frame's work ending
      // in its render: the last draw of the first k frames is frame
      // k - 1's render draw — shown to be one by the gray batch on the
      // same frames drawing fewer.
      std::uint64_t color_before = 0;
      std::uint64_t gray_before = 0;
      for (std::size_t k = 1; k <= images.size(); ++k) {
        const std::uint64_t color_k = clean_draws([&] {
          (void)color_run(threads,
                          std::span<const RgbImage>(images.data(), k));
        });
        const std::uint64_t gray_k = clean_draws([&] {
          (void)gray_run(threads,
                         std::span<const GrayImage>(lumas.data(), k));
        });
        EXPECT_GT(color_k - color_before, gray_k - gray_before);
        points.push_back(color_k);
        color_before = color_k;
        gray_before = gray_k;
      }
    }

    for (const std::uint64_t first : points) {
      SCOPED_TRACE("pool-alloc:first=" + std::to_string(first));
      fault::Spec spec;
      spec.point = fault::Point::kPoolAlloc;
      spec.first = first;
      fault::install(spec);
      std::vector<FrameFault> faults;
      std::vector<ColorBatchResult> got;
      ASSERT_NO_THROW(got = color_run(threads, images, &faults));
      fault::clear_all();
      ASSERT_EQ(got.size(), images.size());
      std::size_t degraded = 0;
      for (std::size_t i = 0; i < images.size(); ++i) {
        SCOPED_TRACE("frame " + std::to_string(i));
        if (faults[i].degraded) {
          ++degraded;
          expect_identity(got[i].luma, lumas[i]);
          expect_same_rgb(got[i].color.displayed, images[i]);
          EXPECT_EQ(got[i].color.hue_error, 0.0);
          continue;
        }
        expect_same_result(got[i].luma, clean[i].luma);
        expect_same_rgb(got[i].color.displayed, clean[i].color.displayed);
        EXPECT_EQ(got[i].color.hue_error, clean[i].color.hue_error);
      }
      EXPECT_EQ(degraded, 1u);
    }
  }
}

// ---------------------------------------------------------------------
// Stream containment: quarantine + the recovery bit-identity invariant.

TEST_F(FaultMatrixTest, StreamRecoveryBitIdenticalToColdRun) {
  const auto frames = small_album(8, 48);
  core::VideoOptions vopts;
  vopts.temporal_reuse = false;  // unconditional cold-path equality
  for (const ThrowingPoint& tp : kThrowingPoints) {
    for (int threads : {1, 2, 8}) {
      SCOPED_TRACE(std::string(tp.spec) + " @ " + std::to_string(threads) +
                   " threads");
      fault::clear_all();
      std::string error;
      ASSERT_TRUE(fault::install_from_string(tp.spec, &error)) << error;

      EngineOptions opts;
      opts.num_threads = threads;
      opts.temporal_reuse = false;
      PipelineEngine engine(opts, model());
      core::VideoOptions stream_opts = vopts;
      stream_opts.num_threads = threads;
      std::vector<FrameFault> faults;
      std::vector<core::FrameDecision> decisions;
      ASSERT_NO_THROW(
          decisions = engine.process_stream(frames, stream_opts, &faults));
      fault::clear_all();

      ASSERT_EQ(decisions.size(), frames.size());
      std::size_t fault_at = frames.size();
      for (std::size_t i = 0; i < faults.size(); ++i) {
        if (faults[i].degraded) {
          ASSERT_EQ(fault_at, frames.size()) << "more than one degraded frame";
          fault_at = i;
        }
      }
      ASSERT_LT(fault_at, frames.size());
      // The degraded frame is the identity decision.
      EXPECT_EQ(decisions[fault_at].beta, 1.0);
      EXPECT_EQ(decisions[fault_at].raw_beta, 1.0);
      EXPECT_EQ(decisions[fault_at].evaluation.transformed, frames[fault_at]);

      // The hard invariant: frames after the fault are bit-identical to
      // a cold run started just after it (the controller treats the
      // degraded frame as a clip boundary).
      const std::span<const GrayImage> suffix(frames.data() + fault_at + 1,
                                              frames.size() - fault_at - 1);
      EngineOptions ref_opts;
      ref_opts.num_threads = 1;
      ref_opts.temporal_reuse = false;
      core::VideoOptions ref_vopts = vopts;
      ref_vopts.num_threads = 1;
      const auto ref = PipelineEngine(ref_opts, model())
                           .process_stream(suffix, ref_vopts);
      ASSERT_EQ(ref.size(), suffix.size());
      for (std::size_t j = 0; j < ref.size(); ++j) {
        SCOPED_TRACE("suffix frame " + std::to_string(j));
        expect_same_decision(decisions[fault_at + 1 + j], ref[j]);
      }
      // Frames before the fault are untouched by it (they may share a
      // round with it, never state): equal to a clean clip prefix.
      if (fault_at > 0) {
        const std::span<const GrayImage> prefix(frames.data(), fault_at);
        const auto pre = PipelineEngine(ref_opts, model())
                             .process_stream(prefix, ref_vopts);
        for (std::size_t j = 0; j < pre.size(); ++j) {
          SCOPED_TRACE("prefix frame " + std::to_string(j));
          expect_same_decision(decisions[j], pre[j]);
        }
      }
    }
  }
}

TEST_F(FaultMatrixTest, StreamRederiveFaultReplaysTheRestOfItsRound) {
  // A pool-alloc fault inside the parallel applied-β re-derivation.  The
  // faulted frame degrades and resets the controller; the frames after
  // it that were already planned were planned on history that reset
  // discards, so they must be re-planned to equal a cold run started
  // after it.
  const auto clip = hebs::image::make_video_clip(48, 48);
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    // A stream holds at most 2 x threads runs in flight (one at one
    // thread); the clip spans three such windows, and the fault lands in
    // the second.
    const std::size_t round = threads == 1 ? 1 : 2 * threads;
    const std::vector<GrayImage> frames(
        clip.begin(), clip.begin() + static_cast<std::ptrdiff_t>(3 * round));
    EngineOptions opts;
    opts.num_threads = threads;
    opts.temporal_reuse = false;  // unconditional cold-path equality
    core::VideoOptions vopts;
    vopts.temporal_reuse = false;
    vopts.num_threads = threads;

    struct Run {
      std::vector<core::FrameDecision> decisions;
      std::vector<FrameFault> faults;
      std::size_t fault_at = 0;
      bool rederive = false;  // the fault hit the re-derivation stage
    };
    const auto run_with_fault_at_hit = [&](std::uint64_t hit) {
      fault::clear_all();
      fault::Spec spec;
      spec.point = fault::Point::kPoolAlloc;
      spec.first = hit;
      fault::install(spec);
      Run r;
      r.decisions =
          PipelineEngine(opts, model()).process_stream(frames, vopts, &r.faults);
      fault::clear_all();
      r.fault_at = frames.size();
      for (std::size_t i = 0; i < r.faults.size(); ++i) {
        if (!r.faults[i].degraded) continue;
        EXPECT_EQ(r.fault_at, frames.size()) << "more than one degraded frame";
        r.fault_at = i;
        r.rederive =
            r.faults[i].message.find("re-derivation") != std::string::npos;
      }
      return r;
    };

    // A clean run counts the pool allocations; sweep them for a fault
    // in the re-derivation of a frame in the second window, with a
    // frame of that window after it.
    fault::Spec never;
    never.point = fault::Point::kPoolAlloc;
    never.first = std::uint64_t{1} << 62;
    fault::install(never);
    const auto clean =
        PipelineEngine(opts, model()).process_stream(frames, vopts);
    const std::uint64_t total_hits = fault::hit_count(fault::Point::kPoolAlloc);
    fault::clear_all();
    // The frames after a fault run cold (one thread, no reuse).
    EngineOptions ref_opts;
    ref_opts.num_threads = 1;
    ref_opts.temporal_reuse = false;
    core::VideoOptions ref_vopts = vopts;
    ref_vopts.num_threads = 1;
    const auto cold_after = [&](std::size_t fault_at) {
      const std::span<const GrayImage> suffix(frames.data() + fault_at + 1,
                                              frames.size() - fault_at - 1);
      return PipelineEngine(ref_opts, model()).process_stream(suffix,
                                                              ref_vopts);
    };
    // Without the fault, a frame after it in its window decides
    // differently from that cold run: the replay is what makes them
    // equal.  Where the fault lands decides whether such a frame exists.
    const auto history_matters =
        [&](std::size_t fault_at, const std::vector<core::FrameDecision>& ref) {
          bool matters = false;
          for (std::size_t i = fault_at + 1; i < 2 * round; ++i) {
            matters |= clean[i].beta != ref[i - fault_at - 1].beta;
          }
          return matters;
        };
    // The second window's re-derivations run mid-call, so the sweep
    // tries the middle hits first, and it goes on until a landing
    // leaves a later frame of the window whose history matters.
    std::vector<std::uint64_t> hits = spread_hits(total_hits);
    std::stable_partition(hits.begin(), hits.end(), [&](std::uint64_t h) {
      return 5 * h >= 2 * total_hits && 5 * h <= 4 * total_hits;
    });
    Run run;
    std::vector<core::FrameDecision> ref;
    bool found = false;
    for (const std::uint64_t hit : hits) {
      run = run_with_fault_at_hit(hit);
      if (!run.rederive || run.fault_at / round != 1 ||
          (threads > 1 && run.fault_at + 1 >= 2 * round)) {
        continue;
      }
      ref = cold_after(run.fault_at);
      found = threads == 1 || history_matters(run.fault_at, ref);
      if (found) break;
    }
    ASSERT_TRUE(found) << "no re-derivation fault in the second window "
                          "before a frame whose history matters";
    ASSERT_LT(run.fault_at, frames.size());
    ASSERT_TRUE(run.rederive) << run.faults[run.fault_at].message;
    ASSERT_EQ(run.fault_at / round, 1u);
    const std::size_t fault_at = run.fault_at;

    // Exactly that frame degrades to the identity decision.
    EXPECT_EQ(run.decisions[fault_at].beta, 1.0);
    EXPECT_EQ(run.decisions[fault_at].raw_beta, 1.0);
    EXPECT_EQ(run.decisions[fault_at].evaluation.transformed,
              frames[fault_at]);

    // The frames after it, the rest of its window included, equal a
    // cold run started just after it.
    ASSERT_EQ(ref.size(), frames.size() - fault_at - 1);
    for (std::size_t j = 0; j < ref.size(); ++j) {
      SCOPED_TRACE("suffix frame " + std::to_string(j));
      expect_same_decision(run.decisions[fault_at + 1 + j], ref[j]);
    }
    // The replay is what makes them equal.
    if (threads > 1) {
      EXPECT_TRUE(history_matters(fault_at, ref));
    }
    // The prefix is unchanged.
    const std::span<const GrayImage> prefix(frames.data(), fault_at);
    const auto pre =
        PipelineEngine(ref_opts, model()).process_stream(prefix, ref_vopts);
    for (std::size_t j = 0; j < pre.size(); ++j) {
      SCOPED_TRACE("prefix frame " + std::to_string(j));
      expect_same_decision(run.decisions[j], pre[j]);
    }
  }
}

// ---------------------------------------------------------------------
// Stream dedupe (DESIGN.md §9, "Stream rounds"): a frame equal to its
// predecessor inherits its run's source result and re-derives on the
// source's context.  Containment stays what serial processing defines.

/// Clip of `lengths[r]` copies of frame r of `scenes`, run after run.
std::vector<GrayImage> runs_of(const std::vector<GrayImage>& scenes,
                               const std::vector<int>& lengths) {
  std::vector<GrayImage> clip;
  for (std::size_t r = 0; r < lengths.size(); ++r) {
    for (int k = 0; k < lengths[r]; ++k) clip.push_back(scenes[r]);
  }
  return clip;
}

std::size_t repeat_count(const std::vector<GrayImage>& frames) {
  std::size_t n = 0;
  for (std::size_t i = 1; i < frames.size(); ++i) {
    if (frames[i] == frames[i - 1]) ++n;
  }
  return n;
}

/// The suffix after `fault_at` through a one-thread cold run.
std::vector<core::FrameDecision> cold_suffix(
    const std::vector<GrayImage>& frames, std::size_t fault_at) {
  EngineOptions ref_opts;
  ref_opts.num_threads = 1;
  ref_opts.temporal_reuse = false;
  core::VideoOptions ref_vopts;
  ref_vopts.num_threads = 1;
  ref_vopts.temporal_reuse = false;
  const std::span<const GrayImage> suffix(frames.data() + fault_at + 1,
                                          frames.size() - fault_at - 1);
  return PipelineEngine(ref_opts, model()).process_stream(suffix, ref_vopts);
}

TEST_F(FaultMatrixTest, StreamDedupeDegradedSourceSearchesItsDuplicates) {
  // Every run has duplicates, so whichever source the frame-corrupt
  // fault hits (the order is the scheduler's at > 1 thread), the frames
  // after it repeat it: the first is searched as an ordinary frame — a
  // degraded frame is no reuse source — and the rest reuse that.
  const auto frames = runs_of(small_album(4, 48), {3, 2, 4, 2});
  const std::size_t repeats = repeat_count(frames);
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    fault::clear_all();
    std::string error;
    ASSERT_TRUE(fault::install_from_string("frame-corrupt:first=2", &error));
    EngineOptions opts;
    opts.num_threads = threads;
    core::VideoOptions vopts;
    vopts.num_threads = threads;
    std::vector<FrameFault> faults;
    std::vector<core::FrameDecision> decisions;
    const auto before = obs::snapshot_counters();
    ASSERT_NO_THROW(decisions = PipelineEngine(opts, model())
                                    .process_stream(frames, vopts, &faults));
    const auto d = obs::snapshot_counters().delta_since(before);
    fault::clear_all();

    std::size_t fault_at = frames.size();
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (!faults[i].degraded) continue;
      ASSERT_EQ(fault_at, frames.size()) << "more than one degraded frame";
      fault_at = i;
    }
    ASSERT_LT(fault_at + 1, frames.size());
    ASSERT_EQ(frames[fault_at + 1], frames[fault_at]) << "not a run source";
    ASSERT_TRUE(fault_at == 0 || !(frames[fault_at] == frames[fault_at - 1]));
    EXPECT_EQ(decisions[fault_at].beta, 1.0);
    EXPECT_EQ(decisions[fault_at].evaluation.transformed, frames[fault_at]);

    // The duplicates after it — and every later frame — equal a cold
    // run started just after the fault.
    const auto ref = cold_suffix(frames, fault_at);
    ASSERT_EQ(ref.size(), frames.size() - fault_at - 1);
    for (std::size_t j = 0; j < ref.size(); ++j) {
      SCOPED_TRACE("suffix frame " + std::to_string(j));
      expect_same_decision(decisions[fault_at + 1 + j], ref[j]);
    }
    // One duplicate was searched in its degraded source's place.
    EXPECT_EQ(d[obs::Counter::kTemporalByteIdentical], repeats - 1);
    EXPECT_EQ(d[obs::Counter::kFramesDecided], frames.size() - repeats);
  }
}

TEST_F(FaultMatrixTest, StreamDedupeRederiveFaultReplaysTheRestOfItsRound) {
  // A pool-alloc fault inside a duplicate's re-derivation.  The scenes
  // differ only in a small patch that sets their brightest level, so no
  // frame is a scene cut while the raw β moves: the rate-limited applied
  // β keeps moving through the runs, each duplicate re-derives at its
  // own β, and the frames after the fault depend on the history the
  // degraded frame resets — they must be re-planned to equal a cold run
  // started after it.
  GrayImage base = hebs::image::make_usid(UsidId::kSail, 48);
  for (auto& px : base.pixels()) px = static_cast<std::uint8_t>(px / 2);
  std::vector<GrayImage> scenes;
  for (const double patch : {0.98, 0.6, 0.85, 0.55}) {
    GrayImage img = base;
    hebs::image::fill_rect(img, 0, 0, 10, 10, patch);
    scenes.push_back(std::move(img));
  }
  const std::vector<int> lengths = {1, 4, 3, 1};
  const auto frames = runs_of(scenes, lengths);
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    EngineOptions opts;
    opts.num_threads = threads;
    core::VideoOptions vopts;
    vopts.num_threads = threads;

    struct Run {
      std::vector<core::FrameDecision> decisions;
      std::vector<FrameFault> faults;
      std::size_t fault_at = 0;
      bool rederive = false;
    };
    const auto run_with_fault_at_hit = [&](std::uint64_t hit) {
      fault::clear_all();
      fault::Spec spec;
      spec.point = fault::Point::kPoolAlloc;
      spec.first = hit;
      fault::install(spec);
      Run r;
      r.decisions =
          PipelineEngine(opts, model()).process_stream(frames, vopts, &r.faults);
      fault::clear_all();
      r.fault_at = frames.size();
      for (std::size_t i = 0; i < r.faults.size(); ++i) {
        if (!r.faults[i].degraded) continue;
        EXPECT_EQ(r.fault_at, frames.size()) << "more than one degraded frame";
        r.fault_at = i;
        r.rederive =
            r.faults[i].message.find("re-derivation") != std::string::npos;
      }
      return r;
    };
    // A clean run counts the pool allocations; sweep them for a fault
    // in a duplicate's re-derivation.
    fault::Spec never;
    never.point = fault::Point::kPoolAlloc;
    never.first = std::uint64_t{1} << 62;
    fault::install(never);
    const auto clean =
        PipelineEngine(opts, model()).process_stream(frames, vopts);
    const std::uint64_t total_hits = fault::hit_count(fault::Point::kPoolAlloc);
    fault::clear_all();
    // The sweep goes on until the frame after the fault decides, without
    // the fault, differently from the cold run started after it: where
    // the fault lands decides whether the replay is what makes them
    // equal.
    Run run;
    std::vector<core::FrameDecision> ref;
    bool found = false;
    for (const std::uint64_t hit : spread_hits(total_hits)) {
      run = run_with_fault_at_hit(hit);
      if (!run.rederive || run.fault_at == 0 ||
          run.fault_at + 1 >= frames.size() ||
          frames[run.fault_at] != frames[run.fault_at - 1]) {
        continue;
      }
      ref = cold_suffix(frames, run.fault_at);
      found = clean[run.fault_at + 1].beta != ref[0].beta;
      if (found) break;
    }
    ASSERT_TRUE(found) << "no pool allocation of a duplicate's re-derivation "
                          "before a frame whose history matters";
    const std::size_t fault_at = run.fault_at;
    // Its own applied β: a real re-derivation, not a copy.
    EXPECT_NE(clean[fault_at].beta, clean[fault_at - 1].beta);
    EXPECT_EQ(run.decisions[fault_at].beta, 1.0);
    EXPECT_EQ(run.decisions[fault_at].raw_beta, 1.0);
    EXPECT_EQ(run.decisions[fault_at].evaluation.transformed,
              frames[fault_at]);

    // The frames after it, the rest of its run included, equal a cold
    // run started just after it.
    ASSERT_EQ(ref.size(), frames.size() - fault_at - 1);
    for (std::size_t j = 0; j < ref.size(); ++j) {
      SCOPED_TRACE("suffix frame " + std::to_string(j));
      expect_same_decision(run.decisions[fault_at + 1 + j], ref[j]);
    }
    // The replay is what makes them equal: without the fault, the frame
    // after it decides differently from that cold run.
    EXPECT_NE(clean[fault_at + 1].beta, ref[0].beta);
    // The prefix is unchanged: equal to a cold run of it.
    EngineOptions ref_opts;
    ref_opts.num_threads = 1;
    ref_opts.temporal_reuse = false;
    core::VideoOptions ref_vopts;
    ref_vopts.num_threads = 1;
    ref_vopts.temporal_reuse = false;
    const std::span<const GrayImage> prefix(frames.data(), fault_at);
    const auto pre =
        PipelineEngine(ref_opts, model()).process_stream(prefix, ref_vopts);
    for (std::size_t j = 0; j < pre.size(); ++j) {
      SCOPED_TRACE("prefix frame " + std::to_string(j));
      expect_same_decision(run.decisions[j], pre[j]);
    }
  }
}

TEST_F(FaultMatrixTest, StreamTemporalQuarantineRebuildsCleanly) {
  // Temporal mode: the faulted slot's TemporalReuse chain is discarded;
  // under the §9 monotone-distortion contract the recovered frames are
  // bit-identical to the cold path, so the same suffix check applies.
  const auto frames = small_album(8, 48);
  std::string error;
  ASSERT_TRUE(fault::install_from_string("frame-corrupt:first=3", &error));

  EngineOptions opts;
  opts.num_threads = 1;
  opts.temporal_reuse = true;
  PipelineEngine engine(opts, model());
  core::VideoOptions vopts;
  vopts.temporal_reuse = true;
  vopts.num_threads = 1;
  std::vector<FrameFault> faults;
  std::vector<core::FrameDecision> decisions;
  ASSERT_NO_THROW(decisions = engine.process_stream(frames, vopts, &faults));
  fault::clear_all();

  std::size_t fault_at = frames.size();
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (faults[i].degraded) fault_at = i;
  }
  ASSERT_LT(fault_at, frames.size());

  const std::span<const GrayImage> suffix(frames.data() + fault_at + 1,
                                          frames.size() - fault_at - 1);
  core::VideoOptions ref_vopts = vopts;
  ref_vopts.temporal_reuse = false;  // the cold baseline
  EngineOptions ref_opts;
  ref_opts.num_threads = 1;
  ref_opts.temporal_reuse = false;
  const auto ref =
      PipelineEngine(ref_opts, model()).process_stream(suffix, ref_vopts);
  for (std::size_t j = 0; j < ref.size(); ++j) {
    SCOPED_TRACE("suffix frame " + std::to_string(j));
    expect_same_decision(decisions[fault_at + 1 + j], ref[j]);
  }
}

TEST_F(FaultMatrixTest, StreamColorContains) {
  const auto frames = small_rgb_album(6, 48);
  core::VideoOptions vopts;
  vopts.temporal_reuse = false;
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(threads);
    fault::clear_all();
    std::string error;
    ASSERT_TRUE(fault::install_from_string("worker-task", &error));
    EngineOptions opts;
    opts.num_threads = threads;
    opts.temporal_reuse = false;
    PipelineEngine engine(opts, model());
    core::VideoOptions stream_opts = vopts;
    stream_opts.num_threads = threads;
    std::vector<FrameFault> faults;
    std::vector<ColorStreamResult> results;
    ASSERT_NO_THROW(results = engine.process_stream_color(
                        frames, stream_opts, core::ColorMode::kSharedCurve,
                        &faults));
    fault::clear_all();
    ASSERT_EQ(results.size(), frames.size());
    std::size_t degraded = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (!faults[i].degraded) continue;
      ++degraded;
      EXPECT_EQ(results[i].decision.beta, 1.0);
      expect_same_rgb(results[i].color.displayed, frames[i]);
      EXPECT_EQ(results[i].color.hue_error, 0.0);
    }
    EXPECT_EQ(degraded, 1u);
  }
}

TEST_F(FaultMatrixTest, StreamColorPoolAllocSweepMatchesColdSuffix) {
  // The color render runs in the stream's re-derivation step, on the
  // frame's slot pool, so a pool-alloc fault can land in it.  Sweep the
  // fault over the pool draws of a clip with a static run, a
  // chroma-only change (luma equal to its predecessor's, RGB not) and a
  // scene cut: wherever it lands — search, re-derivation, render or a
  // repeat's copy — one frame degrades to the identity decision and its
  // unmodified RGB, the frames before it are the clean run's, and every
  // frame after it equals a cold color run started just after it.
  const auto album = small_rgb_album(2, 32);
  RgbImage chroma_only = album[0];
  const GrayImage luma0 = album[0].to_luma();
  for (int y = 0; y < 12; ++y) {
    for (int x = 0; x < 12; ++x) {
      const std::uint8_t v = luma0(x, y);
      chroma_only.set(x, y, {v, v, v});
    }
  }
  ASSERT_EQ(chroma_only.to_luma(), luma0);
  ASSERT_FALSE(chroma_only == album[0]);
  const std::vector<RgbImage> frames = {album[0], album[0], chroma_only,
                                        album[1]};
  std::vector<GrayImage> lumas;
  for (const RgbImage& f : frames) lumas.push_back(f.to_luma());

  struct Config {
    int threads;
    bool temporal;
  };
  const auto engine_for = [](Config c) {
    EngineOptions opts;
    opts.num_threads = c.threads;
    opts.temporal_reuse = c.temporal;
    return PipelineEngine(opts, model());
  };
  const auto video_for = [](Config c) {
    core::VideoOptions vopts;
    vopts.num_threads = c.threads;
    vopts.temporal_reuse = c.temporal;
    return vopts;
  };
  const auto color_run = [&](Config c, std::span<const RgbImage> clip,
                             std::vector<FrameFault>* faults = nullptr) {
    return engine_for(c).process_stream_color(
        clip, video_for(c), core::ColorMode::kSharedCurve, faults);
  };
  const auto expect_same_frame = [](const ColorStreamResult& a,
                                    const ColorStreamResult& b) {
    expect_same_decision(a.decision, b.decision);
    expect_same_rgb(a.color.displayed, b.color.displayed);
    EXPECT_EQ(a.color.hue_error, b.color.hue_error);
  };

  for (const Config c : {Config{1, false}, Config{2, false}, Config{1, true},
                         Config{2, true}}) {
    SCOPED_TRACE(std::string(c.temporal ? "temporal, " : "cold, ") +
                 std::to_string(c.threads) + " threads");
    std::vector<ColorStreamResult> clean;
    const std::uint64_t draws =
        clean_draws([&] { clean = color_run(c, frames); });
    // The renders draw from the slot pools: the color stream draws more
    // than the luma stream it decides on.
    EXPECT_GT(draws, clean_draws([&] {
                (void)engine_for(c).process_stream(lumas, video_for(c));
              }));
    // Every 97th draw, and the last.
    std::vector<std::uint64_t> points;
    for (std::uint64_t n = 1; n < draws; n += 97) points.push_back(n);
    points.push_back(draws);
    if (c.threads == 1 && !c.temporal) {
      // One frame per round, each round's pool work ending in its
      // render: the last draw of the clip's first k frames is frame
      // k - 1's render draw — shown to be one by the luma stream on the
      // same frames drawing fewer.
      for (std::size_t k = 1; k <= frames.size(); ++k) {
        const std::span<const RgbImage> rgb(frames.data(), k);
        const std::span<const GrayImage> gray(lumas.data(), k);
        const std::uint64_t color_k =
            clean_draws([&] { (void)color_run(c, rgb); });
        const std::uint64_t gray_k = clean_draws([&] {
          (void)engine_for(c).process_stream(gray, video_for(c));
        });
        const std::uint64_t color_before =
            k == 1 ? 0 : clean_draws([&] {
              (void)color_run(c, rgb.first(k - 1));
            });
        const std::uint64_t gray_before =
            k == 1 ? 0 : clean_draws([&] {
              (void)engine_for(c).process_stream(gray.first(k - 1),
                                                 video_for(c));
            });
        EXPECT_GT(color_k - color_before, gray_k - gray_before);
        points.push_back(color_k);
      }
    }

    for (const std::uint64_t first : points) {
      SCOPED_TRACE("pool-alloc:first=" + std::to_string(first));
      fault::Spec spec;
      spec.point = fault::Point::kPoolAlloc;
      spec.first = first;
      fault::install(spec);
      std::vector<FrameFault> faults;
      std::vector<ColorStreamResult> got;
      ASSERT_NO_THROW(got = color_run(c, frames, &faults));
      fault::clear_all();
      ASSERT_EQ(got.size(), frames.size());
      std::size_t fault_at = frames.size();
      for (std::size_t i = 0; i < frames.size(); ++i) {
        if (!faults[i].degraded) continue;
        ASSERT_EQ(fault_at, frames.size()) << "more than one degraded frame";
        fault_at = i;
        EXPECT_EQ(got[i].decision.beta, 1.0);
        EXPECT_EQ(got[i].decision.raw_beta, 1.0);
        EXPECT_EQ(got[i].decision.evaluation.transformed, lumas[i]);
        expect_same_rgb(got[i].color.displayed, frames[i]);
        EXPECT_EQ(got[i].color.hue_error, 0.0);
      }
      ASSERT_LT(fault_at, frames.size());
      for (std::size_t j = 0; j < fault_at; ++j) {
        SCOPED_TRACE("prefix frame " + std::to_string(j));
        expect_same_frame(got[j], clean[j]);
      }
      const std::span<const RgbImage> suffix(frames.data() + fault_at + 1,
                                             frames.size() - fault_at - 1);
      const auto cold = color_run(Config{1, false}, suffix);
      for (std::size_t j = 0; j < cold.size(); ++j) {
        SCOPED_TRACE("suffix frame " + std::to_string(j));
        expect_same_frame(got[fault_at + 1 + j], cold[j]);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Deadline degradation, driven deterministically by the stall point.

TEST_F(FaultMatrixTest, DeadlineMissDegradesBatchFrames) {
  const auto images = small_album(2, 32);
  std::string error;
  ASSERT_TRUE(fault::install_from_string("stage-latency:stall_us=2000,count=0",
                                         &error));
  EngineOptions opts;
  opts.num_threads = 2;
  opts.frame_deadline_us = 500;  // every stalled frame blows it
  PipelineEngine engine(opts, model());
  const auto before = obs::snapshot_counters();
  std::vector<FrameFault> faults;
  std::vector<core::HebsResult> results;
  ASSERT_NO_THROW(results = engine.process_batch(images, 10.0, &faults));
  fault::clear_all();
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(faults[i].degraded);
    EXPECT_TRUE(faults[i].deadline);
    EXPECT_NE(faults[i].message.find("deadline"), std::string::npos);
    expect_identity(results[i], images[i]);
  }
  const auto d = obs::snapshot_counters().delta_since(before);
  EXPECT_EQ(d[obs::Counter::kDeadlineMiss], images.size());
  EXPECT_EQ(d[obs::Counter::kFramesDegraded], images.size());
}

TEST_F(FaultMatrixTest, DeadlineMissDegradesStreamFrames) {
  const auto frames = small_album(2, 32);
  std::string error;
  ASSERT_TRUE(fault::install_from_string("stage-latency:stall_us=2000,count=0",
                                         &error));
  EngineOptions opts;
  opts.num_threads = 1;
  opts.temporal_reuse = false;
  opts.frame_deadline_us = 500;
  PipelineEngine engine(opts, model());
  core::VideoOptions vopts;
  vopts.temporal_reuse = false;
  vopts.num_threads = 1;
  vopts.frame_deadline_us = 500;
  std::vector<FrameFault> faults;
  std::vector<core::FrameDecision> decisions;
  ASSERT_NO_THROW(decisions = engine.process_stream(frames, vopts, &faults));
  fault::clear_all();
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    EXPECT_TRUE(faults[i].degraded);
    EXPECT_TRUE(faults[i].deadline);
    EXPECT_EQ(decisions[i].beta, 1.0);
    EXPECT_EQ(decisions[i].evaluation.transformed, frames[i]);
  }
}

TEST_F(FaultMatrixTest, NoDeadlineNoDegradation) {
  // Sanity for the soft-deadline plumbing: a generous deadline with no
  // stall degrades nothing and the results match the cold run exactly.
  const auto images = small_album(4, 48);
  EngineOptions base;
  base.num_threads = 2;
  const auto reference = PipelineEngine(base, model()).process_batch(
      images, 10.0);
  EngineOptions opts = base;
  opts.frame_deadline_us = 60'000'000;  // one minute
  std::vector<FrameFault> faults;
  const auto results =
      PipelineEngine(opts, model()).process_batch(images, 10.0, &faults);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_FALSE(faults[i].degraded);
    expect_same_result(results[i], reference[i]);
  }
}

// ---------------------------------------------------------------------
// I/O fault points.

TEST_F(FaultMatrixTest, CurveIoFaultFiresInLoadAndSave) {
  std::string error;
  ASSERT_TRUE(fault::install_from_string("curve-io:count=0", &error));
  EXPECT_THROW(core::DistortionCurve::load("/nonexistent/curve.csv"),
               hebs::util::IoError);
  EXPECT_EQ(fault::fired_count(fault::Point::kCurveIo), 1u);
}

TEST_F(FaultMatrixTest, TraceIoFaultFiresInWriter) {
  std::string error;
  ASSERT_TRUE(fault::install_from_string("trace-io", &error));
  EXPECT_THROW(obs::write_chrome_trace("/tmp/hebs_fault_trace.json"),
               hebs::util::IoError);
  EXPECT_EQ(fault::fired_count(fault::Point::kTraceIo), 1u);
}

// ---------------------------------------------------------------------
// Facade: typed per-frame statuses, spec validation, stats plumbing.

class FaultFacadeTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::clear_all(); }
  void TearDown() override { fault::clear_all(); }

  static std::vector<hebs::ImageView> views_of(
      const std::vector<GrayImage>& images) {
    std::vector<hebs::ImageView> views;
    views.reserve(images.size());
    for (const auto& img : images) {
      views.push_back(hebs::ImageView::gray8(img.pixels().data(), img.width(),
                                             img.height()));
    }
    return views;
  }
};

TEST_F(FaultFacadeTest, MalformedFaultSpecFailsCreateWithoutArming) {
  auto session = hebs::Session::create(
      hebs::SessionConfig().fault_spec("no-such-point:first=1"));
  ASSERT_FALSE(session);
  EXPECT_EQ(session.status().code(), hebs::StatusCode::kInvalidOption);
  EXPECT_NE(session.status().message().find("fault_spec"), std::string::npos);
  for (std::size_t p = 0; p < fault::kPointCount; ++p) {
    EXPECT_FALSE(fault::armed(static_cast<fault::Point>(p)));
  }
}

TEST_F(FaultFacadeTest, NegativeDeadlineIsInvalidOption) {
  auto session =
      hebs::Session::create(hebs::SessionConfig().frame_deadline_us(-1));
  ASSERT_FALSE(session);
  EXPECT_EQ(session.status().code(), hebs::StatusCode::kInvalidOption);
}

TEST_F(FaultFacadeTest, BatchReportsTypedPerFrameStatus) {
  const auto images = small_album(4, 48);
  auto session = hebs::Session::create(
      hebs::SessionConfig().threads(2).fault_spec("worker-task:first=2"));
  ASSERT_TRUE(session) << session.status().to_string();
  auto results = session->process_batch(views_of(images), 10.0);
  fault::clear_all();
  ASSERT_TRUE(results) << results.status().to_string();
  std::size_t degraded = 0;
  for (const auto& r : *results) {
    if (!r.degraded) {
      EXPECT_TRUE(r.status.ok());
      continue;
    }
    ++degraded;
    EXPECT_EQ(r.beta, 1.0);
    EXPECT_EQ(r.distortion_percent, 0.0);
    EXPECT_EQ(r.status.code(), hebs::StatusCode::kInternal);
    EXPECT_NE(r.status.message().find("injected fault"), std::string::npos)
        << r.status.message();
  }
  EXPECT_EQ(degraded, 1u);
  const auto stats = session->stats();
  EXPECT_EQ(stats.frames_degraded, 1u);
  EXPECT_EQ(stats.fault_worker_task, 1u);
  // The fault block is part of the machine-readable dump.
  EXPECT_NE(stats.to_text().find("hebs_frames_degraded_total 1"),
            std::string::npos);
}

TEST_F(FaultFacadeTest, VideoDeadlineMissIsTypedDeadlineExceeded) {
  const auto frames = small_album(2, 32);
  auto session = hebs::Session::create(
      hebs::SessionConfig()
          .threads(1)
          .temporal_reuse(false)
          .frame_deadline_us(500)
          .fault_spec("stage-latency:stall_us=2000,count=0"));
  ASSERT_TRUE(session) << session.status().to_string();
  auto results = session->process_video(views_of(frames), 10.0);
  fault::clear_all();
  ASSERT_TRUE(results) << results.status().to_string();
  for (const auto& r : *results) {
    EXPECT_TRUE(r.frame.degraded);
    EXPECT_EQ(r.frame.status.code(), hebs::StatusCode::kDeadlineExceeded);
    EXPECT_EQ(r.beta, 1.0);
  }
  const auto stats = session->stats();
  EXPECT_EQ(stats.deadline_misses, frames.size());
  EXPECT_EQ(stats.frames_degraded, frames.size());
}

TEST_F(FaultFacadeTest, ProcessContainsLikeAOneFrameBatch) {
  // Session::process runs on the engine's single-frame slot: a fault
  // degrades the frame instead of failing the call, and the quarantined
  // slot serves the next call from a fresh context.
  const auto images = small_album(3, 48);
  const auto views = views_of(images);
  auto session = hebs::Session::create(
      hebs::SessionConfig().threads(2).fault_spec("worker-task:first=2"));
  ASSERT_TRUE(session) << session.status().to_string();
  auto first = session->process({views[0], 10.0});
  auto second = session->process({views[1], 10.0});
  auto third = session->process({views[2], 10.0});
  fault::clear_all();
  ASSERT_TRUE(first && second && third);
  const auto stats = session->stats();
  EXPECT_EQ(stats.frames_degraded, 1u);
  EXPECT_EQ(stats.fault_worker_task, 1u);

  EXPECT_FALSE(first->degraded);
  EXPECT_TRUE(second->degraded);
  EXPECT_EQ(second->beta, 1.0);
  EXPECT_EQ(second->distortion_percent, 0.0);
  EXPECT_EQ(second->saving_percent, 0.0);
  const auto input = images[1].pixels();
  EXPECT_TRUE(std::equal(second->displayed.pixels().begin(),
                         second->displayed.pixels().end(), input.begin(),
                         input.end()));
  EXPECT_EQ(second->status.code(), hebs::StatusCode::kInternal);
  const std::string& why = second->status.message();
  EXPECT_NE(why.find("frame 0"), std::string::npos) << why;
  EXPECT_NE(why.find("search stage"), std::string::npos) << why;
  EXPECT_NE(why.find(fault::point_name(fault::Point::kWorkerTask)),
            std::string::npos)
      << why;

  EXPECT_FALSE(third->degraded);
  EXPECT_TRUE(third->status.ok());
  auto fresh = hebs::Session::create(hebs::SessionConfig().threads(2));
  ASSERT_TRUE(fresh) << fresh.status().to_string();
  auto want = fresh->process({views[2], 10.0});
  ASSERT_TRUE(want) << want.status().to_string();
  EXPECT_EQ(third->beta, want->beta);
  EXPECT_EQ(third->lambda, want->lambda);
  EXPECT_EQ(third->distortion_percent, want->distortion_percent);
  EXPECT_EQ(third->displayed, want->displayed);
}

TEST_F(FaultFacadeTest, ProcessDeadlineMissIsTypedDeadlineExceeded) {
  // No 48x48 search finishes within 1 us: the frame completes, then
  // degrades to the identity fallback.
  const auto images = small_album(1, 48);
  const auto views = views_of(images);
  auto session =
      hebs::Session::create(hebs::SessionConfig().frame_deadline_us(1));
  ASSERT_TRUE(session) << session.status().to_string();
  auto result = session->process({views[0], 10.0});
  ASSERT_TRUE(result) << result.status().to_string();
  EXPECT_TRUE(result->degraded);
  EXPECT_EQ(result->status.code(), hebs::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(result->beta, 1.0);
  const auto stats = session->stats();
  EXPECT_EQ(stats.deadline_misses, 1u);
  EXPECT_EQ(stats.frames_degraded, 1u);
}

TEST_F(FaultFacadeTest, CurveIoFaultSurfacesAsIoErrorAtCreate) {
  // The curve loads at create; the injected IoError keeps its typed
  // code end to end.
  auto session = hebs::Session::create(hebs::SessionConfig()
                                           .policy("hebs-curve")
                                           .curve_path("/tmp/any_curve.csv")
                                           .fault_spec("curve-io"));
  fault::clear_all();
  ASSERT_FALSE(session);
  EXPECT_EQ(session.status().code(), hebs::StatusCode::kIoError);
}

}  // namespace
}  // namespace hebs::pipeline
