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
#include <new>
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
  // it in the same round were planned on history that reset discards,
  // so they must be re-planned to equal a cold run started after it.
  const auto clip = hebs::image::make_video_clip(48, 48);
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    // Stream rounds are 2 x threads frames (one frame at one thread);
    // the clip spans three of them.
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

    // A clean run counts the pool allocations.  The hits run round by
    // round and, within a round, search before re-derivation, so the
    // (round, stage) a hit index lands in grows with the index: bisect
    // for the first hit of round 1's re-derivation.
    fault::Spec never;
    never.point = fault::Point::kPoolAlloc;
    never.first = std::uint64_t{1} << 62;
    fault::install(never);
    const auto clean =
        PipelineEngine(opts, model()).process_stream(frames, vopts);
    const std::uint64_t total_hits = fault::hit_count(fault::Point::kPoolAlloc);
    fault::clear_all();
    const auto stage_key = [&](const Run& r) {
      return 2 * (r.fault_at / round) + (r.rederive ? 1 : 0);
    };
    std::uint64_t lo = 1;
    std::uint64_t hi = total_hits;
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (stage_key(run_with_fault_at_hit(mid)) >= 3) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    const Run run = run_with_fault_at_hit(lo);
    ASSERT_LT(run.fault_at, frames.size());
    ASSERT_TRUE(run.rederive) << run.faults[run.fault_at].message;
    ASSERT_EQ(run.fault_at / round, 1u);
    const std::size_t fault_at = run.fault_at;

    // Exactly that frame degrades to the identity decision.
    EXPECT_EQ(run.decisions[fault_at].beta, 1.0);
    EXPECT_EQ(run.decisions[fault_at].raw_beta, 1.0);
    EXPECT_EQ(run.decisions[fault_at].evaluation.transformed,
              frames[fault_at]);

    // The frames after it, the rest of its round included, equal a cold
    // run started just after it.
    EngineOptions ref_opts;
    ref_opts.num_threads = 1;
    ref_opts.temporal_reuse = false;
    core::VideoOptions ref_vopts = vopts;
    ref_vopts.num_threads = 1;
    const std::span<const GrayImage> suffix(frames.data() + fault_at + 1,
                                            frames.size() - fault_at - 1);
    const auto ref =
        PipelineEngine(ref_opts, model()).process_stream(suffix, ref_vopts);
    ASSERT_EQ(ref.size(), suffix.size());
    for (std::size_t j = 0; j < ref.size(); ++j) {
      SCOPED_TRACE("suffix frame " + std::to_string(j));
      expect_same_decision(run.decisions[fault_at + 1 + j], ref[j]);
    }
    // The replay is what makes them equal: without the fault, a frame
    // after it in its round decides differently from that cold run.
    if (threads > 1) {
      bool history_matters = false;
      for (std::size_t i = fault_at + 1; i < 2 * round; ++i) {
        history_matters |= clean[i].beta != ref[i - fault_at - 1].beta;
      }
      EXPECT_TRUE(history_matters);
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
    // Rounds hold `slots` runs; this clip's is one round above 1 thread.
    const std::size_t slots = threads == 1 ? 1 : 2 * threads;
    std::vector<std::size_t> round_of;
    for (std::size_t r = 0; r < lengths.size(); ++r) {
      for (int k = 0; k < lengths[r]; ++k) round_of.push_back(r / slots);
    }
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
    // (round, stage, frame) of a hit grows with the hit index — the
    // frame only at one thread, where the re-derivations run in frame
    // order: bisect for the first re-derivation hit on the 4-frame
    // run's first duplicate (frame 2), then walk on to a duplicate.
    const auto key = [&](const Run& r) {
      const std::size_t stage =
          r.fault_at == frames.size()
              ? 2 * round_of.back() + 2
              : 2 * round_of[r.fault_at] + (r.rederive ? 1 : 0);
      return stage * frames.size() + std::min(r.fault_at, frames.size() - 1);
    };
    const std::size_t target = (2 * round_of[1] + 1) * frames.size() + 2;
    fault::Spec never;
    never.point = fault::Point::kPoolAlloc;
    never.first = std::uint64_t{1} << 62;
    fault::install(never);
    const auto clean =
        PipelineEngine(opts, model()).process_stream(frames, vopts);
    const std::uint64_t total_hits = fault::hit_count(fault::Point::kPoolAlloc);
    fault::clear_all();
    std::uint64_t lo = 1;
    std::uint64_t hi = total_hits;
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (key(run_with_fault_at_hit(mid)) >= target) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    Run run;
    bool found = false;
    for (std::uint64_t hit = lo; hit <= total_hits && !found; ++hit) {
      run = run_with_fault_at_hit(hit);
      found = run.rederive && run.fault_at > 0 &&
              frames[run.fault_at] == frames[run.fault_at - 1];
    }
    ASSERT_TRUE(found) << "no pool allocation of a duplicate's re-derivation";
    const std::size_t fault_at = run.fault_at;
    // Its own applied β: a real re-derivation, not a copy.
    EXPECT_NE(clean[fault_at].beta, clean[fault_at - 1].beta);
    EXPECT_EQ(run.decisions[fault_at].beta, 1.0);
    EXPECT_EQ(run.decisions[fault_at].raw_beta, 1.0);
    EXPECT_EQ(run.decisions[fault_at].evaluation.transformed,
              frames[fault_at]);

    // The frames after it, the rest of its run and round included,
    // equal a cold run started just after it.
    const auto ref = cold_suffix(frames, fault_at);
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
