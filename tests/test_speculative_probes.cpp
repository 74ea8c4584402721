// Speculative probes on idle workers (DESIGN.md §11): a search posts
// its next probes as rounds that the pool's idle workers serve — beside
// a single-frame engine call the whole pool, in a batch the workers its
// tail leaves idle; the decision must be exactly the serial one — same result bits, same
// probe and memo counters — at every thread count, on every frame
// class, including the non-monotone impulse/blocky frames where the
// probe path itself decides the answer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "hebs/advanced/core.h"
#include "hebs/advanced/image.h"
#include "hebs/advanced/obs.h"
#include "hebs/advanced/pipeline.h"
#include "hebs/advanced/util.h"

namespace hebs::pipeline {
namespace {

using hebs::image::GrayImage;
using hebs::image::GrayImage16;
using obs::Counter;

/// Frames speculate only from kSpeculationMinPixels (128²) up.
constexpr int kSize = 144;
constexpr double kBudget = 10.0;

struct Frame {
  std::string name;
  GrayImage image;
};

/// Album photos, gradients, flats and the adversarial census classes
/// of test_decision_path.cpp (sparse impulse spikes on a near-flat
/// pedestal, random blocky rectangles).
std::vector<Frame> mix() {
  std::vector<Frame> frames;
  const auto album = hebs::image::usid_album(kSize);
  for (std::size_t i = 0; i < album.size() && i < 5; ++i) {
    frames.push_back({"photo:" + album[i].name, album[i].image});
  }
  GrayImage h(kSize, kSize);
  hebs::image::gradient_h(h, 0.1, 0.9);
  frames.push_back({"gradient:h", std::move(h)});
  GrayImage r(kSize, kSize);
  hebs::image::gradient_radial(r, kSize / 2.0, kSize / 2.0, kSize * 0.7, 1.0,
                               0.0);
  frames.push_back({"gradient:radial", std::move(r)});
  for (const double v : {0.0, 0.45, 1.0}) {
    GrayImage flat(kSize, kSize);
    hebs::image::fill_rect(flat, 0, 0, kSize, kSize, v);
    frames.push_back({"flat:" + std::to_string(v), std::move(flat)});
  }
  for (int seed = 0; seed < 4; ++seed) {
    hebs::util::Rng rng(0x5eedULL + seed, 2 * seed + 1);
    GrayImage img(kSize, kSize);
    if (seed % 2 == 0) {
      hebs::image::fill_rect(img, 0, 0, kSize, kSize, rng.uniform(0.3, 0.7));
      hebs::image::add_salt_pepper(img, rng.uniform(0.005, 0.05), rng);
      frames.push_back({"impulse:" + std::to_string(seed), std::move(img)});
    } else {
      for (int k = 0; k < 6; ++k) {
        const int x0 = static_cast<int>(rng.next_u32() % kSize);
        const int y0 = static_cast<int>(rng.next_u32() % kSize);
        hebs::image::fill_rect(
            img, x0, y0, x0 + 1 + static_cast<int>(rng.next_u32() % kSize),
            y0 + 1 + static_cast<int>(rng.next_u32() % kSize), rng.uniform());
      }
      frames.push_back({"blocky:" + std::to_string(seed), std::move(img)});
    }
  }
  return frames;
}

/// The decision counters speculation must leave exactly as the serial
/// search makes them.
constexpr Counter kSerialCounters[] = {
    Counter::kRangeProbes,  Counter::kBetaProbes, Counter::kEvalMemoHit,
    Counter::kEvalMemoMiss, Counter::kAtRangeHit, Counter::kAtRangeMiss,
};

template <typename T>
bool same_bits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

bool same_points(const hebs::transform::PwlCurve& a,
                 const hebs::transform::PwlCurve& b) {
  const auto& pa = a.points();
  const auto& pb = b.points();
  return pa.size() == pb.size() &&
         (pa.empty() ||
          std::memcmp(pa.data(), pb.data(), pa.size() * sizeof(pa[0])) == 0);
}

template <typename Span>
bool same_bytes(const Span& a, const Span& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0);
}

void expect_identical(const core::HebsResult& a, const core::HebsResult& b,
                      const std::string& what) {
  EXPECT_TRUE(same_bits(a.point.beta, b.point.beta)) << what;
  EXPECT_EQ(a.target.g_min, b.target.g_min) << what;
  EXPECT_EQ(a.target.g_max, b.target.g_max) << what;
  EXPECT_TRUE(same_points(a.phi, b.phi)) << what << " (phi)";
  EXPECT_TRUE(same_points(a.lambda, b.lambda)) << what << " (lambda)";
  EXPECT_TRUE(same_points(a.point.luminance_transform,
                          b.point.luminance_transform))
      << what << " (psi)";
  EXPECT_TRUE(same_bits(a.evaluation.distortion_percent,
                        b.evaluation.distortion_percent))
      << what;
  EXPECT_TRUE(
      same_bits(a.evaluation.saving_percent, b.evaluation.saving_percent))
      << what;
  EXPECT_TRUE(same_bits(a.evaluation.power.ccfl_watts,
                        b.evaluation.power.ccfl_watts))
      << what;
  EXPECT_TRUE(same_bits(a.evaluation.power.panel_watts,
                        b.evaluation.power.panel_watts))
      << what;
  EXPECT_TRUE(same_bytes(a.evaluation.transformed.pixels(),
                         b.evaluation.transformed.pixels()))
      << what << " (raster)";
  EXPECT_TRUE(same_bytes(a.evaluation.transformed16.pixels(),
                         b.evaluation.transformed16.pixels()))
      << what << " (deep raster)";
}

struct Decided {
  core::HebsResult result;
  obs::CounterSnapshot delta;
};

/// One single-frame engine call (the Session::process path), with the
/// counter activity it caused.
template <typename Image>
Decided decide_one(PipelineEngine& engine, const Image& img) {
  const auto before = obs::snapshot_counters();
  std::vector<FrameFault> faults;
  auto results = engine.process_batch(std::span<const Image>(&img, 1),
                                      ExactPolicy(), kBudget, &faults);
  Decided d{std::move(results.at(0)),
            obs::snapshot_counters().delta_since(before)};
  EXPECT_FALSE(faults.at(0).degraded) << faults.at(0).message;
  return d;
}

PipelineEngine make_engine(int threads, bool coarse = true) {
  EngineOptions opts;
  opts.num_threads = threads;
  opts.hebs.coarse_search = coarse;
  return PipelineEngine(opts);
}

/// Decides `frames` on fresh engines at 1, 2 and 4 threads and checks
/// every multi-thread decision against the 1-thread one.
template <typename Image>
void expect_thread_invariant(const std::vector<std::string>& names,
                             const std::vector<Image>& frames,
                             bool coarse = true) {
  PipelineEngine serial = make_engine(1, coarse);
  std::vector<Decided> reference;
  for (const Image& img : frames) {
    reference.push_back(decide_one(serial, img));
    EXPECT_EQ(reference.back().delta[Counter::kSpecProbes], 0u);
  }
  for (const int threads : {2, 4}) {
    PipelineEngine engine = make_engine(threads, coarse);
    std::uint64_t spec = 0;
    std::uint64_t wasted = 0;
    for (std::size_t f = 0; f < frames.size(); ++f) {
      const std::string what =
          names[f] + " threads=" + std::to_string(threads);
      const Decided d = decide_one(engine, frames[f]);
      expect_identical(d.result, reference[f].result, what);
      for (const Counter c : kSerialCounters) {
        EXPECT_EQ(d.delta[c], reference[f].delta[c])
            << what << " " << obs::counter_name(c);
      }
      spec += d.delta[Counter::kSpecProbes];
      wasted += d.delta[Counter::kSpecProbesWasted];
    }
    EXPECT_LE(wasted, spec);
    if (ThreadPool(threads).effective_concurrency() >= 2) {
      EXPECT_GT(spec, 0u) << "threads=" << threads;
    }
  }
}

TEST(SpeculativeProbes, MatchSerialDecisionsAndCountersAcrossThreadCounts) {
  std::vector<std::string> names;
  std::vector<GrayImage> images;
  for (Frame& f : mix()) {
    names.push_back(std::move(f.name));
    images.push_back(std::move(f.image));
  }
  expect_thread_invariant(names, images);
}

TEST(SpeculativeProbes, MatchSerialDecisionsWithTheFrozenBisection) {
  // coarse_search off: the range search is the plain bisection, whose
  // mids are speculated like the β cold loop's.
  std::vector<std::string> names;
  std::vector<GrayImage> images;
  for (Frame& f : mix()) {
    names.push_back(std::move(f.name));
    images.push_back(std::move(f.image));
  }
  expect_thread_invariant(names, images, /*coarse=*/false);
}

TEST(SpeculativeProbes, MatchSerialDecisionsOnTenBitFrames) {
  util::Rng rng(77);
  GrayImage16 frame = GrayImage16::widen(
      hebs::image::make_usid(hebs::image::UsidId::kPeppers, kSize), 1024);
  for (auto& p : frame.pixels()) {
    const int jitter = static_cast<int>(rng.uniform_int(0, 6)) - 3;
    p = static_cast<std::uint16_t>(
        std::clamp(static_cast<int>(p) + jitter, 0, 1023));
  }
  expect_thread_invariant<GrayImage16>({"10-bit:peppers"}, {frame});
}

TEST(SpeculativeProbes, ArmedFaultSpecTakesTheSerialPath) {
  const auto frames = mix();
  const GrayImage& img = frames.front().image;
  // An armed point that never fires here still switches speculation
  // off, so injected runs keep exactly the serial hit counts.
  util::fault::Spec spec;
  spec.point = util::fault::Point::kStageLatency;
  spec.first = 1u << 30;
  util::fault::install(spec);
  PipelineEngine serial = make_engine(1);
  const Decided one = decide_one(serial, img);
  const std::uint64_t serial_hits =
      util::fault::hit_count(util::fault::Point::kStageLatency);
  util::fault::install(spec);
  PipelineEngine wide = make_engine(4);
  const Decided four = decide_one(wide, img);
  const std::uint64_t wide_hits =
      util::fault::hit_count(util::fault::Point::kStageLatency);
  util::fault::clear_all();
  EXPECT_EQ(four.delta[Counter::kSpecProbes], 0u);
  EXPECT_EQ(four.delta[Counter::kSpecProbesWasted], 0u);
  EXPECT_EQ(wide_hits, serial_hits);
  EXPECT_GT(serial_hits, 0u);
  expect_identical(four.result, one.result, "fault-armed");
}

TEST(SpeculativeProbes, SingleFrameDoesNotQueueBehindABatch) {
  const auto frames = mix();
  const GrayImage& img = frames.front().image;
  PipelineEngine serial = make_engine(1);
  const Decided reference = decide_one(serial, img);

  PipelineEngine engine = make_engine(4);
  // A batch long enough to outlast the single-frame call many times.
  std::vector<GrayImage> batch;
  for (int k = 0; k < 24; ++k) {
    for (const Frame& f : frames) batch.push_back(f.image);
  }
  const auto base = obs::snapshot_counters();
  std::atomic<bool> batch_done{false};
  std::thread batcher([&] {
    (void)engine.process_batch(batch, kBudget);
    batch_done.store(true);
  });
  // Wait until the batch's fan-out is in flight.
  while (obs::snapshot_counters().delta_since(base)[Counter::kFramesDecided] ==
             0 &&
         !batch_done.load()) {
    std::this_thread::yield();
  }
  std::vector<FrameFault> faults;
  const auto result = engine.process_batch(
      std::span<const GrayImage>(&img, 1), ExactPolicy(), kBudget, &faults);
  const bool finished_first = !batch_done.load();
  batcher.join();
  EXPECT_TRUE(finished_first)
      << "the single-frame call waited for the batch to finish";
  EXPECT_FALSE(faults.at(0).degraded);
  expect_identical(result.at(0), reference.result, "beside a batch");
}

/// One 384² frame above the speculation floor and three 64² frames below
/// it: the small frames' workers finish first and serve the large
/// frame's rounds.
struct TailBatch {
  std::vector<GrayImage> gray;
  std::vector<hebs::image::RgbImage> rgb;
};

TailBatch tail_batch() {
  TailBatch b;
  const auto add = [&b](hebs::image::UsidId id, int size) {
    b.rgb.push_back(hebs::image::make_usid_color(id, size));
    b.gray.push_back(b.rgb.back().to_luma());
  };
  add(hebs::image::UsidId::kPeppers, 384);
  add(hebs::image::UsidId::kLena, 64);
  add(hebs::image::UsidId::kSail, 64);
  add(hebs::image::UsidId::kBaboon, 64);
  return b;
}

struct TailRun {
  std::vector<core::HebsResult> gray;
  std::vector<ColorBatchResult> color;
  obs::CounterSnapshot gray_delta;
  obs::CounterSnapshot color_delta;
};

TailRun run_tail(int threads, const TailBatch& b) {
  PipelineEngine engine = make_engine(threads);
  TailRun r;
  std::vector<FrameFault> faults;
  auto before = obs::snapshot_counters();
  r.gray = engine.process_batch(std::span<const GrayImage>(b.gray),
                                ExactPolicy(), kBudget, &faults);
  r.gray_delta = obs::snapshot_counters().delta_since(before);
  for (const FrameFault& f : faults) EXPECT_FALSE(f.degraded) << f.message;
  before = obs::snapshot_counters();
  r.color = engine.process_batch_color(
      std::span<const hebs::image::RgbImage>(b.rgb), ExactPolicy(), kBudget,
      core::ColorMode::kSharedCurve, &faults);
  r.color_delta = obs::snapshot_counters().delta_since(before);
  for (const FrameFault& f : faults) EXPECT_FALSE(f.degraded) << f.message;
  return r;
}

TEST(SpeculativeProbes, BatchTailMatchesSerialDecisions) {
  const TailBatch batch = tail_batch();
  const TailRun serial = run_tail(1, batch);
  EXPECT_EQ(serial.gray_delta[Counter::kSpecProbes], 0u);
  EXPECT_EQ(serial.color_delta[Counter::kSpecProbes], 0u);
  for (const int threads : {2, 4, 8}) {
    const TailRun wide = run_tail(threads, batch);
    for (std::size_t i = 0; i < batch.gray.size(); ++i) {
      const std::string what =
          "frame " + std::to_string(i) + " threads=" + std::to_string(threads);
      expect_identical(wide.gray[i], serial.gray[i], what + " gray");
      expect_identical(wide.color[i].luma, serial.color[i].luma,
                       what + " color");
      EXPECT_TRUE(same_bits(wide.color[i].color.hue_error,
                            serial.color[i].color.hue_error))
          << what;
      EXPECT_TRUE(same_bytes(wide.color[i].color.displayed.data(),
                             serial.color[i].color.displayed.data()))
          << what;
    }
    for (const Counter c : kSerialCounters) {
      EXPECT_EQ(wide.gray_delta[c], serial.gray_delta[c])
          << "threads=" << threads << " " << obs::counter_name(c);
      EXPECT_EQ(wide.color_delta[c], serial.color_delta[c])
          << "threads=" << threads << " " << obs::counter_name(c);
    }
    if (ThreadPool(threads).effective_concurrency() >= 2) {
      EXPECT_GT(wide.gray_delta[Counter::kSpecProbes], 0u)
          << "threads=" << threads;
      EXPECT_GT(wide.color_delta[Counter::kSpecProbes], 0u)
          << "threads=" << threads;
    }
  }
}

TEST(SpeculativeProbes, ArmedFaultSpecTakesTheSerialPathInBatches) {
  const TailBatch batch = tail_batch();
  util::fault::Spec spec;
  spec.point = util::fault::Point::kStageLatency;
  spec.first = 1u << 30;
  util::fault::install(spec);
  const TailRun serial = run_tail(1, batch);
  const std::uint64_t serial_hits =
      util::fault::hit_count(util::fault::Point::kStageLatency);
  util::fault::install(spec);
  const TailRun wide = run_tail(4, batch);
  const std::uint64_t wide_hits =
      util::fault::hit_count(util::fault::Point::kStageLatency);
  util::fault::clear_all();
  for (const auto* delta : {&wide.gray_delta, &wide.color_delta}) {
    EXPECT_EQ((*delta)[Counter::kSpecProbes], 0u);
    EXPECT_EQ((*delta)[Counter::kSpecProbesWasted], 0u);
  }
  EXPECT_EQ(wide_hits, serial_hits);
  EXPECT_GT(serial_hits, 0u);
  for (std::size_t i = 0; i < batch.gray.size(); ++i) {
    expect_identical(wide.gray[i], serial.gray[i], "fault-armed gray");
    expect_identical(wide.color[i].luma, serial.color[i].luma,
                     "fault-armed color");
  }
}

TEST(SpeculativeProbes, MemberPoolsWarmOncePerShape) {
  // Traffic whose shapes cycle through more than a handful of sizes: a
  // shape is warmed (one probe under each member pool) the first time
  // only, however many other shapes came between.
  ThreadPool pool(2);
  ProbeLanes::MemberPools members;
  for (auto& m : members) m = std::make_unique<util::BufferPool>();
  ProbeLanes lanes(pool, std::move(members));
  // An idle worker may run a warm-up probe: count them atomically.
  std::atomic<int> probes{0};
  const auto probe = [&probes](std::size_t) { ++probes; };
  for (int pass = 0; pass < 3; ++pass) {
    for (int s = 0; s < 9; ++s) lanes.warm({128 + 16 * s, 128, 256, 8}, probe);
  }
  EXPECT_EQ(probes.load(), 9 * static_cast<int>(ProbeLanes::kMaxRound - 1));
  // Every field of the shape counts.
  lanes.warm({128, 128, 1024, 8}, probe);
  lanes.warm({128, 128, 256, 6}, probe);
  EXPECT_EQ(probes.load(), 11 * static_cast<int>(ProbeLanes::kMaxRound - 1));
}

TEST(SpeculativeProbes, BatchDoesNotQueueBehindSpeculatingFrames) {
  // Single frames large enough that one outlasts a small batch many
  // times over keep the pool's idle workers serving probe rounds.
  const GrayImage big = hebs::image::make_usid(hebs::image::UsidId::kLena, 768);
  std::vector<GrayImage> batch;
  for (const Frame& f : mix()) {
    if (batch.size() == 4) break;
    GrayImage small(64, 64);
    for (int y = 0; y < 64; ++y) {
      for (int x = 0; x < 64; ++x) small(x, y) = f.image(x, y);
    }
    batch.push_back(std::move(small));
  }
  PipelineEngine serial = make_engine(1);
  const auto reference = serial.process_batch(batch, kBudget);

  PipelineEngine engine = make_engine(4);
  if (engine.thread_count() < 2 ||
      ThreadPool(4).effective_concurrency() < 2) {
    GTEST_SKIP() << "no idle worker to serve rounds on this machine";
  }
  std::atomic<bool> stop{false};
  std::atomic<int> singles_done{0};
  std::thread single([&] {
    while (!stop.load()) {
      (void)engine.process_batch(std::span<const GrayImage>(&big, 1),
                                 ExactPolicy(), kBudget);
      singles_done.fetch_add(1);
    }
  });
  // Issue the batch once a frame's search is speculating: its probe
  // rounds are under way, so the rest of that frame is many probes long.
  constexpr int kTries = 3;
  int tried = 0;
  int queued_behind = 0;
  for (int attempt = 0; attempt < 20 && tried < kTries; ++attempt) {
    // Start with a fresh frame (the looping caller finishes one soon).
    const int before = singles_done.load();
    while (singles_done.load() == before) std::this_thread::yield();
    const int in_flight = singles_done.load();
    const auto base = obs::snapshot_counters();
    while (obs::snapshot_counters().delta_since(base)[Counter::kSpecProbes] ==
               0 &&
           singles_done.load() == in_flight) {
      std::this_thread::yield();
    }
    if (singles_done.load() != in_flight) continue;  // finished unseen
    std::vector<FrameFault> faults;
    const auto results =
        engine.process_batch(batch, ExactPolicy(), kBudget, &faults);
    ++tried;
    // The batch waited for the frame only if that frame finished first.
    if (singles_done.load() != in_flight) ++queued_behind;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_FALSE(faults[i].degraded) << faults[i].message;
      expect_identical(results[i], reference[i], "batch beside singles");
    }
  }
  stop.store(true);
  single.join();
  ASSERT_GT(tried, 0) << "no single frame was seen speculating";
  // A frame may finish during the batch by chance; it cannot every time.
  EXPECT_LT(queued_behind, tried)
      << "the batch waited for the speculating frame to finish";
}

}  // namespace
}  // namespace hebs::pipeline
