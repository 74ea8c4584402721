// Fuzz coverage for the restructured cold decision path.
//
// The coarse-to-fine search (HebsOptions::coarse_search, default on)
// carries a two-tier contract (DESIGN.md §11).  On the paper's domain
// -- the benchmark album and the degenerate frame classes, where the
// measured distortion is weakly monotone in range and beta -- it is
// bit-identical to the frozen cold bisection (coarse_search = false):
// same target range, same beta, same curves, same transformed raster.
// On arbitrary frames, where monotonicity can fail and the bisection
// answer itself is probe-order-dependent, it still only ever adopts a
// measured, endpoint-verified within-budget operating point.  These
// tests pin tier one exactly (album x budgets x min_range, flats,
// tiny rasters, thread counts) and tier two on adversarial seeds.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "hebs/advanced/core.h"
#include "hebs/advanced/image.h"
#include "hebs/advanced/pipeline.h"
#include "pipeline/frame_context.h"
#include "util/rng.h"

namespace hebs::pipeline {
namespace {

const hebs::power::LcdSubsystemPower& model() {
  static const auto m = hebs::power::LcdSubsystemPower::lp064v1();
  return m;
}

void expect_bit_identical(const core::HebsResult& a, const core::HebsResult& b,
                          const std::string& what) {
  EXPECT_EQ(a.target.g_min, b.target.g_min) << what;
  EXPECT_EQ(a.target.g_max, b.target.g_max) << what;
  EXPECT_EQ(a.point.beta, b.point.beta) << what;
  EXPECT_EQ(a.plc_mse, b.plc_mse) << what;
  EXPECT_EQ(a.phi.points(), b.phi.points()) << what;
  EXPECT_EQ(a.lambda.points(), b.lambda.points()) << what;
  EXPECT_EQ(a.evaluation.distortion_percent, b.evaluation.distortion_percent)
      << what;
  EXPECT_EQ(a.evaluation.saving_percent, b.evaluation.saving_percent) << what;
  EXPECT_EQ(a.evaluation.power.total(), b.evaluation.power.total()) << what;
  EXPECT_EQ(a.evaluation.transformed, b.evaluation.transformed) << what;
}

core::HebsResult run_once(const hebs::image::GrayImage& img,
                          core::HebsOptions opts, bool coarse, double budget) {
  opts.coarse_search = coarse;
  FrameContext ctx(img, opts, model());
  core::HebsResult result = run_exact(ctx, budget);
  ctx.materialize_transformed(result);
  return result;
}

void expect_search_parity(const hebs::image::GrayImage& img,
                          const core::HebsOptions& opts, double budget,
                          const std::string& what) {
  expect_bit_identical(run_once(img, opts, true, budget),
                       run_once(img, opts, false, budget), what);
}

TEST(DecisionPath, AlbumBudgetMinRangeMatrix) {
  const auto album = hebs::image::usid_album(64);
  for (const double budget : {0.5, 2.0, 5.0, 10.0, 30.0}) {
    for (const int min_range : {2, 16, 64}) {
      core::HebsOptions opts;
      opts.min_range = min_range;
      for (const auto& [name, img] : album) {
        expect_search_parity(img, opts, budget,
                             name + " budget=" + std::to_string(budget) +
                                 " min_range=" + std::to_string(min_range));
      }
    }
  }
}

TEST(DecisionPath, BetaWalksRecordOnePath) {
  // The β refinement runs one dyadic walk three ways: the cold loop
  // (coarse_search off), the coarse search's bracket replay, and the
  // replay of a temporal seed.  On the album matrix all three record
  // the same decision path.
  const auto album = hebs::image::usid_album(64);
  std::size_t walks = 0;
  for (const double budget : {0.5, 2.0, 5.0, 10.0, 30.0}) {
    for (const int min_range : {2, 16, 64}) {
      for (const auto& [name, img] : album) {
        const std::string what = name + " budget=" + std::to_string(budget) +
                                 " min_range=" + std::to_string(min_range);
        const auto traced = [&](bool coarse, const SearchTrace* seed) {
          core::HebsOptions opts;
          opts.min_range = min_range;
          opts.coarse_search = coarse;
          FrameContext ctx(img, opts, model());
          SearchTrace trace;
          run_exact_traced(ctx, budget, seed, &trace);
          return trace;
        };
        const SearchTrace cold = traced(false, nullptr);
        const SearchTrace coarse = traced(true, nullptr);
        const SearchTrace seeded = traced(true, &cold);
        for (const SearchTrace* t : {&coarse, &seeded}) {
          EXPECT_EQ(t->beta_path, cold.beta_path) << what;
          EXPECT_EQ(t->refine_ran, cold.refine_ran) << what;
          EXPECT_EQ(t->floor_feasible, cold.floor_feasible) << what;
          EXPECT_EQ(t->range, cold.range) << what;
        }
        walks += cold.refine_ran && !cold.floor_feasible ? 1 : 0;
      }
    }
  }
  EXPECT_GT(walks, 0u);
}

TEST(DecisionPath, SeedFuzzedFramesHonorTheBudgetContract) {
  // Random frames with deliberately ugly histograms: noise fields,
  // noisy gradients, sparse impulse spikes, blocky rectangles.  On
  // such frames the measured distortion is NOT monotone in range or
  // beta (UIQI windows straddling impulse edges can improve under
  // deeper compression), so "the" bisection answer is ill-defined:
  // the frozen cold search and the coarse search may converge to
  // different verified crossings, and bit-identity is only promised
  // on the paper's domain (the album matrix above; DESIGN.md §11).
  // What the coarse path guarantees UNCONDITIONALLY -- every probe is
  // a full-resolution measurement and adoption requires verified
  // bracket endpoints -- is pinned here instead: whenever the frozen
  // search finds a within-budget operating point, the coarse search's
  // adopted point is also measured within budget, and the decision is
  // run-to-run deterministic in both modes.
  constexpr int kSeeds = 36;
  for (int seed = 0; seed < kSeeds; ++seed) {
    hebs::util::Rng rng(0x9e3779b97f4a7c15ULL + seed, 2 * seed + 1);
    const int size = 17 + static_cast<int>(rng.next_u32() % 64);
    hebs::image::GrayImage img(size, size);
    switch (seed % 4) {
      case 0:  // broadband noise over a random pedestal
        hebs::image::fill_rect(img, 0, 0, size, size, rng.uniform());
        hebs::image::add_gaussian_noise(img, rng.uniform(0.05, 0.4), rng);
        break;
      case 1:  // noisy gradient (smooth histogram + tails)
        hebs::image::gradient_h(img, rng.uniform(), rng.uniform());
        hebs::image::add_gaussian_noise(img, rng.uniform(0.0, 0.1), rng);
        break;
      case 2: {  // near-flat with sparse extreme spikes
        hebs::image::fill_rect(img, 0, 0, size, size, rng.uniform(0.3, 0.7));
        hebs::image::add_salt_pepper(img, rng.uniform(0.0, 0.05), rng);
        break;
      }
      default: {  // random rectangles: blocky multi-modal histogram
        for (int k = 0; k < 6; ++k) {
          const int x0 = static_cast<int>(rng.next_u32() % size);
          const int y0 = static_cast<int>(rng.next_u32() % size);
          hebs::image::fill_rect(img, x0, y0,
                                 x0 + 1 + static_cast<int>(rng.next_u32() % size),
                                 y0 + 1 + static_cast<int>(rng.next_u32() % size),
                                 rng.uniform());
        }
        break;
      }
    }
    core::HebsOptions opts;
    const double budget = rng.uniform(0.5, 25.0);
    const std::string what = "seed=" + std::to_string(seed) +
                             " size=" + std::to_string(size) +
                             " budget=" + std::to_string(budget);
    const auto coarse = run_once(img, opts, true, budget);
    const auto cold = run_once(img, opts, false, budget);
    if (cold.evaluation.distortion_percent <= budget) {
      EXPECT_LE(coarse.evaluation.distortion_percent, budget) << what;
    } else {
      // Even the widest range misses the budget; both searches take
      // the identical least-distorted early exit.
      expect_bit_identical(coarse, cold, what + " (hi infeasible)");
    }
    expect_bit_identical(coarse, run_once(img, opts, true, budget),
                         what + " (coarse determinism)");
    expect_bit_identical(cold, run_once(img, opts, false, budget),
                         what + " (frozen determinism)");
  }
}

TEST(DecisionPath, FlatFramesTakeTheColdPathVerbatim) {
  // Constant rasters have native range 0; the UIQI metric's windowed
  // variances are then pure cancellation residue and the distortion
  // landscape is deterministic noise.  The coarse ladder is gated off
  // for them (histogram max_level == min_level), so both modes must
  // run the identical cold bisection.
  for (const double v : {0.0, 0.15, 0.5, 0.75, 1.0}) {
    hebs::image::GrayImage img(40, 40);
    hebs::image::fill_rect(img, 0, 0, 40, 40, v);
    for (const double budget : {1.0, 10.0}) {
      expect_search_parity(img, {}, budget,
                           "flat=" + std::to_string(v) +
                               " budget=" + std::to_string(budget));
    }
  }
}

TEST(DecisionPath, TinyFramesUnderRmse) {
  // 1x1 and 2x2 frames are below the UIQI window, so pin the search
  // parity under the RMSE metric (well-defined at any size) instead.
  core::HebsOptions opts;
  opts.distortion.metric = hebs::quality::Metric::kRmse;
  for (const int size : {1, 2, 3}) {
    hebs::util::Rng rng(77 + size);
    hebs::image::GrayImage img(size, size);
    hebs::image::add_gaussian_noise(img, 0.5, rng);
    for (const double budget : {2.0, 10.0}) {
      expect_search_parity(img, opts, budget,
                           "tiny size=" + std::to_string(size) +
                               " budget=" + std::to_string(budget));
    }
  }
}

TEST(DecisionPath, EngineResultsIndependentOfThreadCount) {
  // Intra-frame row parallelism reorders probe evaluation internally;
  // the adopted decisions must not depend on worker count, and a
  // second identical batch must reproduce the first bit for bit.
  const auto album = hebs::image::usid_album(48);
  std::vector<hebs::image::GrayImage> frames;
  for (std::size_t i = 0; i < album.size(); i += 3) {
    frames.push_back(album[i].image);
  }
  auto run_engine = [&](int threads) {
    EngineOptions opts;
    opts.num_threads = threads;
    PipelineEngine engine(opts);
    return engine.process_batch(std::span(frames.data(), frames.size()), 10.0);
  };
  const auto serial = run_engine(1);
  const auto parallel = run_engine(4);
  const auto repeat = run_engine(1);
  ASSERT_EQ(serial.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    expect_bit_identical(serial[i], parallel[i],
                         "1t vs 4t frame " + std::to_string(i));
    expect_bit_identical(serial[i], repeat[i],
                         "run-to-run frame " + std::to_string(i));
  }
}

}  // namespace
}  // namespace hebs::pipeline
