// Tests for integral images and paired window statistics (the engine
// under UIQI and SSIM), validated against naive computation.
#include <gtest/gtest.h>

#include <vector>

#include "hebs/advanced/quality.h"
#include "hebs/advanced/util.h"

namespace hebs::quality {
namespace {

std::vector<double> random_raster(int w, int h, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> v(static_cast<std::size_t>(w) * h);
  for (auto& x : v) x = rng.uniform();
  return v;
}

TEST(IntegralImage, SingleCellSums) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  const IntegralImage ii(v, 2, 2);
  EXPECT_DOUBLE_EQ(ii.rect_sum(0, 0, 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(ii.rect_sum(1, 0, 1, 0), 2.0);
  EXPECT_DOUBLE_EQ(ii.rect_sum(0, 1, 0, 1), 3.0);
  EXPECT_DOUBLE_EQ(ii.rect_sum(1, 1, 1, 1), 4.0);
}

TEST(IntegralImage, FullRectIsTotalSum) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  const IntegralImage ii(v, 2, 2);
  EXPECT_DOUBLE_EQ(ii.rect_sum(0, 0, 1, 1), 10.0);
}

TEST(IntegralImage, MatchesNaiveOnRandomData) {
  const int w = 13;
  const int h = 9;
  const auto v = random_raster(w, h, 1);
  const IntegralImage ii(v, w, h);
  auto naive = [&](int x0, int y0, int x1, int y1) {
    double acc = 0.0;
    for (int y = y0; y <= y1; ++y) {
      for (int x = x0; x <= x1; ++x) {
        acc += v[static_cast<std::size_t>(y) * w + x];
      }
    }
    return acc;
  };
  for (int y0 = 0; y0 < h; y0 += 2) {
    for (int x0 = 0; x0 < w; x0 += 3) {
      const int x1 = std::min(w - 1, x0 + 4);
      const int y1 = std::min(h - 1, y0 + 3);
      EXPECT_NEAR(ii.rect_sum(x0, y0, x1, y1), naive(x0, y0, x1, y1),
                  1e-9);
    }
  }
}

TEST(IntegralImage, ValidatesSize) {
  const std::vector<double> v = {1.0, 2.0};
  EXPECT_THROW(IntegralImage(v, 2, 2), hebs::util::InvalidArgument);
  EXPECT_THROW(IntegralImage(v, 0, 2), hebs::util::InvalidArgument);
}

/// Property sweep over raster shapes: PairStats window moments must match
/// direct per-window computation.
class PairStatsSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(PairStatsSweep, MomentsMatchNaive) {
  const auto [w, h, block] = GetParam();
  const auto a = random_raster(w, h, 2);
  const auto b = random_raster(w, h, 3);
  const PairStats stats(a, b, w, h);

  for (int y = 0; y + block <= h; y += 3) {
    for (int x = 0; x + block <= w; x += 3) {
      const WindowMoments m = stats.window(x, y, block);
      double sa = 0;
      double sb = 0;
      double saa = 0;
      double sbb = 0;
      double sab = 0;
      for (int yy = y; yy < y + block; ++yy) {
        for (int xx = x; xx < x + block; ++xx) {
          const double va = a[static_cast<std::size_t>(yy) * w + xx];
          const double vb = b[static_cast<std::size_t>(yy) * w + xx];
          sa += va;
          sb += vb;
          saa += va * va;
          sbb += vb * vb;
          sab += va * vb;
        }
      }
      const double n = static_cast<double>(block) * block;
      EXPECT_NEAR(m.mean_a, sa / n, 1e-9);
      EXPECT_NEAR(m.mean_b, sb / n, 1e-9);
      EXPECT_NEAR(m.var_a, saa / n - (sa / n) * (sa / n), 1e-9);
      EXPECT_NEAR(m.var_b, sbb / n - (sb / n) * (sb / n), 1e-9);
      EXPECT_NEAR(m.cov_ab, sab / n - (sa / n) * (sb / n), 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PairStatsSweep,
    ::testing::Values(std::make_tuple(8, 8, 8), std::make_tuple(16, 12, 4),
                      std::make_tuple(33, 17, 8),
                      std::make_tuple(64, 64, 16)));

TEST(PairStats, VarianceNeverNegative) {
  // Constant rasters stress fp cancellation in var = E[x²] - E[x]².
  std::vector<double> a(64, 0.3333333333333333);
  std::vector<double> b(64, 0.9999999999999999);
  const PairStats stats(a, b, 8, 8);
  const WindowMoments m = stats.window(0, 0, 8);
  EXPECT_GE(m.var_a, 0.0);
  EXPECT_GE(m.var_b, 0.0);
}

TEST(PairStats, MismatchedRastersThrow) {
  std::vector<double> a(64, 0.0);
  std::vector<double> b(32, 0.0);
  EXPECT_THROW(PairStats(a, b, 8, 8), hebs::util::InvalidArgument);
}

/// A raster read in place, row by row.
class SpanRows final : public RowSource {
 public:
  SpanRows(const std::vector<double>& v, int width) : v_(v), width_(width) {}
  const double* row(int y, double* /*scratch*/) const override {
    return v_.data() + static_cast<std::size_t>(y) * width_;
  }

 private:
  const std::vector<double>& v_;
  int width_;
};

TEST(RefWindowMoments, StreamedMomentsMatchPairStatsBitwise) {
  // The evaluator's streamed reference side (a ring of block+1
  // integral rows) must reproduce the a-side moments of the full-table
  // PairStats exactly.
  std::vector<double> a(12 * 9);
  std::vector<double> b(12 * 9, 0.25);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = 0.017 * static_cast<double>((i * 37) % 101);
  }
  const PairStats direct(a, b, 12, 9);
  std::vector<double> raster(a.size());
  const RefWindowMoments streamed(SpanRows(a, 12), 12, 9, {}, 4,
                                  raster.data());
  EXPECT_EQ(raster, a);  // no taps: the stream passes rows through
  ASSERT_EQ(streamed.windows_x(), 12 - 4 + 1);
  for (int y = 0; y + 4 <= 9; ++y) {
    for (int x = 0; x + 4 <= 12; ++x) {
      const WindowMoments md = direct.window(x, y, 4);
      EXPECT_EQ(md.mean_a, streamed.mean_row(y)[x]);
      EXPECT_EQ(md.var_a, streamed.var_row(y)[x]);
    }
  }
}

TEST(RefWindowMoments, RasterSmallerThanWindowThrows) {
  std::vector<double> a(64, 0.5);
  EXPECT_THROW(RefWindowMoments(SpanRows(a, 16), 16, 4, {}, 8, nullptr),
               hebs::util::InvalidArgument);
}

}  // namespace
}  // namespace hebs::quality
