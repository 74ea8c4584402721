#include "quality/uiqi.h"

#include <vector>

#include "quality/widen.h"
#include "quality/window_stats.h"
#include "util/error.h"

namespace hebs::quality {

namespace {

double uiqi_impl(std::span<const double> a, std::span<const double> b,
                 int width, int height, const UiqiOptions& opts) {
  HEBS_REQUIRE(width >= 2 && height >= 2, "UIQI needs a 2-D raster");
  const PairStats stats(a, b, width, height);
  return uiqi_from_stats(stats, width, height, opts);
}

}  // namespace

void require_uiqi_window(const UiqiOptions& opts, int width, int height) {
  HEBS_REQUIRE(opts.block_size >= 2, "UIQI block size must be >= 2");
  HEBS_REQUIRE(opts.stride >= 1, "UIQI stride must be >= 1");
  HEBS_REQUIRE(width >= opts.block_size && height >= opts.block_size,
               "image smaller than the UIQI window");
}

double uiqi_from_stats(const PairStats& stats, int width, int height,
                       const UiqiOptions& opts) {
  require_uiqi_window(opts, width, height);
  double acc = 0.0;
  std::size_t windows = 0;
  for (int y = 0; y + opts.block_size <= height; y += opts.stride) {
    for (int x = 0; x + opts.block_size <= width; x += opts.stride) {
      const WindowMoments m = stats.window(x, y, opts.block_size);
      const double mean_prod = m.mean_a * m.mean_b;
      const double denom1 = m.mean_a * m.mean_a + m.mean_b * m.mean_b;
      const double denom2 = m.var_a + m.var_b;
      double q = 1.0;  // both denominators zero: identical flat windows
      if (denom1 * denom2 > 0.0) {
        q = 4.0 * m.cov_ab * mean_prod / (denom1 * denom2);
      } else if (denom1 > 0.0) {
        // Zero variance in both images: quality driven by mean closeness
        // (matches the reference implementation's special case).
        q = 2.0 * mean_prod / denom1;
      }
      acc += q;
      ++windows;
    }
  }
  return windows > 0 ? acc / static_cast<double>(windows) : 1.0;
}

double uiqi(const hebs::image::GrayImage& a, const hebs::image::GrayImage& b,
            const UiqiOptions& opts) {
  HEBS_REQUIRE(!a.empty() && !b.empty(), "UIQI of empty image");
  HEBS_REQUIRE(a.width() == b.width() && a.height() == b.height(),
               "UIQI needs equal-size images");
  const std::vector<double> va = widen_u8(a.pixels());
  const std::vector<double> vb = widen_u8(b.pixels());
  return uiqi_impl(va, vb, a.width(), a.height(), opts);
}

double uiqi(const hebs::image::FloatImage& a,
            const hebs::image::FloatImage& b, const UiqiOptions& opts) {
  HEBS_REQUIRE(!a.empty() && !b.empty(), "UIQI of empty image");
  HEBS_REQUIRE(a.width() == b.width() && a.height() == b.height(),
               "UIQI needs equal-size images");
  return uiqi_impl(a.values(), b.values(), a.width(), a.height(), opts);
}

}  // namespace hebs::quality
