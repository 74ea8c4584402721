#include "quality/hvs.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "kernels/kernels.h"
#include "util/mathutil.h"
#include "util/pool.h"

namespace hebs::quality {

double lightness(double y) noexcept {
  y = util::clamp01(y);
  // CIE 1976 L*: linear below the (6/29)^3 knee, cube root above.
  constexpr double kKnee = 216.0 / 24389.0;   // (6/29)^3
  constexpr double kSlope = 24389.0 / 27.0;   // (29/3)^3
  const double l =
      y > kKnee ? 116.0 * std::cbrt(y) - 16.0 : kSlope * y;
  return l / 100.0;
}

namespace {

// Separable Gaussian blur on a double raster with clamped borders.
// Row and column passes run through the dispatched blur kernels; the
// kernel contract (taps accumulated in k order, interior/border split
// with identical arithmetic) keeps the raster bit-identical to the
// original nested loops on every backend.
hebs::image::FloatImage gaussian_blur(const hebs::image::FloatImage& in,
                                      double sigma) {
  const int w = in.width();
  const int h = in.height();
  const int radius = std::max(1, static_cast<int>(std::ceil(3.0 * sigma)));
  hebs::util::PoolVector<double> kernel(static_cast<std::size_t>(2 * radius) +
                                        1);
  double norm = 0.0;
  for (int k = -radius; k <= radius; ++k) {
    const double v = std::exp(-(k * k) / (2.0 * sigma * sigma));
    kernel[static_cast<std::size_t>(k + radius)] = v;
    norm += v;
  }
  for (auto& v : kernel) v /= norm;

  const auto& kernels = hebs::kernels::active();
  hebs::image::FloatImage tmp(w, h);
  const double* src = in.values().data();
  double* mid = tmp.values().data();
  for (int y = 0; y < h; ++y) {
    kernels.blur_row_f64(src + static_cast<std::size_t>(y) * w,
                         mid + static_cast<std::size_t>(y) * w, w,
                         kernel.data(), radius);
  }
  hebs::image::FloatImage out(w, h);
  double* dst = out.values().data();
  for (int y = 0; y < h; ++y) {
    kernels.blur_col_f64(mid, w, h, y, kernel.data(), radius,
                         dst + static_cast<std::size_t>(y) * w);
  }
  return out;
}

}  // namespace

hebs::image::FloatImage hvs_transform(const hebs::image::FloatImage& lum,
                                      const HvsOptions& opts) {
  hebs::image::FloatImage out(lum.width(), lum.height());
  const auto src = lum.values();
  auto dst = out.values();
  for (std::size_t i = 0; i < src.size(); ++i) {
    dst[i] = opts.lightness_mapping ? lightness(src[i])
                                    : util::clamp01(src[i]);
  }
  if (opts.csf_sigma > 0.0) {
    out = gaussian_blur(out, opts.csf_sigma);
  }
  return out;
}

hebs::image::FloatImage hvs_transform(const hebs::image::GrayImage& img,
                                      const HvsOptions& opts) {
  return hvs_transform(hebs::image::FloatImage::from_gray(img), opts);
}

hebs::image::FloatImage hvs_transform_mapped(
    const hebs::image::GrayImage& img,
    const hebs::transform::FloatLut& levels, const HvsOptions& opts) {
  // Lightness is a pure function of the level's luminance: evaluate it
  // per level, then expand — identical values, 256 evaluations instead
  // of one per pixel.
  const hebs::transform::FloatLut mapped =
      levels.map([&opts](double y) {
        return opts.lightness_mapping ? lightness(y) : util::clamp01(y);
      });
  hebs::image::FloatImage out = mapped.apply(img);
  if (opts.csf_sigma > 0.0) {
    out = gaussian_blur(out, opts.csf_sigma);
  }
  return out;
}

hebs::image::FloatImage hvs_transform_mapped(
    const hebs::image::GrayImage16& img,
    const hebs::transform::FloatLut& levels, const HvsOptions& opts) {
  const hebs::transform::FloatLut mapped =
      levels.map([&opts](double y) {
        return opts.lightness_mapping ? lightness(y) : util::clamp01(y);
      });
  hebs::image::FloatImage out = mapped.apply16(img);
  if (opts.csf_sigma > 0.0) {
    out = gaussian_blur(out, opts.csf_sigma);
  }
  return out;
}

}  // namespace hebs::quality
