#include "quality/hvs.h"

#include <algorithm>
#include <cmath>
#include <span>

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

double hvs_front(double y, const HvsOptions& opts) noexcept {
  return opts.lightness_mapping ? lightness(y) : util::clamp01(y);
}

void hvs_front_row(const double* src, std::size_t n, const HvsOptions& opts,
                   double* dst) noexcept {
  if (opts.lightness_mapping) {
    for (std::size_t i = 0; i < n; ++i) dst[i] = lightness(src[i]);
  } else {
    for (std::size_t i = 0; i < n; ++i) dst[i] = util::clamp01(src[i]);
  }
}

hebs::util::PoolVector<double> csf_taps(const HvsOptions& opts) {
  hebs::util::PoolVector<double> taps;
  const double sigma = opts.csf_sigma;
  if (!(sigma > 0.0)) return taps;
  const int radius = std::max(1, static_cast<int>(std::ceil(3.0 * sigma)));
  taps.resize(static_cast<std::size_t>(2 * radius) + 1);
  double norm = 0.0;
  for (int k = -radius; k <= radius; ++k) {
    const double v = std::exp(-(k * k) / (2.0 * sigma * sigma));
    taps[static_cast<std::size_t>(k + radius)] = v;
    norm += v;
  }
  for (auto& v : taps) v /= norm;
  return taps;
}

namespace {

// Separable Gaussian blur on a double raster with clamped borders.
// Row and column passes run through the dispatched blur kernels; the
// column pass gets its 2r+1 border-clamped row pointers per output row
// (the kernel's contract), exactly as the row-streamed evaluator hands
// it its line buffers, so both produce the same raster bit for bit on
// every backend.
hebs::image::FloatImage gaussian_blur(const hebs::image::FloatImage& in,
                                      std::span<const double> taps) {
  const int w = in.width();
  const int h = in.height();
  const int radius = static_cast<int>(taps.size() / 2);
  const auto& kernels = hebs::kernels::active();
  hebs::image::FloatImage tmp(w, h);
  const double* src = in.values().data();
  double* mid = tmp.values().data();
  for (int y = 0; y < h; ++y) {
    kernels.blur_row_f64(src + static_cast<std::size_t>(y) * w,
                         mid + static_cast<std::size_t>(y) * w, w,
                         taps.data(), radius);
  }
  hebs::image::FloatImage out(w, h);
  double* dst = out.values().data();
  hebs::util::PoolVector<const double*> rows(taps.size());
  for (int y = 0; y < h; ++y) {
    for (int k = 0; k <= 2 * radius; ++k) {
      rows[static_cast<std::size_t>(k)] =
          mid + static_cast<std::size_t>(std::clamp(y + k - radius, 0, h - 1)) *
                    w;
    }
    kernels.blur_col_f64(rows.data(), w, taps.data(), radius,
                         dst + static_cast<std::size_t>(y) * w);
  }
  return out;
}

}  // namespace

hebs::image::FloatImage hvs_transform(const hebs::image::FloatImage& lum,
                                      const HvsOptions& opts) {
  hebs::image::FloatImage out(lum.width(), lum.height());
  hvs_front_row(lum.values().data(), lum.size(), opts, out.values().data());
  const auto taps = csf_taps(opts);
  if (!taps.empty()) out = gaussian_blur(out, taps);
  return out;
}

hebs::image::FloatImage hvs_transform(const hebs::image::GrayImage& img,
                                      const HvsOptions& opts) {
  return hvs_transform(hebs::image::FloatImage::from_gray(img), opts);
}

}  // namespace hebs::quality
