// Sliding-window statistics via summed-area tables.
//
// Both UIQI and SSIM need per-window means, variances and covariance over
// every BxB window of an image pair.  Integral images make each window
// O(1), which is what makes the "distortion metric in the display
// pipeline" claim of the paper computationally plausible.
#pragma once

#include <cstddef>
#include <vector>

#include "image/image.h"
#include "util/pool.h"

namespace hebs::quality {

/// Summed-area table over a double-valued raster.
class IntegralImage {
 public:
  /// Builds the integral image of `values` (row-major, w x h).
  IntegralImage(std::span<const double> values, int width, int height);

  /// Integral image of the pointwise squares of `values`, accumulated
  /// directly (no squared temporary raster).
  static IntegralImage of_squares(std::span<const double> values, int width,
                                  int height);

  /// Integral image of the pointwise products a[i]*b[i].
  static IntegralImage of_products(std::span<const double> a,
                                   std::span<const double> b, int width,
                                   int height);

  /// Sum over the inclusive rectangle [x0, x1] x [y0, y1].
  double rect_sum(int x0, int y0, int x1, int y1) const noexcept;

  int width() const noexcept { return width_; }
  int height() const noexcept { return height_; }

 private:
  IntegralImage(int width, int height) : width_(width), height_(height) {}

  // PairStats builds its b-side tables in one fused sweep through the
  // kernel layer and needs to fill table_ directly.
  friend class PairStats;

  int width_;
  int height_;
  // (width+1) x (height+1) with a zero top row / left column.
  // Pool-backed: PairStats builds five of these per evaluation.
  hebs::util::PoolVector<double> table_;
};

/// First and second moments of an image pair over one window.
struct WindowMoments {
  double mean_a = 0.0;
  double mean_b = 0.0;
  double var_a = 0.0;
  double var_b = 0.0;
  double cov_ab = 0.0;
};

/// Precomputed integral images for a pair of equally sized rasters,
/// exposing O(1) window moments.
class PairStats {
 public:
  PairStats(std::span<const double> a, std::span<const double> b, int width,
            int height);

  /// Moments over the window with top-left (x, y) and side `block`.
  /// The window must lie fully inside the raster.
  WindowMoments window(int x, int y, int block) const noexcept;

  int width() const noexcept { return sum_b_.width(); }
  int height() const noexcept { return sum_b_.height(); }

 private:
  IntegralImage sum_a_;
  IntegralImage sum_aa_;
  IntegralImage sum_b_;
  IntegralImage sum_bb_;
  IntegralImage sum_ab_;
};

}  // namespace hebs::quality
