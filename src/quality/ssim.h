// Structural Similarity Index (Wang, Bovik, Sheikh, Simoncelli 2004).
//
// The paper cites SSIM (ref [6]) as the direction for "future work
// [where] alternative distortion measures ... will be evaluated"; the
// metric-ablation benchmark exercises exactly that.  SSIM generalizes
// UIQI by adding the stabilizing constants C1, C2:
//   SSIM = (2 ā b̄ + C1)(2 σ_ab + C2) / ((ā²+b̄²+C1)(σ_a²+σ_b²+C2))
// We compute it over a uniform sliding window (the original uses a
// Gaussian window; the uniform variant is the common fast approximation
// and preserves all orderings we rely on).
#pragma once

#include "image/image.h"

namespace hebs::quality {

/// Options for the SSIM computation.
struct SsimOptions {
  int block_size = 8;
  int stride = 1;
  double k1 = 0.01;  ///< luminance stabilization constant factor
  double k2 = 0.03;  ///< contrast stabilization constant factor

  bool operator==(const SsimOptions&) const = default;
};

/// Mean SSIM over all windows; images must be equal sized and at least
/// block_size on each side. Result in [-1, 1], 1 iff identical.
double ssim(const hebs::image::GrayImage& a, const hebs::image::GrayImage& b,
            const SsimOptions& opts = {});

/// SSIM over normalized-luminance rasters (dynamic range L = 1).
double ssim(const hebs::image::FloatImage& a,
            const hebs::image::FloatImage& b, const SsimOptions& opts = {});

}  // namespace hebs::quality
