// Human-visual-system model for distortion measurement.
//
// The paper argues (§2, §3) that a correct distortion measure "should
// appropriately combine the mathematical difference between pixel values
// ... and the characteristics of the human visual system", citing the
// transform-then-compare approach of ref [6] with an HVS model from
// Pratt [9].  This module implements the standard two-stage front end:
//
//  1. Luminance -> lightness nonlinearity: CIE L* (cube-root law), which
//     models Weber-Fechner brightness compression — equal luminance
//     errors in the dark are more visible than in the bright.
//  2. An optional Gaussian low-pass prefilter approximating the eye's
//     contrast sensitivity roll-off at high spatial frequencies.
//
// hvs_transform materializes the whole transformed raster.  The UIQI
// evaluator instead streams the same two stages row by row through line
// buffers (quality/uiqi_stream.h); both run the same kernels in the
// same order, so the values are bit-identical.
//
// Quality metrics are then evaluated on the transformed rasters.
#pragma once

#include "image/image.h"
#include "util/pool.h"

namespace hebs::quality {

/// Parameters of the HVS front end.
struct HvsOptions {
  /// Gaussian prefilter sigma in pixels; 0 disables the filter.
  double csf_sigma = 1.0;
  /// When false, the L* lightness mapping is skipped.
  bool lightness_mapping = true;
};

/// Applies the HVS front end to a normalized-luminance raster; the result
/// is a normalized "perceived lightness" raster in [0, 1].
hebs::image::FloatImage hvs_transform(const hebs::image::FloatImage& lum,
                                      const HvsOptions& opts = {});

/// Convenience overload for 8-bit images (treated as normalized
/// luminance X/255).
hebs::image::FloatImage hvs_transform(const hebs::image::GrayImage& img,
                                      const HvsOptions& opts = {});

/// The front end's per-value stage: L* lightness of a normalized
/// luminance, or a plain clamp to [0, 1] when lightness mapping is off.
/// Pure, so a per-level table of it equals the per-pixel evaluation.
double hvs_front(double y, const HvsOptions& opts) noexcept;

/// hvs_front over n values: dst[i] = hvs_front(src[i], opts).
void hvs_front_row(const double* src, std::size_t n, const HvsOptions& opts,
                   double* dst) noexcept;

/// Normalized taps of the CSF prefilter: 2r+1 entries with
/// r = max(1, ceil(3 sigma)); empty when csf_sigma <= 0 (no blur).
hebs::util::PoolVector<double> csf_taps(const HvsOptions& opts);

/// CIE L* lightness of a normalized luminance value, scaled to [0, 1].
double lightness(double y) noexcept;

}  // namespace hebs::quality
