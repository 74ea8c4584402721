// Multi-scale SSIM — the stronger variant of the paper's future-work
// metric family (Wang, Simoncelli & Bovik, 2003).
//
// Single-scale SSIM is viewing-distance dependent; MS-SSIM evaluates
// contrast/structure terms on a dyadic pyramid and combines them with
// the standard per-scale exponents, approximating quality judgments
// across viewing conditions — relevant for handhelds, whose viewing
// distance varies far more than a desktop monitor's.
#pragma once

#include "image/image.h"
#include "quality/ssim.h"

namespace hebs::quality {

/// Options for MS-SSIM.
struct MsSsimOptions {
  /// Number of dyadic scales (the standard uses 5; small images clamp).
  int scales = 5;
  /// Per-scale SSIM window options.
  SsimOptions ssim;

  bool operator==(const MsSsimOptions&) const = default;
};

/// MS-SSIM score in [-1, 1]; 1 iff the images are identical.  Images
/// must allow at least one scale (>= block_size after the downsampling
/// chain — scales are clamped automatically for small inputs).
double ms_ssim(const hebs::image::GrayImage& a,
               const hebs::image::GrayImage& b,
               const MsSsimOptions& opts = {});

}  // namespace hebs::quality
