// Universal Image Quality Index (Wang & Bovik, IEEE SPL 2002).
//
// The paper adopts UIQI as its distortion measure (§5.1c, ref [8]).
// Q decomposes image similarity into correlation, luminance closeness and
// contrast closeness:
//     Q = [σ_ab / (σ_a σ_b)] * [2 ā b̄ / (ā² + b̄²)] * [2 σ_a σ_b / (σ_a² + σ_b²)]
// computed on a sliding window and averaged.  Q ∈ [-1, 1], Q = 1 iff the
// images are identical (affine-sensitive, unlike plain correlation).
#pragma once

#include "image/image.h"
#include "quality/window_stats.h"

namespace hebs::quality {

/// Options for the UIQI computation.
struct UiqiOptions {
  int block_size = 8;  ///< window side; the reference implementation uses 8
  int stride = 1;      ///< window step; 1 reproduces the reference exactly
};

/// Mean UIQI over all windows. Images must be non-empty and equal sized,
/// and at least block_size on each side.
double uiqi(const hebs::image::GrayImage& a, const hebs::image::GrayImage& b,
            const UiqiOptions& opts = {});

/// UIQI over normalized-luminance rasters (used after HVS mapping and for
/// displayed-luminance comparisons).
double uiqi(const hebs::image::FloatImage& a,
            const hebs::image::FloatImage& b, const UiqiOptions& opts = {});

/// Mean UIQI from already-built window statistics.  Every other overload
/// funnels through this, so callers that cache the reference-side
/// integral images (PairStats built from an ImageStats) get bit-identical
/// values to the plain two-image entry points.
///
/// `ref` optionally supplies cached reference-side per-window moments
/// (matching block size and window grid, stride 1): the evaluation then
/// runs row-wise through the kernel layer's q-row primitive, with the
/// final accumulation kept serial in row-major order — the result is
/// bit-identical with or without the cache, on every backend.
double uiqi_from_stats(const PairStats& stats, int width, int height,
                       const UiqiOptions& opts = {},
                       const RefWindowMoments* ref = nullptr);

}  // namespace hebs::quality
