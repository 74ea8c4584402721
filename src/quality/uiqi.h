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

  bool operator==(const UiqiOptions&) const = default;
};

/// Mean UIQI over all windows. Images must be non-empty and equal sized,
/// and at least block_size on each side.
double uiqi(const hebs::image::GrayImage& a, const hebs::image::GrayImage& b,
            const UiqiOptions& opts = {});

/// UIQI over normalized-luminance rasters (used after HVS mapping and for
/// displayed-luminance comparisons).
double uiqi(const hebs::image::FloatImage& a,
            const hebs::image::FloatImage& b, const UiqiOptions& opts = {});

/// Throws InvalidArgument unless `opts` describes a window grid on a
/// width x height raster: block_size >= 2, stride >= 1 and the raster
/// at least one block on each side.
void require_uiqi_window(const UiqiOptions& opts, int width, int height);

/// Mean UIQI from already-built window statistics: the generic
/// per-window loop every two-image overload funnels through.  The
/// evaluator's row-streamed pass (quality/uiqi_stream.h) reproduces it
/// bit for bit.
double uiqi_from_stats(const PairStats& stats, int width, int height,
                       const UiqiOptions& opts = {});

}  // namespace hebs::quality
