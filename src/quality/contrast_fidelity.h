// Contrast fidelity — the distortion measure of Cheng & Pedram (ref [5]).
//
// CBCS judges a backlight-scaled image by how much of the original's
// *contrast* survives, deliberately forgiving uniform brightness shifts
// (the eye adapts to absolute level but notices lost detail).  We
// reconstruct the measure as windowed contrast preservation:
//
//   fidelity = Σ_w min(σ'_w, σ_w) / Σ_w σ_w   ∈ [0, 1]
//
// where σ_w / σ'_w are the per-window standard deviations of the
// original and displayed images.  Contrast that is attenuated (clipped
// band ends, compressed slope) loses fidelity; contrast that is
// amplified does not gain beyond 1, matching [5]'s "preserved pixels"
// intuition.  The paper (§2) argues this overestimates quality — it is
// blind to brightness errors — which is exactly what the metric-ablation
// benchmark demonstrates against UIQI+HVS.
#pragma once

#include "image/image.h"

namespace hebs::quality {

/// Options for the contrast-fidelity computation.
struct ContrastFidelityOptions {
  int block_size = 8;
  int stride = 4;

  bool operator==(const ContrastFidelityOptions&) const = default;
};

/// Contrast fidelity in [0, 1]; 1 when every window's contrast is fully
/// preserved (or amplified).
double contrast_fidelity(const hebs::image::GrayImage& original,
                         const hebs::image::GrayImage& displayed,
                         const ContrastFidelityOptions& opts = {});

/// Same over normalized-luminance rasters.
double contrast_fidelity(const hebs::image::FloatImage& original,
                         const hebs::image::FloatImage& displayed,
                         const ContrastFidelityOptions& opts = {});

/// Distortion percentage (1 - fidelity) * 100.
double contrast_distortion_percent(const hebs::image::GrayImage& original,
                                   const hebs::image::GrayImage& displayed,
                                   const ContrastFidelityOptions& opts = {});

}  // namespace hebs::quality
