// Color backlight scaling.
//
// §2 of the paper: "For color LCD's, different filters are used to
// generate shades of three main colors ... color pixels are generated by
// mixing three sub-pixels".  The backlight is shared by all sub-pixels,
// so the scaling factor β is global; only the per-pixel application of
// the transform is a color question, and two answers are supported:
//
//   * kSharedCurve — the paper's construction: the shared monotone
//     curve ψ applies to each sub-pixel channel independently.  Channel
//     ordering (and therefore hue ordering) is preserved, but because ψ
//     is nonlinear the R:G:B ratios inside one pixel shift — bounded
//     hue drift, measured by chromaticity_error.
//   * kLumaRatio — the HSI-style chroma-preserving mode (Anbarjafari
//     2015): the curve scales the pixel's BT.601 luma, and the output
//     channels reapply the original channel-to-luma ratios.  Hue is
//     exact up to 8-bit rounding wherever no channel clips at 255;
//     pixels with zero luma have no defined ratio and fall back to the
//     shared-curve application.
//
// Both modes run the HEBS optimization on luma (the channel the human
// contrast response follows and the histogram the paper's pipeline
// consumes); β and the decision pipeline are identical — only the
// post-decision raster application differs.
#pragma once

#include <string_view>

#include "core/hebs.h"
#include "image/image.h"

namespace hebs::core {

/// How the chosen operating point applies to the three sub-pixel
/// channels (the decision itself is always made on luma).
enum class ColorMode {
  /// Shared curve per channel (§2 of the paper).  Monotone per channel;
  /// hue drift bounded by the curve's nonlinearity.
  kSharedCurve,
  /// Chroma-preserving: scale luma through the curve, reapply the
  /// pixel's channel ratios (clamped at the backlight ceiling β).  Hue
  /// exact up to rounding unless a channel saturates; zero-luma pixels
  /// use the shared curve.
  kLumaRatio,
};

/// Parses a mode name; returns false (leaving *out untouched) for
/// anything but the two registered names.
bool parse_color_mode(std::string_view name, ColorMode* out) noexcept;

/// Result of color backlight scaling.
struct ColorHebsResult {
  /// The grayscale HEBS result computed on the luma channel.
  HebsResult luma;
  /// The color image as displayed (per-channel ψ application).
  hebs::image::RgbImage transformed;
  /// Distortion measured on luma (the paper's measure domain).
  double distortion_percent = 0.0;
  /// Mean absolute chromaticity change introduced by the raster
  /// application (curve nonlinearity and clipping against β for the
  /// shared curve; saturation rounding for luma-ratio), in normalized
  /// units; 0 only for affine non-clipping transforms.
  double hue_error = 0.0;
  /// Power saving, using the luma histogram for the panel model.
  double saving_percent = 0.0;
};

/// Runs the exact-search HEBS mode on the luma of `image`, then applies
/// the chosen operating point to all three channels in `mode`.
ColorHebsResult color_hebs_exact(
    const hebs::image::RgbImage& image, double d_max_percent,
    const HebsOptions& opts,
    const hebs::power::LcdSubsystemPower& power_model,
    ColorMode mode = ColorMode::kSharedCurve);

/// Applies an operating point to a color image in `mode`.
/// kSharedCurve: each channel c is displayed at luminance
/// min(β, ψ(c)), then quantized to 8 bits (through the dispatched
/// lut_apply_rgb8 kernel).  kLumaRatio: each pixel's luma y maps to
/// ψ(y) and the channels scale by the common ratio 255·ψ(y)/y
/// (rounded, clamped at the backlight's physical ceiling β·255 — the
/// same ceiling displayed_levels imposes on the shared curve; y == 0
/// falls back to the shared curve).
/// `luma`, when non-null, must equal image.to_luma() — every caller
/// that already extracted the luma for the decision passes it here so
/// kLumaRatio skips re-running the extraction kernel (bit-identical
/// either way; ignored by kSharedCurve).
hebs::image::RgbImage apply_to_color(
    const hebs::image::RgbImage& image, const OperatingPoint& point,
    ColorMode mode = ColorMode::kSharedCurve,
    const hebs::image::GrayImage* luma = nullptr);

/// One rendered color frame: the displayed raster plus its measured
/// chromaticity drift.
struct ColorRendering {
  hebs::image::RgbImage displayed;
  double hue_error = 0.0;
};

/// The complete post-decision color stage: applies `point` to `image`
/// in `mode` (reusing the decision-side `luma` raster, which must
/// equal image.to_luma()) and measures the rendering's chromaticity
/// drift.  The single definition both the engine's color paths and the
/// facade's serial paths run, so their renderings cannot diverge.
ColorRendering render_color(const hebs::image::RgbImage& image,
                            const hebs::image::GrayImage& luma,
                            const OperatingPoint& point, ColorMode mode);

/// Mean absolute difference between the channel-ratio structure of two
/// color images (a cheap hue-shift witness): for each pixel the
/// channels are normalized by their sum and compared.  0 for images
/// with identical chromaticity.  Pixels that are black (channel sum
/// < 1) in either image carry no chroma and are skipped; an image pair
/// with no chromatic pixels at all reports 0.
double chromaticity_error(const hebs::image::RgbImage& a,
                          const hebs::image::RgbImage& b);

}  // namespace hebs::core
