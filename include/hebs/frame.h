// Request/response types of the stable HEBS API.
//
// A FrameRequest names an input frame (as a zero-copy ImageView) and a
// distortion budget; a FrameResult is everything the configured policy
// decided and measured for it — the operating point (transfer curve and
// backlight factor), the displayed raster, and the distortion/power
// accounting.  These types are self-contained plain data: they expose
// no internal library types, so the facade headers install cleanly and
// the internals can keep evolving behind them.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "hebs/image_view.h"
#include "hebs/status.h"

namespace hebs {

/// A breakpoint of a piecewise-linear transfer curve; x and y are
/// normalized pixel/luminance values in [0, 1].
struct CurvePoint {
  double x = 0.0;
  double y = 0.0;
  bool operator==(const CurvePoint&) const = default;
};

/// Per-component power draw of one displayed frame.
struct PowerReport {
  double ccfl_watts = 0.0;   ///< backlight lamp + inverter
  double panel_watts = 0.0;  ///< TFT panel and driver
  double total_watts() const noexcept { return ccfl_watts + panel_watts; }
  bool operator==(const PowerReport&) const = default;
};

/// An owned 8-bit grayscale raster returned by the facade (the caller
/// may view() it to feed it back in without copying).
class OwnedImage {
 public:
  OwnedImage() = default;
  OwnedImage(int width, int height, std::vector<std::uint8_t> pixels)
      : width_(width), height_(height), pixels_(std::move(pixels)) {}

  int width() const noexcept { return width_; }
  int height() const noexcept { return height_; }
  bool empty() const noexcept { return pixels_.empty(); }
  const std::vector<std::uint8_t>& pixels() const noexcept { return pixels_; }

  /// Zero-copy gray8 view of this raster (valid while *this lives).
  ImageView view() const noexcept {
    return ImageView::gray8(pixels_.data(), width_, height_);
  }

  bool operator==(const OwnedImage&) const = default;

 private:
  int width_ = 0;
  int height_ = 0;
  std::vector<std::uint8_t> pixels_;
};

/// An owned deep-pixel grayscale raster returned by the facade's
/// 10/16-bit path (the caller may view() it to feed it back in without
/// copying).  `levels` is the representable level count (1024 for
/// 10-bit, 65536 for 16-bit); every sample is < levels.
class OwnedImage16 {
 public:
  OwnedImage16() = default;
  OwnedImage16(int width, int height, int levels,
               std::vector<std::uint16_t> pixels)
      : width_(width),
        height_(height),
        levels_(levels),
        pixels_(std::move(pixels)) {}

  int width() const noexcept { return width_; }
  int height() const noexcept { return height_; }
  int levels() const noexcept { return levels_; }
  bool empty() const noexcept { return pixels_.empty(); }
  /// Native-order uint16 samples, row-major, width * height of them.
  const std::vector<std::uint16_t>& pixels() const noexcept {
    return pixels_;
  }

  /// Zero-copy gray16 view of this raster (valid while *this lives).
  ImageView view() const noexcept {
    return ImageView::gray16(pixels_.data(), width_, height_);
  }

  bool operator==(const OwnedImage16&) const = default;

 private:
  int width_ = 0;
  int height_ = 0;
  int levels_ = 0;
  std::vector<std::uint16_t> pixels_;
};

/// An owned interleaved-RGB8 raster returned by the facade's color
/// path (the caller may view() it to feed it back in without copying).
class OwnedRgbImage {
 public:
  OwnedRgbImage() = default;
  OwnedRgbImage(int width, int height, std::vector<std::uint8_t> pixels)
      : width_(width), height_(height), pixels_(std::move(pixels)) {}

  int width() const noexcept { return width_; }
  int height() const noexcept { return height_; }
  bool empty() const noexcept { return pixels_.empty(); }
  /// Interleaved R,G,B bytes, row-major, 3 * width * height of them.
  const std::vector<std::uint8_t>& pixels() const noexcept { return pixels_; }

  /// Zero-copy rgb8 view of this raster (valid while *this lives).
  ImageView view() const noexcept {
    return ImageView::rgb8(pixels_.data(), width_, height_);
  }

  bool operator==(const OwnedRgbImage&) const = default;

 private:
  int width_ = 0;
  int height_ = 0;
  std::vector<std::uint8_t> pixels_;
};

/// One frame to process.
struct FrameRequest {
  /// The input pixels; gray8 or interleaved rgb8 (BT.601 luma is
  /// extracted for RGB, bit-identical to a pre-converted gray frame).
  /// Deep sessions (SessionConfig::bit_depth 10/16) take gray16 views
  /// instead; the view format must match the session depth.
  ImageView image;
  /// Maximum tolerable distortion, percent in [0, 100].
  double d_max_percent = 10.0;
  /// When > 0: skip the budget search and run the HEBS pipeline at
  /// this fixed dynamic range, in [2, max_pixel - g_min_floor] where
  /// max_pixel is 2^bit_depth - 1 (255 for the default 8-bit session).
  /// Supported by the hebs-* policies only (on deep sessions, by
  /// hebs-exact only).
  int fixed_range = 0;
  /// Request a color rendering: the result additionally carries the
  /// transformed RGB raster (displayed_rgb, applied per the session's
  /// color_mode) and its hue_error.  Requires an rgb8 view; a gray8
  /// view with color_output set is rejected with kInvalidOption.
  bool color_output = false;
};

/// Optional per-frame observability breakdown (see DESIGN.md §13).
/// Filled by Session::process — the single-frame path, where the
/// counter deltas around the frame attribute exactly; batch and video
/// results leave it with `collected == false` (their frames run
/// concurrently, so per-frame attribution of the process-global
/// counters would be meaningless).  Counter fields are deltas of the
/// process-global registry, exact when no other session processes
/// concurrently.
struct FrameBreakdown {
  bool collected = false;
  /// Wall time of the whole decision + render, milliseconds.
  double decide_ms = 0.0;
  /// Exact distortion probes the range search evaluated.
  std::uint64_t range_probes = 0;
  /// β candidate evaluations inside the β refinement.
  std::uint64_t beta_probes = 0;
  /// refine_beta probe-memo hits/misses for this frame.
  std::uint64_t eval_memo_hits = 0;
  std::uint64_t eval_memo_misses = 0;
  /// Per-range result-memo hits/misses for this frame.
  std::uint64_t range_memo_hits = 0;
  std::uint64_t range_memo_misses = 0;
  bool operator==(const FrameBreakdown&) const = default;
};

/// Everything the session decided and measured for one frame.
struct FrameResult {
  /// Backlight scaling factor β in (0, 1].
  double beta = 1.0;
  /// Target range [g_min, g_max] the transform compresses into.
  /// Meaningful for frame/batch results of the hebs-* policies; the
  /// baselines and video results (whose flicker-controlled operating
  /// point is not range-targeted) leave the full-range defaults.
  int g_min = 0;
  int g_max = 255;
  /// Deployed piecewise-linear transfer Λ (what the driver realizes).
  std::vector<CurvePoint> lambda;
  /// Exact equalizing transform Φ before coarsening (hebs-* policies;
  /// empty for the baselines, which have no GHE stage).
  std::vector<CurvePoint> phi;
  /// Mean squared error of Λ against Φ (the PLC objective).
  double plc_mse = 0.0;
  /// Measured distortion of the displayed frame, percent.
  double distortion_percent = 0.0;
  /// Power saving versus the unmodified frame at full backlight.
  double saving_percent = 0.0;
  /// Power at the chosen operating point / at the reference point.
  PowerReport power;
  PowerReport reference_power;
  /// The displayed frame ψ(F), quantized to 8 bits (8-bit sessions;
  /// empty on the deep-pixel path).
  OwnedImage displayed;
  /// Deep-pixel sessions (bit_depth 10/16): the displayed frame
  /// quantized on the session's own level lattice.  Empty for 8-bit
  /// sessions.
  OwnedImage16 displayed16;
  /// Color path only (rgb8 input processed with color output): the
  /// displayed RGB raster, transformed per the session's color mode
  /// ("shared-curve": the shared ψ per sub-pixel channel, §2 of the
  /// paper; "luma-ratio": chroma-preserving luma scaling).  Empty for
  /// grayscale results.
  OwnedRgbImage displayed_rgb;
  /// Color path only: mean absolute chromaticity drift of
  /// displayed_rgb against the input (normalized channel-ratio L1;
  /// the MetricRegistry's "hue-error").  0 for grayscale results.
  double hue_error = 0.0;
  /// Per-frame observability breakdown (single-frame process() only).
  FrameBreakdown breakdown;
  /// Fault containment (DESIGN.md §14; process, batch and video frames
  /// under every policy): true when this frame's
  /// pipeline work failed or blew the session's frame deadline and the
  /// result is the identity fallback (β = 1, identity Λ, the unmodified
  /// frame displayed — zero distortion, zero saving) rather than a
  /// computed decision.  The call as a whole still succeeds; `status`
  /// says why this frame degraded.  Frames after a degraded one are
  /// unaffected (bit-identical to a run without the fault).
  bool degraded = false;
  /// kOk for a computed frame; for a degraded frame, the containment
  /// cause — kIoError, kDeadlineExceeded, or kInternal — with a message
  /// naming the stage, frame index and (for injected faults) the fault
  /// point.
  Status status;
};

/// One frame of a video stream: the flicker-controlled decision plus
/// the per-frame result at the applied backlight factor.
struct VideoFrameResult {
  /// β the per-frame optimization asked for.
  double raw_beta = 1.0;
  /// β actually applied after flicker control.
  double beta = 1.0;
  /// Whether this frame was treated as a scene cut.
  bool scene_cut = false;
  /// Result at the applied operating point.  g_min/g_max, phi and
  /// plc_mse keep their defaults here: after flicker control the
  /// applied transform is re-derived for the rate-limited β and no
  /// longer corresponds to one searched target range.
  FrameResult frame;
};

}  // namespace hebs
