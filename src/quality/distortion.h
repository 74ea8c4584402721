// Unified distortion front end.
//
// Everything downstream (the distortion characteristic curve, the HEBS
// policy, the baselines, Table 1 and Figures 7/8) quantifies image
// distortion as a percentage in [0, 100].  This header defines the
// conversion from each underlying quality metric to that percentage and
// gives all modules a single switchable entry point, which also powers
// the metric-ablation benchmark (the paper's stated future work).
#pragma once

#include <optional>

#include "image/image.h"
#include "quality/contrast_fidelity.h"
#include "quality/hvs.h"
#include "quality/ms_ssim.h"
#include "quality/ssim.h"
#include "quality/uiqi.h"
#include "quality/uiqi_stream.h"
#include "transform/lut.h"
#include "util/pool.h"

namespace hebs::quality {

/// Selectable distortion measures.
enum class Metric {
  kUiqiHvs,           ///< paper default: UIQI on HVS-transformed rasters
  kUiqi,              ///< plain UIQI on pixel values
  kSsim,              ///< SSIM (ref [6]; the paper's future-work metric)
  kSsimHvs,           ///< SSIM on HVS-transformed rasters
  kRmse,              ///< root mean squared pixel error, scaled to percent
  kContrastFidelity,  ///< (1 - contrast fidelity), the CBCS measure [5]
  kMsSsim,            ///< multi-scale SSIM (viewing-distance robust)
};

/// Human-readable metric name (for tables and CSV headers).
const char* metric_name(Metric m) noexcept;

/// Options for distortion evaluation.
struct DistortionOptions {
  Metric metric = Metric::kUiqiHvs;
  UiqiOptions uiqi;
  SsimOptions ssim;
  HvsOptions hvs;
  ContrastFidelityOptions contrast;
  MsSsimOptions ms_ssim;

  bool operator==(const DistortionOptions&) const = default;
};

/// Distortion percentage in [0, 100] between a reference image and a
/// test image; 0 iff identical (up to metric degeneracies).
/// Index-based metrics (UIQI/SSIM, range [-1, 1]) map as (1 - q)/2 * 100;
/// RMSE maps as rmse/255 * 100.
double distortion_percent(const hebs::image::GrayImage& reference,
                          const hebs::image::GrayImage& test,
                          const DistortionOptions& opts = {});

/// Distortion between displayed-luminance rasters (used when comparing
/// what the panel actually emits under backlight scaling).
double distortion_percent(const hebs::image::FloatImage& reference,
                          const hebs::image::FloatImage& test,
                          const DistortionOptions& opts = {});

/// Measures many candidate rasters against one fixed reference.
///
/// The reference-side half of every metric is computed once at
/// construction and reused by each percent() call: for the UIQI metrics
/// the front-end reference raster and its per-window means/variances
/// (built by the row stream of quality/uiqi_stream.h), for SSIM+HVS the
/// HVS transform of the reference, and the 8-bit quantization MS-SSIM
/// needs.  The UIQI metrics then stream each candidate row by row
/// through line buffers — no frame-sized test-side raster — and return
/// values bit-identical to the full-raster metric (hvs_transform, then
/// quality::uiqi).  The free distortion_percent() functions are
/// implemented on top of this class, so cached and one-shot
/// measurements are bit-identical too.  This is what makes repeated
/// evaluation (the hebs_exact bisection, the β refinement, the
/// baselines' searches) cheap: only the test-side work is paid per call.
class DistortionEvaluator {
 public:
  explicit DistortionEvaluator(hebs::image::FloatImage reference,
                               DistortionOptions opts = {});

  /// Reference given as an integer image: the evaluator measures
  /// exactly what the FloatImage constructor would on
  /// FloatImage::from_gray(reference) (from_gray16 for deep pixels).
  /// The UIQI+HVS front end then runs once per level on the reference
  /// side too, instead of once per pixel, and UIQI+HVS keeps no float
  /// copy of the reference: nothing reads it after construction.
  explicit DistortionEvaluator(const hebs::image::GrayImage& reference,
                               DistortionOptions opts = {});
  explicit DistortionEvaluator(const hebs::image::GrayImage16& reference,
                               DistortionOptions opts = {});

  /// Distortion percentage of `test` against the cached reference.
  /// `test` must match the reference's dimensions.
  double percent(const hebs::image::FloatImage& test) const;

  /// Same measurement for a test raster that is a per-level map of an
  /// 8-bit image (displayed[i] = levels[original[i]]) — the shape every
  /// backlight-scaled frame has.  For the UIQI metrics the front end
  /// runs per level instead of per pixel and the rows stream straight
  /// from the pixels; the value is bit-identical to
  /// percent(levels.apply(original)).
  double percent_mapped(const hebs::image::GrayImage& original,
                        const hebs::transform::FloatLut& levels) const;

  /// Deep-pixel twin (levels.size() must equal original.levels()); same
  /// per-level shortcut, same bit-identity to
  /// percent(levels.apply16(original)).
  double percent_mapped(const hebs::image::GrayImage16& original,
                        const hebs::transform::FloatLut& levels) const;

  const DistortionOptions& options() const noexcept { return opts_; }

 private:
  /// Builds the reference-side caches; `front_rows` yields the rows of
  /// the reference through the HVS front end.
  void build_reference(const RowSource& front_rows);
  /// Level i / (levels-1) through the front end: the per-level form of
  /// an integer reference (filled for UIQI+HVS only, the one reader).
  hebs::transform::FloatLut reference_table(int levels) const;
  bool is_uiqi() const noexcept {
    return opts_.metric == Metric::kUiqi || opts_.metric == Metric::kUiqiHvs;
  }
  /// The per-level test-side table of a UIQI metric: `levels` through
  /// the front end (kUiqiHvs) or as is (kUiqi).
  hebs::transform::FloatLut front_end_table(
      const hebs::transform::FloatLut& levels) const;
  /// Percent of a UIQI metric over the front-end test rows of `test`.
  double uiqi_percent(const RowSource& test) const;

  DistortionOptions opts_;
  /// The reference's size, which every measured raster must match.
  int width_ = 0;
  int height_ = 0;
  /// The reference as luminance (empty for an integer reference under
  /// UIQI+HVS, which reads only the caches below).
  hebs::image::FloatImage reference_;
  /// HVS-transformed reference (the *+HVS metrics).
  hebs::image::FloatImage hvs_reference_;
  /// CSF prefilter taps of the UIQI+HVS stream (empty: no blur).
  hebs::util::PoolVector<double> taps_;
  /// Per-window reference moments of the UIQI metrics (absent when the
  /// window options do not fit the raster; percent() then reports it).
  std::optional<RefWindowMoments> ref_moments_;
  /// 8-bit reference for MS-SSIM (which is defined on gray images).
  hebs::image::GrayImage gray_reference_;
};

}  // namespace hebs::quality
