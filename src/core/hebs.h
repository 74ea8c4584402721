// The HEBS algorithm — Histogram Equalization for Backlight Scaling.
//
// The four-step flow of the paper (§1, Fig. 4):
//   1. From the tolerable distortion D_max, determine the minimum
//      admissible dynamic range R (via the distortion characteristic
//      curve) and the backlight factor β.
//   2. Solve GHE: Φ maps the image histogram to a uniform histogram on
//      [g_min, g_max] with g_max - g_min = R.
//   3. Coarsen Φ to a piecewise-linear Λ with m segments (PLC) so the
//      hierarchical reference driver can realize it.
//   4. Display through Λ while dimming the backlight to β.
//
// Two front ends are provided: `hebs_with_curve` is the deployed flow
// (curve lookup, no metric evaluation at runtime), and `hebs_exact`
// bisects the range until the *measured* distortion matches the budget —
// the protocol behind Table 1's per-image rows.
#pragma once

#include "core/dbs.h"
#include "core/ghe.h"
#include "core/plc.h"
#include "histogram/histogram.h"

namespace hebs::core {

class DistortionCurve;  // defined in core/distortion_curve.h

/// Tunables of the HEBS pipeline.
struct HebsOptions {
  /// PLC segment budget m — one per controllable ladder source.
  int segments = 8;
  /// Floor for the bottom of the target range (g_min = 0 maximizes
  /// dimming; see DESIGN.md §5).  The pipeline may raise g_min above
  /// this to preserve the image's native width (adaptive placement).
  int g_min = 0;
  /// Smallest admissible dynamic range; guards against degenerate
  /// operating points for near-constant images.
  int min_range = 16;
  /// Lowest backlight factor the CCFL can strike reliably.
  double min_beta = 0.05;
  /// Equalization strength w in [0, 1]: Λ blends w·GHE + (1-w)·affine
  /// placement of the native range into the target.  The default -1
  /// selects w adaptively as 1 - target_width/native_width, so the
  /// transform approaches identity when little compression is needed
  /// (zero distortion at wide ranges, matching the Fig. 7 shape) and
  /// full histogram equalization under deep compression (the paper's
  /// regime).  Set 1.0 for the paper-pure GHE at every range — the
  /// ablation benchmark compares both.
  double equalization_strength = -1.0;
  /// When true, the exact-search mode finishes with a concurrent
  /// brightness-scaling pass: β is bisected below g_max/255 (holding Λ
  /// fixed) as long as the measured distortion stays within budget —
  /// the same brightness/contrast trade CBCS [5] exploits, which the
  /// DBS formulation (min power s.t. D <= D_max) permits.  Hardware
  /// realization is unchanged: the same ladder program at a dimmer
  /// backlight.  Disable for the paper-pure pipeline.
  bool concurrent_scaling = true;
  /// When true (default), the exact search narrows the range bracket and
  /// predicts the β bisection path on a decimated proxy of the frame
  /// before touching the full-resolution evaluator, and every exact
  /// probe it does make is verified the same way the temporal warm path
  /// is (DESIGN.md §11).  The result is bit-identical to the frozen
  /// cold bisection under the §9 monotonicity contract; set false for
  /// that frozen reference search (the fuzz baseline).
  bool coarse_search = true;
  /// Distortion metric configuration (paper default: UIQI over HVS).
  hebs::quality::DistortionOptions distortion;

  bool operator==(const HebsOptions&) const = default;
};

/// Everything HEBS produced for one image.
struct HebsResult {
  /// The operating point: ψ = Λ (the displayed luminance equals the
  /// coarsened transform) and β = g_max/255.
  OperatingPoint point;
  /// Exact GHE transformation Φ (one breakpoint per level).
  hebs::transform::PwlCurve phi;
  /// PLC approximation Λ actually deployed.
  hebs::transform::PwlCurve lambda;
  /// Mean squared error of Λ against Φ (the PLC objective).
  double plc_mse = 0.0;
  /// Target range used ([g_min, g_max]).
  GheTarget target;
  /// Measured distortion/power of the operating point.
  EvaluatedPoint evaluation;
};

/// Steps 2-4 at a fixed dynamic range R (g_max = g_min + R).
HebsResult hebs_at_range(const hebs::image::GrayImage& image, int range,
                         const HebsOptions& opts,
                         const hebs::power::LcdSubsystemPower& power_model);

/// The deployed flow of Fig. 4: R looked up from the distortion
/// characteristic curve (worst-case fit, so the budget is honored
/// conservatively), then steps 2-4.
HebsResult hebs_with_curve(const hebs::image::GrayImage& image,
                           double d_max_percent, const DistortionCurve& curve,
                           const HebsOptions& opts,
                           const hebs::power::LcdSubsystemPower& power_model);

/// Oracle mode: bisects R so the measured distortion lands on (just
/// under) the budget — maximizing savings at exactly the reported
/// distortion, as in the per-image rows of Table 1.
HebsResult hebs_exact(const hebs::image::GrayImage& image,
                      double d_max_percent, const HebsOptions& opts,
                      const hebs::power::LcdSubsystemPower& power_model);

/// HEBS as a DBS policy (exact mode), for head-to-head comparison with
/// the DLS/CBCS baselines.
class HebsPolicy : public DbsPolicy {
 public:
  explicit HebsPolicy(HebsOptions opts = {},
                      hebs::power::LcdSubsystemPower power_model =
                          hebs::power::LcdSubsystemPower::lp064v1());

  std::string name() const override;
  OperatingPoint choose(const hebs::image::GrayImage& image,
                        double d_max_percent) const override;

 private:
  HebsOptions opts_;
  hebs::power::LcdSubsystemPower power_model_;
};

}  // namespace hebs::core
