// a-Si:H TFT-LCD panel power model.
//
// §5.1b of the paper: panel power is a quadratic function of the
// (normalized) pixel value x ∈ [0, 1] (Eq. 12):
//
//     P_panel(x) = a x² + b x + c
//
// with LP064V1 regression coefficients a=0.02449, b=0.04984, c=0.993
// (watts).  The per-image panel power is the mean of P over all pixels,
// which — because P depends only on the pixel value — can be computed
// exactly from the image histogram.  The paper notes the panel's power
// variation with transmittance is small compared to the CCFL's variation
// with β, which our power-saving results confirm.
#pragma once

#include <span>

#include "histogram/histogram.h"
#include "image/image.h"

namespace hebs::power {

/// Quadratic panel power model (paper Eq. 12).
class TftPanelModel {
 public:
  /// Coefficients of P(x) = a x^2 + b x + c (watts, x normalized).
  struct Coefficients {
    double a = 0.0;
    double b = 0.0;
    double c = 0.0;

    bool operator==(const Coefficients&) const = default;
  };

  explicit TftPanelModel(const Coefficients& coeffs);

  /// The LG Philips LP064V1 panel as characterized in the paper.
  static TftPanelModel lp064v1();

  /// Least-squares quadratic fit from measured (transmittance, power)
  /// samples.
  static TftPanelModel fit(std::span<const double> transmittance,
                           std::span<const double> watts);

  /// Power at a single normalized pixel value x in [0, 1].
  double pixel_power(double x) const;

  /// Mean panel power over an image (exact, histogram-weighted).
  double image_power(const hebs::image::GrayImage& img) const;

  /// Mean panel power from a precomputed histogram.
  double image_power(const hebs::histogram::Histogram& hist) const;

  const Coefficients& coefficients() const noexcept { return coeffs_; }

  bool operator==(const TftPanelModel&) const = default;

 private:
  Coefficients coeffs_;
};

}  // namespace hebs::power
