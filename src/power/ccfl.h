// Cold Cathode Fluorescent Lamp (CCFL) backlight power model.
//
// §5.1a of the paper: in a transmissive TFT-LCD only the driving current
// of the CCFL is controllable, and accounting for the saturation of
// emitted light at high drive the power-vs-backlight-factor relation is a
// two-piece linear function (Eq. 11):
//
//     P(β) = A_lin β + C_lin   for 0 ≤ β ≤ C_s
//     P(β) = A_sat β + C_sat   for C_s < β ≤ 1
//
// with LP064V1 coefficients C_s=0.8234, A_lin=1.9600, C_lin=−0.2372,
// A_sat=6.9440, C_sat=−4.3240 (power in watts).  Above the saturation
// knee the lamp gets dramatically less efficient, which is exactly why
// even modest dimming saves a lot of power.
#pragma once

#include <span>

namespace hebs::power {

/// Two-piece linear CCFL power model (paper Eq. 11).
class CcflModel {
 public:
  /// Model coefficients; see class comment for semantics.
  struct Coefficients {
    double c_s = 0.0;    ///< saturation knee in backlight factor
    double a_lin = 0.0;  ///< linear-region slope  (W per unit β)
    double c_lin = 0.0;  ///< linear-region intercept (W)
    double a_sat = 0.0;  ///< saturation-region slope (W per unit β)
    double c_sat = 0.0;  ///< saturation-region intercept (W)

    bool operator==(const Coefficients&) const = default;
  };

  explicit CcflModel(const Coefficients& coeffs);

  /// The LG Philips LP064V1 lamp as characterized in the paper.
  static CcflModel lp064v1();

  /// Fits a model from measured (β, power) samples via a breakpoint-
  /// searching two-piece least-squares fit.  βs must be sorted ascending.
  static CcflModel fit(std::span<const double> betas,
                       std::span<const double> watts);

  /// Lamp power in watts at backlight factor β in [0, 1].  The fitted
  /// affine pieces can go negative for very small β, outside the region
  /// the paper measured; power is clamped at zero there.
  double power(double beta) const;

  /// Inverse: the backlight factor achievable at `watts`, clamped to
  /// [0, 1].  Monotone in `watts`.
  double beta_at_power(double watts) const;

  /// Power at full backlight, P(1).
  double full_power() const { return power(1.0); }

  const Coefficients& coefficients() const noexcept { return coeffs_; }

  bool operator==(const CcflModel&) const = default;

 private:
  Coefficients coeffs_;
};

}  // namespace hebs::power
