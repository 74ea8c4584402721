// Programmable LCD Reference Drivers (PLRD) — Figure 5 of the paper.
//
// Conventional circuit (Fig. 5a): a fixed resistor voltage divider feeds
// the source-driver buffers.  Reference [5] adds clamp switches at both
// ends, which can only realize the single-band grayscale-spreading
// transfer of Eq. 3 with a single slope.
//
// Proposed circuit (Fig. 5b): a hierarchical divider with k controllable
// voltage sources V_i (normally V_i = i*Vdd/k) plus switches between
// grayscale levels.  Reprogramming the V_i realizes a k-band piecewise-
// linear transfer — including flat bands in the middle of the range —
// which is exactly what the PLC-coarsened HEBS transformation needs.
// The programming rule is Eq. 10: V_i = Y_{q_i} / β * Vdd, i.e. the
// backlight-compensated (1/β-spread) transform value at the node.
#pragma once

#include "display/grayscale_voltage.h"
#include "transform/pwl.h"

namespace hebs::display {

/// The conventional fixed divider of Fig. 5a, with the clamp switches of
/// reference [5].
class ConventionalLadder {
 public:
  /// `taps` buffered reference voltages (the AD8511 of ref [11][12] is an
  /// 11-channel part fed by a 10-way divider).
  explicit ConventionalLadder(int taps = 11, double vdd = kDefaultVdd);

  /// The unmodified transfer: v(X) linear from 0 to vdd.
  GrayscaleVoltage transfer() const;

  /// The transfer with the CBCS clamp switches engaged: levels below g_l
  /// map to 0, above g_u to vdd, and a single affine slope in between —
  /// Eq. 3 realized at tap-grid resolution.  g_l/g_u are normalized and
  /// must satisfy 0 <= g_l < g_u <= 1.  The single-slope restriction is
  /// inherent to this circuit (paper §4.1, limitation 2).
  GrayscaleVoltage clamped_transfer(double g_l, double g_u) const;

  int taps() const noexcept { return taps_; }
  double vdd() const noexcept { return vdd_; }

 private:
  int taps_;
  double vdd_;
};

/// Configuration of the proposed hierarchical divider.
struct HierarchicalLadderOptions {
  int bands = 8;      ///< number of controllable sources k (Fig. 5b)
  int dac_bits = 8;   ///< resolution of each programmable source
  double vdd = kDefaultVdd;
};

/// The proposed programmable hierarchical divider of Fig. 5b.
class HierarchicalLadder {
 public:
  explicit HierarchicalLadder(
      const HierarchicalLadderOptions& opts = {});

  /// Programs the k+1 node voltages to realize the pixel transformation
  /// `lambda` with backlight compensation: node i at pixel position
  /// x_i = i/k gets V_i = min(vdd, lambda(x_i)/beta * vdd), quantized to
  /// the DAC resolution (Eq. 10; the min models the clamp switch that
  /// produces flat bands at saturation).
  ///
  /// Throws HardwareError when `lambda` is non-monotonic, since a
  /// resistor ladder cannot produce decreasing node voltages.
  void program(const hebs::transform::PwlCurve& lambda, double beta);

  /// Resets all sources to the default V_i = i*vdd/k (identity transfer).
  void reset();

  /// The realized level-to-voltage transfer.
  GrayscaleVoltage transfer() const;

  /// The effective displayed-luminance transform at backlight factor
  /// `beta`: y(x) = beta * v(255 x)/vdd.  When programmed via `program`
  /// with the same beta, this approximates the requested lambda (up to
  /// grid resolution, DAC quantization and the vdd clamp).
  hebs::transform::PwlCurve effective_transform(double beta) const;

  const HierarchicalLadderOptions& options() const noexcept { return opts_; }
  const std::vector<double>& node_voltages() const noexcept {
    return nodes_;
  }

 private:
  double quantize(double volts) const noexcept;

  HierarchicalLadderOptions opts_;
  std::vector<double> nodes_;
};

}  // namespace hebs::display
