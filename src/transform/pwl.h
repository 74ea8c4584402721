// Piecewise-linear transfer curves over the normalized pixel domain.
//
// The exact GHE transformation Φ is piecewise linear with O(|G|)
// segments; the PLC stage approximates it by a PwlCurve with few
// segments, and the hierarchical reference driver realizes such curves
// in hardware.  x and y are normalized pixel values in [0, 1].
#pragma once

#include <vector>

#include "transform/lut.h"
#include "util/pool.h"

namespace hebs::transform {

/// A 2-D point on a transfer curve (normalized coordinates).
struct CurvePoint {
  double x = 0.0;
  double y = 0.0;
  bool operator==(const CurvePoint&) const = default;
};

/// A piecewise-linear curve defined by ordered breakpoints.
class PwlCurve {
 public:
  /// Breakpoint storage: pool-backed so curve churn (one Φ and one Λ
  /// per probed range, every frame) recycles through the worker's
  /// BufferPool.
  using PointList = hebs::util::PoolVector<CurvePoint>;

  PwlCurve() = default;

  /// Builds from breakpoints; xs must be strictly increasing and the
  /// first/last x are expected to cover the evaluation domain.
  explicit PwlCurve(PointList points);

  /// Convenience for plain-vector call sites (tests, tools); copies.
  explicit PwlCurve(const std::vector<CurvePoint>& points)
      : PwlCurve(PointList(points.begin(), points.end())) {}

  /// Braced-list construction: PwlCurve({{0.0, 0.0}, {1.0, 1.0}}).
  PwlCurve(std::initializer_list<CurvePoint> points)
      : PwlCurve(PointList(points.begin(), points.end())) {}

  /// Evaluates by linear interpolation; x outside [front.x, back.x]
  /// clamps to the end values.
  double operator()(double x) const;

  const PointList& points() const noexcept { return points_; }

  /// Capacity for `n` points, so copying a curve of up to `n` points in
  /// allocates nothing.
  void reserve(std::size_t n) { points_.reserve(n); }

  /// Number of linear segments (points - 1; 0 for degenerate curves).
  int segment_count() const noexcept {
    return points_.size() < 2 ? 0 : static_cast<int>(points_.size()) - 1;
  }

  /// True when y values are non-decreasing with x.
  bool is_monotonic() const noexcept;

  /// Smallest / largest y over the breakpoints.
  double min_y() const noexcept;
  double max_y() const noexcept;

  /// Samples the curve at the 256 level centers x = i/255 with one
  /// linear sweep over the segments.  Produces exactly the values 256
  /// calls of operator() would (same segment selection, same
  /// interpolation arithmetic) without a binary search per level.
  FloatLut sample_levels() const;

  /// Depth-generalized sampling at the `levels` level centers
  /// x = i/(levels-1); sample_levels() is exactly sample_levels(256).
  FloatLut sample_levels(int levels) const;

  /// Quantizes the curve to a 256-entry lookup table.
  Lut to_lut() const;

  /// Reconstructs the exact PWL curve of a lookup table (one breakpoint
  /// per level).
  static PwlCurve from_lut(const Lut& lut);

  /// Identity curve y = x on [0, 1].
  static PwlCurve identity();

  /// Mean squared error between two curves sampled at the 256 level
  /// centers — the PLC objective of the paper (squared error between
  /// Φ and Λ).
  static double mse_between(const PwlCurve& a, const PwlCurve& b);

 private:
  PointList points_;
};

}  // namespace hebs::transform
