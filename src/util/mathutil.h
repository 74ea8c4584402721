// Small numeric helpers shared across modules.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace hebs::util {

/// Clamps `v` into [lo, hi].
constexpr double clamp(double v, double lo, double hi) noexcept {
  return v < lo ? lo : (v > hi ? hi : v);
}

/// Clamps `v` into [0, 1].
constexpr double clamp01(double v) noexcept { return clamp(v, 0.0, 1.0); }

/// Linear interpolation between a and b by t in [0,1].
constexpr double lerp(double a, double b, double t) noexcept {
  return a + (b - a) * t;
}

/// Arithmetic mean; returns 0 for an empty span.
double mean(std::span<const double> xs) noexcept;

/// Population variance; returns 0 for spans shorter than 1.
double variance(std::span<const double> xs) noexcept;

/// Population covariance of two equally sized spans.
double covariance(std::span<const double> xs, std::span<const double> ys);

/// p-th percentile (p in [0,100]) with linear interpolation.
/// The input need not be sorted; a sorted copy is made internally.
double percentile(std::span<const double> xs, double p);

/// Sum of a span.
double sum(std::span<const double> xs) noexcept;

/// Root mean square of elementwise differences. Spans must match in size.
double rms_diff(std::span<const double> xs, std::span<const double> ys);

/// Evenly spaced values from lo to hi inclusive (n >= 2).
std::vector<double> linspace(double lo, double hi, std::size_t n);

}  // namespace hebs::util
