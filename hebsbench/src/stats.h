// Order statistics for the benchmark's samples.
//
// median() and quartiles() follow Python's statistics module
// (statistics.median and statistics.quantiles(values, n=4), the
// default "exclusive" method), so a spread the benchmark prints is the
// spread the same ten values give in Python.  percentile() uses linear
// interpolation between closest ranks.
//
// A tail percentile is only reported when it is backed by data: at
// least kMinBeyond samples must lie beyond it (p95 therefore needs 200
// samples).
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <vector>

namespace hebsbench::stats {

/// Samples that must lie beyond a reported tail percentile.
inline constexpr std::size_t kMinBeyond = 10;

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Python's statistics.quantiles(v, n=4) ("exclusive"): {Q1, Q2, Q3}.
/// Needs at least two samples; fewer yield the lone value (or zeros).
inline std::array<double, 3> quartiles(std::vector<double> v) {
  if (v.empty()) return {0.0, 0.0, 0.0};
  if (v.size() == 1) return {v[0], v[0], v[0]};
  std::sort(v.begin(), v.end());
  const auto n = static_cast<long>(v.size());
  std::array<double, 3> q{};
  for (long i = 1; i <= 3; ++i) {
    const long m = n + 1;
    long j = i * m / 4;
    j = std::clamp(j, 1L, n - 1);
    const long delta = i * m - j * 4;
    q[static_cast<std::size_t>(i - 1)] =
        (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return q;
}

/// Linear-interpolation percentile, p in [0, 1].
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos =
      std::clamp(p, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Samples strictly above the p-th percentile of n samples.
inline std::size_t samples_beyond(std::size_t n, double p) {
  // The 1e-9 slack keeps 200 * (1 - 0.95) at 10, not 9.999...
  return static_cast<std::size_t>(
      std::floor(static_cast<double>(n) * (1.0 - p) + 1e-9));
}

/// Whether n samples back the p-th percentile (kMinBeyond beyond it).
inline bool percentile_defined(std::size_t n, double p) {
  return samples_beyond(n, p) >= kMinBeyond;
}

/// The fewest samples that back the p-th percentile (200 for p95).
inline std::size_t samples_needed(double p) {
  return static_cast<std::size_t>(
      std::ceil(static_cast<double>(kMinBeyond) / (1.0 - p) - 1e-9));
}

}  // namespace hebsbench::stats
