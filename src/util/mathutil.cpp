#include "util/mathutil.h"

#include <algorithm>
#include <cmath>

#include "kernels/kernels.h"
#include "util/error.h"

namespace hebs::util {

double mean(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  // sum_f64 is the one left-to-right loop (kernels.h), so the mean is
  // bit-identical under every backend.
  return hebs::kernels::sum_f64(xs.data(), xs.size()) /
         static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) noexcept {
  if (xs.size() < 1) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size());
}

double covariance(std::span<const double> xs, std::span<const double> ys) {
  HEBS_REQUIRE(xs.size() == ys.size(), "covariance needs equal sizes");
  if (xs.empty()) return 0.0;
  const double mx = mean(xs);
  const double my = mean(ys);
  double acc = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    acc += (xs[i] - mx) * (ys[i] - my);
  }
  return acc / static_cast<double>(xs.size());
}

double percentile(std::span<const double> xs, double p) {
  HEBS_REQUIRE(!xs.empty(), "percentile of empty span");
  HEBS_REQUIRE(p >= 0.0 && p <= 100.0, "percentile p must be in [0,100]");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return lerp(sorted[lo], sorted[hi], frac);
}

double sum(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  return hebs::kernels::sum_f64(xs.data(), xs.size());
}

double rms_diff(std::span<const double> xs, std::span<const double> ys) {
  HEBS_REQUIRE(xs.size() == ys.size(), "rms_diff needs equal sizes");
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double d = xs[i] - ys[i];
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(xs.size()));
}

std::vector<double> linspace(double lo, double hi, std::size_t n) {
  HEBS_REQUIRE(n >= 2, "linspace needs at least two points");
  std::vector<double> out(n);
  const double step = (hi - lo) / static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = lo + step * static_cast<double>(i);
  }
  out.back() = hi;
  return out;
}

}  // namespace hebs::util
