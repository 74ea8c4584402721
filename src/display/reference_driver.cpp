#include "display/reference_driver.h"

#include <cmath>

#include "util/error.h"
#include "util/mathutil.h"

namespace hebs::display {

ConventionalLadder::ConventionalLadder(int taps, double vdd)
    : taps_(taps), vdd_(vdd) {
  HEBS_REQUIRE(taps >= 2, "a divider needs at least two taps");
  HEBS_REQUIRE(vdd > 0.0, "vdd must be positive");
}

GrayscaleVoltage ConventionalLadder::transfer() const {
  return GrayscaleVoltage::linear(taps_, vdd_);
}

GrayscaleVoltage ConventionalLadder::clamped_transfer(double g_l,
                                                      double g_u) const {
  HEBS_REQUIRE(g_l >= 0.0 && g_u <= 1.0 && g_l < g_u,
               "band must satisfy 0 <= g_l < g_u <= 1");
  std::vector<double> nodes(static_cast<std::size_t>(taps_));
  for (int i = 0; i < taps_; ++i) {
    const double x = static_cast<double>(i) / (taps_ - 1);
    const double y = util::clamp01((x - g_l) / (g_u - g_l));
    nodes[static_cast<std::size_t>(i)] = y * vdd_;
  }
  return {std::move(nodes), vdd_};
}

HierarchicalLadder::HierarchicalLadder(const HierarchicalLadderOptions& opts)
    : opts_(opts) {
  HEBS_REQUIRE(opts.bands >= 1, "need at least one band");
  HEBS_REQUIRE(opts.dac_bits >= 1 && opts.dac_bits <= 16,
               "DAC resolution must be 1..16 bits");
  HEBS_REQUIRE(opts.vdd > 0.0, "vdd must be positive");
  reset();
}

void HierarchicalLadder::reset() {
  nodes_.assign(static_cast<std::size_t>(opts_.bands) + 1, 0.0);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i] = opts_.vdd * static_cast<double>(i) /
                static_cast<double>(opts_.bands);
  }
}

void HierarchicalLadder::program(const hebs::transform::PwlCurve& lambda,
                                 double beta) {
  HEBS_REQUIRE(beta > 0.0 && beta <= 1.0, "beta must be in (0, 1]");
  if (!lambda.is_monotonic()) {
    throw util::HardwareError(
        "reference ladder cannot realize a non-monotonic transfer");
  }
  std::vector<double> nodes(static_cast<std::size_t>(opts_.bands) + 1);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const double x =
        static_cast<double>(i) / static_cast<double>(opts_.bands);
    // Eq. 10: V_i = Y_{q_i} / beta * Vdd, clamped by the supply rail.
    const double volts =
        std::min(opts_.vdd, lambda(x) / beta * opts_.vdd);
    nodes[i] = quantize(std::max(0.0, volts));
  }
  nodes_ = std::move(nodes);
}

GrayscaleVoltage HierarchicalLadder::transfer() const {
  return {nodes_, opts_.vdd};
}

hebs::transform::PwlCurve HierarchicalLadder::effective_transform(
    double beta) const {
  HEBS_REQUIRE(beta > 0.0 && beta <= 1.0, "beta must be in (0, 1]");
  hebs::transform::PwlCurve::PointList pts;
  pts.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const double x =
        static_cast<double>(i) / static_cast<double>(opts_.bands);
    pts.push_back({x, beta * nodes_[i] / opts_.vdd});
  }
  return hebs::transform::PwlCurve(std::move(pts));
}

double HierarchicalLadder::quantize(double volts) const noexcept {
  const double steps = std::pow(2.0, opts_.dac_bits) - 1.0;
  const double code = std::round(volts / opts_.vdd * steps);
  return code / steps * opts_.vdd;
}

}  // namespace hebs::display
