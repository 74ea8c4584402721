// Internal side of the public registries: each entry carries the
// dispatch information Session needs (a policy factory and its
// capabilities, a metric enum) next to the public name/description.
// Only src/api/ includes this.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "hebs/registry.h"
#include "pipeline/policy.h"
#include "power/lcd_power.h"
#include "quality/distortion.h"

namespace hebs::api {

/// What a policy factory may capture from the session that owns it.
struct PolicyEnv {
  hebs::quality::DistortionOptions distortion;
  hebs::power::LcdSubsystemPower model;
  /// The session's distortion characteristic curve (loaded at create,
  /// or characterized on first call).
  std::function<const core::DistortionCurve&()> curve;
};

struct PolicyInfo {
  RegistryEntry entry;
  std::unique_ptr<pipeline::Policy> (*make)(const PolicyEnv& env);
  /// Decides deep-pixel (bit_depth 10/16) sessions.
  bool deep = false;
  /// Accepts FrameRequest::fixed_range (the HEBS pipeline at a range).
  bool fixed_range = false;
  /// Runs process_video / process_video_color (the flicker
  /// re-derivation is HEBS-specific).
  bool video = false;
};

struct MetricInfo {
  RegistryEntry entry;
  /// The decision-loop metric this name selects; nullopt for
  /// report-only metrics (hue-error), which are listed and attached to
  /// color results but cannot drive the decision loop —
  /// Session::create rejects them as SessionConfig::metric.
  std::optional<hebs::quality::Metric> metric;
  bool decision() const noexcept { return metric.has_value(); }
};

/// Registration-ordered tables of the built-ins.
const std::vector<PolicyInfo>& policy_table();
const std::vector<MetricInfo>& metric_table();

/// nullptr when the name is not registered.
const PolicyInfo* find_policy(std::string_view name);
const MetricInfo* find_metric(std::string_view name);

}  // namespace hebs::api
