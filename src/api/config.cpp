#include "hebs/config.h"

#include <string>

#include "image/image.h"
#include "image/pixel_traits.h"

namespace hebs {

namespace {

Status invalid(const std::string& field, const std::string& domain,
               const std::string& got) {
  return Status(StatusCode::kInvalidOption,
                field + " must be " + domain + " (got " + got + ")");
}

}  // namespace

Status SessionConfig::validate() const {
  // Each check mirrors the domain the internal pipeline enforces with
  // HEBS_REQUIRE, surfaced as a typed Status before any work starts.
  if (policy_.empty()) {
    return invalid("policy", "a registered policy name", "\"\"");
  }
  if (metric_.empty()) {
    return invalid("metric", "a registered metric name", "\"\"");
  }
  if (color_mode_ != "shared-curve" && color_mode_ != "luma-ratio") {
    return invalid("color_mode", "\"shared-curve\" or \"luma-ratio\"",
                   "\"" + color_mode_ + "\"");
  }
  if (!hebs::image::supported_bit_depth(bit_depth())) {
    // Unsupported depths get their own code so callers can distinguish
    // "this build cannot decide that lattice" from an ordinary typo.
    return Status(StatusCode::kUnknownDepth,
                  "bit_depth must be 8, 10 or 16 (got " +
                      std::to_string(bit_depth()) + ")");
  }
  if (segments_ < 1) {
    return invalid("segments", ">= 1", std::to_string(segments_));
  }
  if (g_min_floor_ < 0 || g_min_floor_ >= hebs::image::kMaxPixel) {
    return invalid("g_min_floor", "in [0, 254]", std::to_string(g_min_floor_));
  }
  if (min_range_ < 2 || min_range_ > hebs::image::kMaxPixel) {
    return invalid("min_range", "in [2, 255]", std::to_string(min_range_));
  }
  if (!(min_beta_ > 0.0) || min_beta_ > 1.0) {
    return invalid("min_beta", "in (0, 1]", std::to_string(min_beta_));
  }
  if (!(equalization_strength_ <= 1.0)) {
    return invalid("equalization_strength", "<= 1 (or negative for adaptive)",
                   std::to_string(equalization_strength_));
  }
  if (threads_ < 0) {
    return invalid("threads", ">= 0 (0 = hardware concurrency)",
                   std::to_string(threads_));
  }
  if (pool_max_mb_ < 0) {
    return invalid("pool_max_mb", ">= 0 (0 = unlimited)",
                   std::to_string(pool_max_mb_));
  }
  if (frame_deadline_us_ < 0) {
    return invalid("frame_deadline_us", ">= 0 (0 = no deadline)",
                   std::to_string(frame_deadline_us_));
  }
  // The fault-spec grammar is validated at Session::create (where a
  // violation can name the offending clause without this header pulling
  // in the parser); the field itself has no domain to check here.
  if (characterization_size_ < 16) {
    return invalid("characterization_size", ">= 16",
                   std::to_string(characterization_size_));
  }
  if (!(max_beta_step_ > 0.0) || max_beta_step_ > 1.0) {
    return invalid("max_beta_step", "in (0, 1]",
                   std::to_string(max_beta_step_));
  }
  if (!(ema_alpha_ > 0.0) || ema_alpha_ > 1.0) {
    return invalid("ema_alpha", "in (0, 1]", std::to_string(ema_alpha_));
  }
  if (!(scene_cut_threshold_ >= 0.0 && scene_cut_threshold_ <= 2.0)) {
    return invalid("scene_cut_threshold", "in [0, 2]",
                   std::to_string(scene_cut_threshold_));
  }
  return Status();
}

}  // namespace hebs
