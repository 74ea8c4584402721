#include "pipeline/temporal.h"

#include <cstddef>
#include <utility>

#include "obs/counters.h"
#include "obs/trace.h"

namespace hebs::pipeline {

namespace {

/// Frames to stop seeding the searches after a warm miss: on content
/// whose operating point jumps every frame (pans, cuts), failed
/// verification probes are pure overhead, so back off and retry only
/// occasionally.  Warm hits reset the cooldown immediately.
constexpr int kSeedCooldown = 4;

}  // namespace

void TemporalReuse::reset() {
  has_prev_ = false;
  trace_ = SearchTrace{};
  seed_cooldown_ = 0;
}

core::HebsResult TemporalReuse::process(FrameContext& ctx,
                                        const hebs::image::GrayImage& frame,
                                        double d_max_percent, bool seeded) {
  ++stats_.frames;
  obs::add(obs::Counter::kTemporalFrames);
  // Span arg = reuse level taken: 0 cold, 1 delta-refresh (the
  // stream's byte-identical frames record level 2 themselves).
  obs::ScopedSpan reuse_span(obs::Span::kTemporalReuse, 0);
  if (!opts_.enabled) {
    obs::add(obs::Counter::kTemporalCold);
    ctx.rebind(frame);
    return run_exact(ctx, d_max_percent);
  }

  // One pass over (prev, cur) classifies the frame: small delta (the
  // histogram refreshed incrementally as a side effect) or large delta
  // (bail, full recount).
  bool have_hist = false;
  hebs::histogram::Histogram refreshed;
  if (has_prev_ && prev_frame_.width() == frame.width() &&
      prev_frame_.height() == frame.height()) {
    const auto max_changed = static_cast<std::size_t>(
        opts_.max_delta_fraction * static_cast<double>(frame.size()));
    refreshed = prev_hist_;
    have_hist = refreshed.refresh_from_delta(prev_frame_, frame, max_changed);
  }

  ctx.rebind(frame);
  if (have_hist) {
    ctx.set_exact_histogram(refreshed);
    prev_hist_ = std::move(refreshed);
    ++stats_.incremental;
    obs::add(obs::Counter::kTemporalDeltaRefresh);
    reuse_span.set_arg(1);
  } else {
    obs::add(obs::Counter::kTemporalCold);
  }
  SearchTrace out;
  const SearchTrace* seed =
      (seeded && has_prev_ && trace_.valid && seed_cooldown_ == 0) ? &trace_
                                                                   : nullptr;
  core::HebsResult result = run_exact_traced(ctx, d_max_percent, seed, &out);
  if (out.warmed) {
    ++stats_.warmed;
    obs::add(obs::Counter::kTemporalWarmVerified);
    seed_cooldown_ = 0;
  } else if (seed != nullptr) {
    seed_cooldown_ = kSeedCooldown;
  } else if (seed_cooldown_ > 0) {
    --seed_cooldown_;
  }
  trace_ = out;
  if (!have_hist) prev_hist_ = ctx.exact_histogram();
  prev_frame_ = frame;
  has_prev_ = true;
  return result;
}

}  // namespace hebs::pipeline
