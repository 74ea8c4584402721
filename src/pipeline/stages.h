// The staged decomposition of the HEBS per-frame flow (Fig. 4).
//
//   HistogramStage   -> image statistics (warms the context's histogram)
//   RangeSelectStage -> effective target range [g_min_eff, g_max]
//   GheStage         -> exact equalizing transform Φ (strength-blended)
//   PlcStage         -> m-segment coarsening Λ
//   EvaluateStage    -> operating point (Λ, β) + measured distortion/power
//
// Stages communicate exclusively through the shared FrameContext (for
// memoized frame products) and the HebsResult under construction.  The
// free-function front ends in core/hebs.h and the PipelineEngine's batch
// and stream modes all drive these same stages, which is what guarantees
// their outputs are bit-identical.
#pragma once

#include <cstdint>

#include "core/hebs.h"
#include "pipeline/frame_context.h"

namespace hebs::core {
class DistortionCurve;
}

namespace hebs::pipeline {

/// One step of the per-frame pipeline.  Reads memoized products from the
/// context and fills its slice of the result.
class Stage {
 public:
  virtual ~Stage() = default;
  virtual const char* name() const noexcept = 0;
  virtual void run(const FrameContext& ctx, core::HebsResult& result) const = 0;
};

/// Warms the context's histogram (exact or injected estimate).
class HistogramStage : public Stage {
 public:
  const char* name() const noexcept override { return "histogram"; }
  void run(const FrameContext& ctx, core::HebsResult& result) const override;
};

/// Picks the effective target [g_min_eff, g_max] for a requested dynamic
/// range: caps g_max at the brightest populated level and preserves the
/// native width when the target allows it (adaptive placement).
class RangeSelectStage : public Stage {
 public:
  explicit RangeSelectStage(int range) : range_(range) {}
  const char* name() const noexcept override { return "range-select"; }
  void run(const FrameContext& ctx, core::HebsResult& result) const override;

 private:
  int range_;
};

/// Solves GHE into the selected target and applies the
/// equalization-strength blend with the affine placement.
class GheStage : public Stage {
 public:
  /// `ghe` (nullable): the exact GHE curve of the target, computed by
  /// the caller (the memo-free probes); null reads the context's memo.
  explicit GheStage(const hebs::transform::PwlCurve* ghe = nullptr)
      : ghe_(ghe) {}
  const char* name() const noexcept override { return "ghe"; }
  void run(const FrameContext& ctx, core::HebsResult& result) const override;

 private:
  const hebs::transform::PwlCurve* ghe_;
};

/// Coarsens Φ to the ladder's segment budget.
class PlcStage : public Stage {
 public:
  const char* name() const noexcept override { return "plc"; }
  void run(const FrameContext& ctx, core::HebsResult& result) const override;
};

/// Derives β from the target, forms the operating point, and measures
/// distortion/power through the context's cached evaluator.
class EvaluateStage : public Stage {
 public:
  const char* name() const noexcept override { return "evaluate"; }
  void run(const FrameContext& ctx, core::HebsResult& result) const override;
};

/// The effective target RangeSelectStage would pick for `range` — cheap,
/// lets FrameContext::at_range collapse ranges that clamp to the same
/// target onto one memo entry.
core::GheTarget select_target(const FrameContext& ctx, int range);

/// The exact strength-blended transform Φ GheStage would produce for a
/// target (the stage is a thin wrapper over this).  Exposed so the
/// coarse search can form its Λ≈Φ proxy probes from the very curve the
/// exact pipeline deploys.
hebs::transform::PwlCurve phi_for_target(const FrameContext& ctx,
                                         const core::GheTarget& target);

/// Runs the five standard stages in order at a fixed range.  Unmemoized;
/// use FrameContext::at_range for the cached entry point.
core::HebsResult run_stages_at_range(const FrameContext& ctx, int range);

/// Same, but leaves evaluation.transformed unmaterialized — the form
/// FrameContext memoizes for search probes (a probe reads only curves
/// and scalars, so caching a frame-sized raster per probed target would
/// be pure memory waste).  FrameContext::materialize_transformed fills
/// the raster, byte-identically, on first full access.  `ghe` as for
/// GheStage.
core::HebsResult run_stages_at_range_lean(
    const FrameContext& ctx, int range,
    const hebs::transform::PwlCurve* ghe = nullptr);

/// Deployed flow: range from the distortion characteristic curve
/// (worst-case fit), then the staged pipeline.
core::HebsResult run_with_curve(const FrameContext& ctx, double d_max_percent,
                                const core::DistortionCurve& curve);

/// Oracle flow: bisects the range against the measured distortion, then
/// optionally refines β (concurrent scaling).  Each probe hits the
/// context's per-range memo, so no range is evaluated twice.
core::HebsResult run_exact(const FrameContext& ctx, double d_max_percent);

/// Where one frame's exact search landed — the seed the temporal fast
/// path hands to the next frame, and the record run_exact_traced leaves
/// behind.  Contains no frame data, only search coordinates.
struct SearchTrace {
  bool valid = false;
  /// Even the widest range missed the budget (the search early-exits at
  /// `hi` and skips β refinement).
  bool hi_infeasible = false;
  /// The range the search selected (at_range argument of the result).
  int range = 0;
  // --- β-refinement record (concurrent_scaling only) ---
  bool refine_ran = false;
  /// The floor probe satisfied the budget (refinement ends there).
  bool floor_feasible = false;
  double base_beta = 0.0;
  double floor_beta = 0.0;
  /// Bit i = 1 iff bisection iteration i found its midpoint feasible.
  std::uint16_t beta_path = 0;
  /// Record-only: this trace's search verified its seed (statistics for
  /// the temporal layer; never read as a seed input).
  bool warmed = false;
};

/// run_exact with temporal warm starting.  `seed` (nullable) is the
/// previous frame's trace: the range search walks to a verified
/// bracket — p(r) ∧ ¬p(r−1), with p(r) = "distortion at r within
/// budget" — and the β refinement replays the seeded decision path and
/// verifies only the final bracket endpoints.  Any verification miss
/// falls back to the full cold search.
///
/// Identity contract (DESIGN.md §9): whenever measured distortion is
/// weakly monotone in range and in β over the search interval, the
/// verified bracket is unique, it is the minimal feasible point, and
/// the result is bit-identical to run_exact for EVERY seed.  Measured
/// distortion is monotone up to sub-0.1% quantization wiggles; a
/// budget landing inside such a wiggle admits several verified
/// brackets, and warm and cold may then return different ones — note
/// the cold bisection's own "minimal feasible" reading rests on the
/// same monotonicity, so in that regime both searches return "a"
/// verified bracket, each a feasible operating point honoring the
/// budget.  `trace_out` (nullable) receives this frame's trace for
/// seeding the next.
core::HebsResult run_exact_traced(const FrameContext& ctx,
                                  double d_max_percent,
                                  const SearchTrace* seed,
                                  SearchTrace* trace_out);

}  // namespace hebs::pipeline
