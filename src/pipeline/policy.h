// The decision seam every DBS policy plugs into.
//
// §3 of the paper frames HEBS, DLS and CBCS as interchangeable answers
// to one question: given the frame F and the budget D_max, pick the
// operating point (β, Φ).  A Policy is exactly that question, asked of
// a bound FrameContext.  The engine's batch core runs any Policy with
// the same per-frame containment, deadline, pool fan-out and slot reuse
// (engine.h), so a new policy is one class plus one registry row
// (api/registry.cpp) — no facade or engine changes.
#pragma once

#include <functional>
#include <memory>
#include <utility>

#include "core/dbs.h"
#include "core/hebs.h"
#include "pipeline/frame_context.h"

namespace hebs::core {
class DistortionCurve;
}

namespace hebs::pipeline {

class Policy {
 public:
  Policy() = default;
  Policy(const Policy&) = delete;
  Policy& operator=(const Policy&) = delete;
  virtual ~Policy() = default;

  /// Runs once per engine call on the calling thread, before any frame
  /// is decided and outside per-frame containment and deadlines: where
  /// a policy resolves state every frame shares.  Exceptions propagate
  /// out of the engine call.
  virtual void prepare() const {}

  /// Decides the frame bound to `ctx`.  Called concurrently on distinct
  /// contexts, so implementations keep no per-call mutable state.
  virtual core::HebsResult decide(FrameContext& ctx,
                                  double d_max_percent) const = 0;
};

/// hebs-exact: bisects the range against the measured distortion
/// (run_exact, the Table 1 protocol).
class ExactPolicy final : public Policy {
 public:
  core::HebsResult decide(FrameContext& ctx,
                          double d_max_percent) const override;
};

/// The HEBS pipeline at one fixed dynamic range (ctx.at_range); the
/// budget is ignored.
class AtRangePolicy final : public Policy {
 public:
  explicit AtRangePolicy(int range) : range_(range) {}
  core::HebsResult decide(FrameContext& ctx,
                          double d_max_percent) const override;

 private:
  int range_;
};

/// hebs-curve: range looked up from the distortion characteristic
/// curve (run_with_curve).  `curve` yields the shared curve; prepare()
/// calls it first, so a lazy characterization runs once on the caller.
class CurvePolicy final : public Policy {
 public:
  explicit CurvePolicy(std::function<const core::DistortionCurve&()> curve)
      : curve_(std::move(curve)) {}
  void prepare() const override { (void)curve_(); }
  core::HebsResult decide(FrameContext& ctx,
                          double d_max_percent) const override;

 private:
  std::function<const core::DistortionCurve&()> curve_;
};

/// bbhe: brightness-preserving bi-histogram equalization (run_bbhe).
class BbhePolicy final : public Policy {
 public:
  core::HebsResult decide(FrameContext& ctx,
                          double d_max_percent) const override;
};

/// An image-level core::DbsPolicy (the DLS and CBCS baselines): its
/// choose() picks the point on the bound 8-bit frame and ctx.evaluate()
/// measures it (bit-identical to core::evaluate_operating_point).  The
/// result has lambda = ψ, an empty phi and the default target — the
/// baselines have no GHE/PLC stages.
class DbsPolicyAdapter final : public Policy {
 public:
  explicit DbsPolicyAdapter(std::unique_ptr<core::DbsPolicy> policy)
      : policy_(std::move(policy)) {}
  core::HebsResult decide(FrameContext& ctx,
                          double d_max_percent) const override;

 private:
  std::unique_ptr<core::DbsPolicy> policy_;
};

}  // namespace hebs::pipeline
