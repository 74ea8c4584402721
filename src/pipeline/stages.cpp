#include "pipeline/stages.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <functional>
#include <initializer_list>
#include <limits>
#include <optional>
#include <span>
#include <utility>

#include "core/backlight.h"
#include "core/distortion_curve.h"
#include "core/ghe.h"
#include "core/plc.h"
#include "obs/counters.h"
#include "pipeline/executor.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/faultpoint.h"

namespace hebs::pipeline {

namespace {

/// The distortion-minimal monotone placement of the image's native range
/// [lo, hi] into the target [g_min, g_max]: an affine map of the
/// populated levels (contrast-preserving when the widths match, identity
/// when the intervals coincide), clamped outside.
hebs::transform::PwlCurve affine_placement(int lo, int hi, int g_min,
                                           int g_max, int max_pixel) {
  const double xn_lo = static_cast<double>(lo) / max_pixel;
  const double xn_hi = static_cast<double>(hi) / max_pixel;
  const double yn_lo = static_cast<double>(g_min) / max_pixel;
  const double yn_hi = static_cast<double>(g_max) / max_pixel;
  hebs::transform::PwlCurve::PointList pts;
  if (lo > 0) pts.push_back({0.0, yn_lo});
  pts.push_back({xn_lo, yn_lo});
  pts.push_back({xn_hi, yn_hi});
  if (hi < max_pixel) pts.push_back({1.0, yn_hi});
  return hebs::transform::PwlCurve(std::move(pts));
}

/// Pointwise blend w·a + (1-w)·b, sampled at every pixel level so the
/// result has the same per-level resolution as the exact GHE curve.
hebs::transform::PwlCurve blend_curves(const hebs::transform::PwlCurve& a,
                                       const hebs::transform::PwlCurve& b,
                                       double w, int levels) {
  const hebs::transform::FloatLut sa = a.sample_levels(levels);
  const hebs::transform::FloatLut sb = b.sample_levels(levels);
  const double maxv = static_cast<double>(levels - 1);
  hebs::transform::PwlCurve::PointList pts;
  pts.reserve(static_cast<std::size_t>(levels));
  for (int level = 0; level < levels; ++level) {
    const double x = static_cast<double>(level) / maxv;
    pts.push_back({x, w * sa[level] + (1.0 - w) * sb[level]});
  }
  return hebs::transform::PwlCurve(std::move(pts));
}

void validate(const FrameContext& ctx, int range) {
  const core::HebsOptions& opts = ctx.options();
  HEBS_REQUIRE(ctx.bound() && (ctx.bound16() ? !ctx.image16().empty()
                                             : !ctx.image().empty()),
               "HEBS of an empty image");
  HEBS_REQUIRE(range >= 1, "dynamic range must be positive");
  HEBS_REQUIRE(opts.g_min >= 0 && opts.g_min + range <= ctx.max_pixel(),
               "target range exceeds the frame's pixel domain");
  HEBS_REQUIRE(opts.segments >= 1, "segment budget must be positive");
  HEBS_REQUIRE(opts.min_range >= 2,
               "min_range below 2 degenerates the PLC dynamic program");
  HEBS_REQUIRE(opts.equalization_strength <= 1.0,
               "equalization strength must be <= 1 (or negative for "
               "adaptive)");
  HEBS_REQUIRE(opts.min_beta > 0.0 && opts.min_beta <= 1.0,
               "min_beta must be in (0, 1]");
}

}  // namespace

core::GheTarget select_target(const FrameContext& ctx, int range) {
  validate(ctx, range);
  const auto& hist = ctx.histogram();
  const int lo = hist.min_level();
  const int hi = hist.max_level();
  const int native = hi - lo;
  const int g_min = ctx.options().g_min;

  // Never map the brightest populated level above itself: brightening
  // costs backlight power and adds distortion, so the admissible range
  // is capped by the image's own maximum.
  const int g_max = std::min(g_min + range, std::max(hi, 1));
  // Preserve the native width when the target allows it (the adaptive
  // placement); otherwise compress down to the floor g_min.
  const int g_min_eff = native > 0 ? std::max(g_min, g_max - native) : g_min;
  return core::GheTarget{g_min_eff, g_max};
}

namespace {

/// Φ for a target given the target's exact GHE curve.
hebs::transform::PwlCurve phi_from_ghe(const FrameContext& ctx,
                                       const core::GheTarget& target,
                                       const hebs::transform::PwlCurve& ghe) {
  const auto& hist = ctx.histogram();
  const int lo = hist.min_level();
  const int hi = hist.max_level();
  const int native = hi - lo;
  const int width = target.range();

  double w = ctx.options().equalization_strength;
  if (w < 0.0) {
    w = native > 0
            ? 1.0 - static_cast<double>(width) / static_cast<double>(native)
            : 1.0;
  }
  if (native <= 0) w = 1.0;  // constant image: GHE handles it
  return w >= 1.0 ? ghe
                  : blend_curves(ghe,
                                 affine_placement(lo, hi, target.g_min,
                                                  target.g_max,
                                                  ctx.max_pixel()),
                                 w, ctx.levels());
}

}  // namespace

hebs::transform::PwlCurve phi_for_target(const FrameContext& ctx,
                                         const core::GheTarget& target) {
  return phi_from_ghe(ctx, target, ctx.ghe(target));
}

core::HebsResult run_stages_at_range_lean(
    const FrameContext& ctx, int range,
    const hebs::transform::PwlCurve* ghe) {
  // The per-stage latency fault point precedes each of the five steps:
  // an installed stage-latency spec stalls there, making deadline-miss
  // behavior provokable with a deterministic clock lever (off = one
  // relaxed load per step).
  const auto stall = [] {
    util::fault::maybe_stall(util::fault::Point::kStageLatency);
  };
  core::HebsResult result;
  stall();
  (void)ctx.histogram();
  stall();
  result.target = select_target(ctx, range);
  stall();
  result.phi = ghe != nullptr ? phi_from_ghe(ctx, result.target, *ghe)
                              : phi_for_target(ctx, result.target);
  stall();
  core::PlcResult plc = core::plc_coarsen(result.phi, ctx.options().segments);
  result.lambda = std::move(plc.curve);
  result.plc_mse = plc.mse;
  stall();
  const double beta = core::beta_for_gmax(
      result.target.g_max, ctx.options().min_beta, ctx.max_pixel());
  result.point = core::OperatingPoint{result.lambda, beta};
  result.evaluation = ctx.evaluate_lean(result.point);
  return result;
}

core::HebsResult run_with_curve(const FrameContext& ctx, double d_max_percent,
                                const core::DistortionCurve& curve) {
  HEBS_REQUIRE(d_max_percent >= 0.0, "distortion budget must be >= 0");
  int range = curve.min_range_for(d_max_percent, /*worst_case=*/true);
  range = std::max(range, ctx.options().min_range);
  range = std::min(range, ctx.max_pixel() - ctx.options().g_min);
  return ctx.at_range(range);
}

namespace {

constexpr int kBetaRefineIters = 12;

// ---- speculative probes (DESIGN.md §11) ---------------------------------
//
// When the engine lends the search a lane board (ProbeLanes) the serial
// walk below borrows its servers: each probe it blocks on goes out in
// one round with the probes the same walk would make next under either
// outcome, all evaluated memo-free.  The walk itself is unchanged: it
// still asks for one probe at a time, and a speculated result enters the
// memos (and the probe/memo counters) only when the walk asks for it —
// so memo contents, counters and decisions are exactly the serial ones.

/// The lanes this decision may speculate on, with the frame caches the
/// lanes read already built; null = serial search.
ProbeLanes* speculation_lanes(const FrameContext& ctx) {
  ProbeLanes* lanes = ctx.probe_lanes();
  if (lanes == nullptr || !lanes->available()) return nullptr;
  const std::size_t pixels =
      ctx.bound16() ? ctx.image16().size() : ctx.image().size();
  if (pixels < ProbeLanes::kMinPixels) return nullptr;
  ctx.warm_probe_caches();
  // A full-range probe into a speculation slot (its storage reserved
  // just now, none pending yet) warms the member pools for any probe of
  // this frame.
  const ProbeLanes::Shape shape{
      ctx.bound16() ? ctx.image16().width() : ctx.image().width(),
      ctx.bound16() ? ctx.image16().height() : ctx.image().height(),
      ctx.levels(), ctx.options().segments};
  lanes->warm(shape, [&ctx] {
    RangeProbe& scratch = ctx.speculation_slots().front();
    ctx.probe_range(ctx.max_pixel() - ctx.options().g_min, scratch);
    scratch.pending = false;
  });
  return lanes;
}

/// Speculated range probes of one decision: a small ring of memo-free
/// results, adopted by FrameContext::distortion_at_range when the walk
/// asks for their target.
class RangeSpeculation {
 public:
  RangeSpeculation(const FrameContext& ctx, ProbeLanes* lanes, int lo, int hi)
      : ctx_(ctx),
        lanes_(lanes),
        lo_(lo),
        hi_(hi),
        slots_(ctx.speculation_slots()),
        probe_([this](std::size_t k) {
          try {
            ctx_.probe_range(round_[k].range, slots_[round_[k].slot]);
          } catch (...) {
            // Left not pending: the walk runs this probe itself if it
            // needs it, and fails exactly as the serial search would.
          }
        }) {}
  RangeSpeculation(const RangeSpeculation&) = delete;
  RangeSpeculation& operator=(const RangeSpeculation&) = delete;
  ~RangeSpeculation() {
    std::uint64_t wasted = 0;
    for (RangeProbe& p : slots_) {
      wasted += p.pending ? 1 : 0;
      p.pending = false;
    }
    if (wasted != 0) obs::add(obs::Counter::kSpecProbesWasted, wasted);
  }

  /// Called before the walk's probe at `range`.  Unless the memo or an
  /// earlier round already answers it, evaluates it in one round with
  /// `next` — the walk's possible next probes, in priority order;
  /// out-of-interval, answered and same-target entries drop out.
  void round(int range, std::initializer_list<int> next) {
    if (lanes_ == nullptr) return;
    round_n_ = 0;
    const std::size_t width = std::min(
        ProbeLanes::kMaxRound, static_cast<std::size_t>(lanes_->width()));
    add(range, width);
    if (round_n_ == 0) return;  // answered without a probe
    for (const int r : next) add(r, width);
    if (round_n_ < 2) return;  // nothing to overlap: the walk probes
    for (std::size_t k = 0; k < round_n_; ++k) {
      RangeProbe& slot = slots_[next_slot_];
      if (slot.pending) obs::add(obs::Counter::kSpecProbesWasted);
      slot.pending = false;
      round_[k].slot = next_slot_;
      next_slot_ = (next_slot_ + 1) % slots_.size();
    }
    if (!lanes_->run(round_n_, probe_)) return;
    std::uint64_t ran = 0;
    for (std::size_t k = 1; k < round_n_; ++k) {
      ran += slots_[round_[k].slot].pending ? 1 : 0;
    }
    obs::add(obs::Counter::kSpecProbes, ran);
  }

  std::span<RangeProbe> results() { return slots_; }

 private:
  void add(int range, std::size_t width) {
    if (range < lo_ || range > hi_ || round_n_ == width) return;
    if (ctx_.range_memoized(range)) return;
    const core::GheTarget t = select_target(ctx_, range);
    const auto same = [&t](const core::GheTarget& u) {
      return u.g_min == t.g_min && u.g_max == t.g_max;
    };
    for (const RangeProbe& p : slots_) {
      if (p.pending && same(p.target)) return;
    }
    for (std::size_t k = 0; k < round_n_; ++k) {
      if (same(round_[k].target)) return;
    }
    round_[round_n_++] = {range, t, 0};
  }

  struct Member {
    int range;
    core::GheTarget target;
    std::size_t slot;
  };
  const FrameContext& ctx_;
  ProbeLanes* lanes_;
  int lo_;
  int hi_;
  std::span<RangeProbe> slots_;
  std::size_t next_slot_ = 0;
  std::array<Member, ProbeLanes::kMaxRound> round_{};
  std::size_t round_n_ = 0;
  /// Built once per decision; captures only `this` (no allocation).
  const std::function<void(std::size_t)> probe_;
};

/// The scalar outcome of one β evaluation — all refine_beta keeps of a
/// probe (see the memo below).
struct BetaProbe {
  double beta;
  double distortion_percent;
  double saving_percent;
  hebs::power::PowerBreakdown power;
};

BetaProbe to_beta_probe(double beta, const core::EvaluatedPoint& ev) {
  return {beta, ev.distortion_percent, ev.saving_percent, ev.power};
}

/// Speculated β probes of one refinement (same scheme as
/// RangeSpeculation; the β memo lives in refine_beta, so the walk takes
/// results out explicitly).
class BetaSpeculation {
 public:
  BetaSpeculation(const FrameContext& ctx, ProbeLanes* lanes,
                  const hebs::transform::PwlCurve& lambda, double min_beta)
      : ctx_(ctx),
        lanes_(lanes),
        lambda_(lambda),
        min_beta_(min_beta),
        probe_([this](std::size_t k) {
          Slot& slot = slots_[round_[k]];
          try {
            const core::OperatingPoint p{lambda_,
                                         std::max(min_beta_, slot.beta)};
            slot.probe = to_beta_probe(slot.beta, ctx_.evaluate_lean(p));
            slot.pending = true;
          } catch (...) {
            // Not pending: the walk re-runs it if needed (see above).
          }
        }) {}
  BetaSpeculation(const BetaSpeculation&) = delete;
  BetaSpeculation& operator=(const BetaSpeculation&) = delete;
  ~BetaSpeculation() {
    std::uint64_t wasted = 0;
    for (const Slot& s : slots_) wasted += s.pending ? 1 : 0;
    if (wasted != 0) obs::add(obs::Counter::kSpecProbesWasted, wasted);
  }

  bool active() const noexcept { return lanes_ != nullptr; }

  /// The pending result at exactly `beta`, if any.
  const BetaProbe* peek(double beta) const {
    for (const Slot& s : slots_) {
      if (s.pending && s.beta == beta) return &s.probe;
    }
    return nullptr;
  }

  /// Takes the pending result at exactly `beta` (it stops pending).
  std::optional<BetaProbe> take(double beta) {
    for (Slot& s : slots_) {
      if (s.pending && s.beta == beta) {
        s.pending = false;
        return s.probe;
      }
    }
    return std::nullopt;
  }

  /// Evaluates `betas` — the probe the walk blocks on first, then its
  /// possible successors — in one round.  NaN entries (no successor, or
  /// already measured: the caller filters) are skipped.
  void round(const std::array<double, ProbeLanes::kMaxRound>& betas) {
    round_n_ = 0;
    const std::size_t width = std::min(
        ProbeLanes::kMaxRound, static_cast<std::size_t>(lanes_->width()));
    for (const double b : betas) {
      if (std::isnan(b) || round_n_ == width) continue;
      bool dup = false;
      for (std::size_t k = 0; k < round_n_; ++k) {
        dup = dup || slots_[round_[k]].beta == b;
      }
      if (dup) continue;
      Slot& slot = slots_[next_slot_];
      if (slot.pending) obs::add(obs::Counter::kSpecProbesWasted);
      slot.pending = false;
      slot.beta = b;
      round_[round_n_++] = next_slot_;
      next_slot_ = (next_slot_ + 1) % slots_.size();
    }
    if (round_n_ < 2) {
      if (round_n_ == 1) slots_[round_[0]].beta = kNoBeta;
      return;
    }
    if (!lanes_->run(round_n_, probe_)) return;
    std::uint64_t ran = 0;
    for (std::size_t k = 1; k < round_n_; ++k) {
      ran += slots_[round_[k]].pending ? 1 : 0;
    }
    obs::add(obs::Counter::kSpecProbes, ran);
  }

 private:
  static constexpr double kNoBeta = -1.0;
  struct Slot {
    bool pending = false;
    double beta = kNoBeta;
    BetaProbe probe{};
  };
  const FrameContext& ctx_;
  ProbeLanes* lanes_;
  const hebs::transform::PwlCurve& lambda_;
  double min_beta_;
  std::array<Slot, 8> slots_{};
  std::size_t next_slot_ = 0;
  std::array<std::size_t, ProbeLanes::kMaxRound> round_{};
  std::size_t round_n_ = 0;
  const std::function<void(std::size_t)> probe_;
};

/// Concurrent brightness-scaling refinement: with Λ fixed, bisect β
/// below its luminance-exact value while the measured distortion stays
/// within budget, and keep the result when it saves more power.
///
/// `seed`/`trace` (both nullable) carry the temporal warm start: the
/// seeded path replays the previous frame's feasibility decisions
/// arithmetically and verifies only the final bracket endpoints — under
/// monotone feasibility in β (dimmer can only distort more), a verified
/// final bracket forces every intermediate decision, so the replay is
/// exactly the trajectory the cold bisection would take.  Any
/// verification miss runs the cold loop.  `lanes` (nullable) lends idle
/// workers for speculative probes.
void refine_beta(const FrameContext& ctx, double d_max_percent,
                 core::HebsResult& result, const SearchTrace* seed,
                 SearchTrace* trace, ProbeLanes* lanes) {
  obs::ScopedSpan refine_span(obs::Span::kBetaRefine);
  const core::OperatingPoint base = result.point;
  const double min_beta = ctx.options().min_beta;
  // Lean evaluations: only the winning candidate's transformed raster
  // is materialized (below), not one per bisection probe.
  auto eval_at = [&](double beta) {
    obs::add(obs::Counter::kBetaProbes);
    obs::ScopedSpan probe_span(obs::Span::kBetaProbe,
                               static_cast<std::int32_t>(beta * 1e6));
    const core::OperatingPoint p{base.luminance_transform,
                                 std::max(min_beta, beta)};
    return ctx.evaluate_lean(p);
  };

  const double floor_beta = std::max(min_beta, 0.25 * base.beta);
  if (trace != nullptr) {
    trace->refine_ran = true;
    trace->base_beta = base.beta;
    trace->floor_beta = floor_beta;
  }
  // The best candidate is tracked by its scalar outcomes, not as a full
  // EvaluatedPoint: an EvaluatedPoint owns a pool-backed copy of the
  // luminance curve, and holding one per memoized probe (content-
  // dependent, up to ~32 at once) gave the steady state a working-set
  // high-water mark no warm-up pass could bound — the one pool miss
  // bench_alloc_steady_state catches.  The winner's EvaluatedPoint is
  // rebuilt from those scalars at the end: every field of it is a
  // scalar kept here, Λ, or the frame's reference power.
  BetaProbe best{base.beta, result.evaluation.distortion_percent,
                 result.evaluation.saving_percent, result.evaluation.power};
  const BetaProbe at_floor = to_beta_probe(floor_beta, eval_at(floor_beta));
  if (at_floor.distortion_percent <= d_max_percent) {
    best = at_floor;
    if (trace != nullptr) trace->floor_feasible = true;
  } else {
    // Exact β-evaluations land on a small set of fp points shared by
    // the falsi probes, the coarse prediction walk, the endpoint
    // verification and the cold fallback; memoizing their scalar
    // outcomes (exact double compare) makes every re-visit free without
    // changing any produced value.
    std::array<BetaProbe, 36> evals;
    std::size_t evals_n = 0;
    BetaSpeculation spec(ctx, lanes, base.luminance_transform, min_beta);
    auto memo_find = [&](double beta) -> const BetaProbe* {
      for (std::size_t k = 0; k < evals_n; ++k) {
        if (evals[k].beta == beta) return &evals[k];
      }
      return nullptr;
    };
    auto eval_memo = [&](double beta) -> const BetaProbe& {
      if (const BetaProbe* hit = memo_find(beta)) {
        obs::add(obs::Counter::kEvalMemoHit);
        return *hit;
      }
      obs::add(obs::Counter::kEvalMemoMiss);
      BetaProbe probe{};
      if (const auto speculated = spec.take(beta)) {
        // The speculated evaluation of this very β: counted as the
        // probe the serial walk makes here.
        obs::add(obs::Counter::kBetaProbes);
        obs::ScopedSpan probe_span(obs::Span::kBetaProbe,
                                   static_cast<std::int32_t>(beta * 1e6));
        probe = *speculated;
      } else {
        probe = to_beta_probe(beta, eval_at(beta));
      }
      if (evals_n == evals.size()) {
        // Unreachable (≤ 32 distinct points per refinement); kept safe.
        evals.back() = probe;
        return evals.back();
      }
      evals[evals_n] = probe;
      return evals[evals_n++];
    };
    // Speculation along the dyadic walks below: the walk's outcome at a
    // β already measured (memo) or speculated, without counting it.
    auto known = [&](double beta) -> const BetaProbe* {
      if (const BetaProbe* p = memo_find(beta)) return p;
      return spec.peek(beta);
    };
    // A point of the dyadic walk (the cold loop's mids, which phase 2
    // replays): the bisection bracket, the measured bracket (phase 2
    // only) and the iteration.
    struct Walk {
      double feasible;
      double infeasible;
      double b_feas;
      double b_inf;
      int i;
    };
    constexpr double kNone = std::numeric_limits<double>::quiet_NaN();
    // Advances `w` past every mid the measured bracket (`bracket`: phase
    // 2) or a known value classifies, as the walk itself would, and
    // returns the first mid it would have to measure (`w` then stands
    // at it), or NaN when the walk ends first.
    auto advance = [&](Walk& w, bool bracket) {
      for (; w.i < kBetaRefineIters; ++w.i) {
        const double mid = (w.feasible + w.infeasible) / 2.0;
        bool mid_feasible;
        if (bracket && mid >= w.b_feas) {
          mid_feasible = true;
        } else if (bracket && mid <= w.b_inf) {
          mid_feasible = false;
        } else if (const BetaProbe* p = known(mid)) {
          mid_feasible = p->distortion_percent <= d_max_percent;
          (mid_feasible ? w.b_feas : w.b_inf) = mid;
        } else {
          return mid;
        }
        (mid_feasible ? w.feasible : w.infeasible) = mid;
      }
      return kNone;
    };
    // The next mid the walk standing at `w` measures after measuring
    // `mid` there with the given outcome.
    auto after = [&](Walk w, double mid, bool feasible, bool bracket) {
      if (std::isnan(mid)) return kNone;
      (feasible ? w.feasible : w.infeasible) = mid;
      (feasible ? w.b_feas : w.b_inf) = mid;
      ++w.i;
      return advance(w, bracket);
    };
    // One round: `blocking` (the β the walk asks for next) with its
    // successors; already-known entries drop out.
    auto speculate = [&](double blocking, double a, double b) {
      if (!spec.active() || known(blocking) != nullptr) return;
      const auto unknown = [&](double x) {
        return std::isnan(x) || known(x) != nullptr ? kNone : x;
      };
      spec.round({blocking, unknown(a), unknown(b)});
    };
    // Attempts to adopt a predicted 12-bit decision path: replays the
    // same fp mid arithmetic the cold loop performs with decisions taken
    // from `path`, then verifies only the final bracket endpoints.
    // feasible == base.beta needs no probe (the range search already
    // measured it within budget); infeasible == floor_beta was just
    // measured over budget.  Under monotone feasibility in β (dimmer can
    // only distort more), a verified final bracket forces every
    // intermediate decision, so an adopted path is exactly the
    // trajectory the cold bisection would take.
    auto try_path = [&](std::uint16_t path) -> bool {
      double feasible = base.beta;
      double infeasible = floor_beta;
      bool any_feasible = false;
      for (int i = 0; i < kBetaRefineIters; ++i) {
        const double mid = (feasible + infeasible) / 2.0;
        if ((path >> i) & 1u) {
          feasible = mid;
          any_feasible = true;
        } else {
          infeasible = mid;
        }
      }
      const bool check_infeasible = infeasible != floor_beta;
      // Both endpoints in one round.
      if (any_feasible && check_infeasible) {
        speculate(feasible, infeasible, kNone);
      }
      bool ok = true;
      const BetaProbe* ev_f = nullptr;
      if (any_feasible) {
        ev_f = &eval_memo(feasible);
        ok = ev_f->distortion_percent <= d_max_percent;
      }
      if (ok && check_infeasible) {
        ok = eval_memo(infeasible).distortion_percent > d_max_percent;
      }
      if (!ok) return false;
      if (any_feasible) best = *ev_f;
      if (trace != nullptr) trace->beta_path = path;
      return true;
    };

    bool replayed = false;
    if (seed != nullptr && seed->valid && seed->refine_ran &&
        !seed->floor_feasible && seed->base_beta == base.beta &&
        seed->floor_beta == floor_beta) {
      replayed = try_path(seed->beta_path);
    }
    if (!replayed && ctx.options().coarse_search &&
        ctx.histogram().max_level() > ctx.histogram().min_level()) {
      // Measured-value walk: Illinois-damped regula falsi on the exact
      // (memoized) evaluations pre-localizes the feasibility crossing,
      // then the cold loop's 12 dyadic mids are replayed with each
      // decision inferred from the measured bracket where monotone
      // feasibility forces it, and measured directly where it does not.
      // The resulting path is endpoint-verified like a temporal seed.
      // The decimated proxy is deliberately not consulted here:
      // decimation discards exactly the clipped detail the metric
      // charges β for, so its values saturate near the crossing and
      // proxy-guided decisions go wrong on the deep bits — value
      // interpolation between exact measurements converges in a handful
      // of evaluations instead.  Constant frames skip the walk (the
      // outer `native > 0` gate): their windowed distortion degenerates
      // to catastrophic-cancellation residue, non-monotone in β, and
      // only the verbatim cold loop reproduces the frozen answer.
      double b_inf = floor_beta;  // measured over budget
      double b_feas = base.beta;  // measured within budget
      double d_inf = at_floor.distortion_percent;
      double d_feas = result.evaluation.distortion_percent;
      // Phase 1: shrink the measured bracket below the dyadic walk's
      // final resolution so phase 2 can infer (almost) every decision.
      // Only the feasibility SIGNS feed the walk; the values merely
      // steer the interpolation (distortion dips non-monotonically just
      // below base β on many frames, which is harmless: the cold loop,
      // and hence the replay contract, only cares about the budget
      // crossing).  Each step depends on the value just measured, so
      // no falsi guess is speculated — but while the caller measures
      // one, two lanes measure the first mid phase 2 would measure
      // under the current bracket and its successor if that mid is
      // feasible: phase 2 asks for them whenever they stay inside the
      // final bracket.
      const double resolution = (base.beta - floor_beta) / 4096.0;
      constexpr int kFalsiProbes = 4;
      double w_inf = 1.0;
      double w_feas = 1.0;
      int last_side = 0;
      for (int probe = 0;
           probe < kFalsiProbes && b_feas - b_inf > resolution; ++probe) {
        const double di = w_inf * (d_inf - d_max_percent);
        const double df = w_feas * (d_feas - d_max_percent);
        const double margin = 0.125 * (b_feas - b_inf);
        const double guess = std::clamp(
            b_inf + di / (di - df) * (b_feas - b_inf), b_inf + margin,
            b_feas - margin);
        if (spec.active()) {
          Walk w{base.beta, floor_beta, b_feas, b_inf, 0};
          const double replay_mid = advance(w, true);
          speculate(guess, replay_mid, after(w, replay_mid, true, true));
        }
        const double d = eval_memo(guess).distortion_percent;
        if (d <= d_max_percent) {
          b_feas = guess;
          d_feas = d;
          if (last_side == +1) w_inf *= 0.5;  // Illinois: damp stale end
          w_feas = 1.0;
          last_side = +1;
        } else {
          b_inf = guess;
          d_inf = d;
          if (last_side == -1) w_feas *= 0.5;
          w_inf = 1.0;
          last_side = -1;
        }
      }
      // Phase 2: replay the cold mids against the measured bracket,
      // evaluating only the mids the bracket cannot classify.
      {
        std::uint16_t predicted = 0;
        double feasible = base.beta;
        double infeasible = floor_beta;
        for (int i = 0; i < kBetaRefineIters; ++i) {
          const double mid = (feasible + infeasible) / 2.0;
          bool mid_feasible;
          if (mid >= b_feas) {
            mid_feasible = true;
          } else if (mid <= b_inf) {
            mid_feasible = false;
          } else {
            const Walk at{feasible, infeasible, b_feas, b_inf, i};
            speculate(mid, after(at, mid, true, true),
                      after(at, mid, false, true));
            mid_feasible =
                eval_memo(mid).distortion_percent <= d_max_percent;
            if (mid_feasible) {
              b_feas = mid;
            } else {
              b_inf = mid;
            }
          }
          if (mid_feasible) {
            feasible = mid;
            predicted |= static_cast<std::uint16_t>(1u << i);
          } else {
            infeasible = mid;
          }
        }
        replayed = try_path(predicted);
      }
    }
    if (!replayed) {
      double feasible = base.beta;
      double infeasible = floor_beta;
      std::uint16_t path = 0;
      for (int i = 0; i < kBetaRefineIters; ++i) {
        const double mid = (feasible + infeasible) / 2.0;
        const Walk at{feasible, infeasible, 0.0, 0.0, i};
        speculate(mid, after(at, mid, true, false), after(at, mid, false, false));
        const BetaProbe& eval = eval_memo(mid);
        if (eval.distortion_percent <= d_max_percent) {
          feasible = mid;
          best = eval;
          path |= static_cast<std::uint16_t>(1u << i);
        } else {
          infeasible = mid;
        }
      }
      if (trace != nullptr) trace->beta_path = path;
    }
  }
  if (best.saving_percent > result.evaluation.saving_percent) {
    // Rebuild the winner's evaluation from its kept scalars — the very
    // values evaluate_lean produced for it — and materialize its raster
    // exactly once.
    core::EvaluatedPoint ev;
    ev.point = core::OperatingPoint{base.luminance_transform,
                                    std::max(min_beta, best.beta)};
    ev.distortion_percent = best.distortion_percent;
    ev.saving_percent = best.saving_percent;
    ev.power = best.power;
    ev.reference_power = ctx.reference_power();
    result.evaluation = std::move(ev);
    result.point = result.evaluation.point;
    ctx.materialize_transformed(result);
  }
  refine_span.set_arg(static_cast<std::int32_t>(best.beta * 1000.0));
}

}  // namespace

core::HebsResult run_exact_traced(const FrameContext& ctx,
                                  double d_max_percent,
                                  const SearchTrace* seed,
                                  SearchTrace* trace) {
  HEBS_REQUIRE(d_max_percent >= 0.0, "distortion budget must be >= 0");
  obs::add(obs::Counter::kFramesDecided);
  // The decision span covers the range search and the nested β
  // refinement; per-probe evaluations open their own child spans.
  obs::ScopedSpan decide_span(obs::Span::kRangeSearch);
  const int hi = ctx.max_pixel() - ctx.options().g_min;
  const int lo = std::min(ctx.options().min_range, hi);
  if (trace != nullptr) *trace = SearchTrace{};

  // Distortion decreases (weakly) as the admissible range grows, so the
  // smallest feasible range can be found by bisection on integers.  Each
  // probe is memoized in the context (curves and scalars only — no
  // per-probe raster), so revisited ranges cost nothing.  `next` names
  // the probes the walk may make right after this one, for the
  // speculation lanes (if lent).
  ProbeLanes* const lanes = speculation_lanes(ctx);
  RangeSpeculation spec(ctx, lanes, lo, hi);
  auto distortion_at = [&](int range, std::initializer_list<int> next = {}) {
    obs::add(obs::Counter::kRangeProbes);
    obs::ScopedSpan probe_span(obs::Span::kRangeProbe, range);
    spec.round(range, next);
    return ctx.distortion_at_range(range, spec.results());
  };

  core::HebsResult result;
  int chosen = 0;
  bool found = false;

  // Bounded local walk from a starting range to the verified bracket
  // p(r) ∧ (r = lo ∨ ¬p(r−1)) — under monotone feasibility in range the
  // minimal feasible range, which is where the cold bisection lands.
  // Returns nullopt when the budget runs out before the bracket is
  // established; a failed walk costs little extra, since every probe is
  // memoized and the fallback searches reuse it.
  auto verified_walk = [&](int start, int budget) -> std::optional<int> {
    int r = std::clamp(start, lo, hi);
    if (distortion_at(r) <= d_max_percent) {
      // Feasible: walk down to the smallest feasible range.
      while (r > lo && budget > 0 && distortion_at(r - 1) <= d_max_percent) {
        --r;
        --budget;
      }
      // Established when the loop stopped on the bracket condition, not
      // on an exhausted budget.
      if (r == lo || (budget > 0 && distortion_at(r - 1) > d_max_percent)) {
        return r;
      }
      return std::nullopt;
    }
    // Infeasible: walk up to the first feasible range (¬p(r−1) holds for
    // every range the walk passes).
    while (r < hi && budget > 0) {
      ++r;
      --budget;
      if (distortion_at(r) <= d_max_percent) return r;
    }
    return std::nullopt;
  };

  // Warm path: walk from the seeded range instead of a full bisection.
  // The cap keeps a stale seed cheap — past kWarmRangeWalk probes the
  // bisection is competitive.
  constexpr int kWarmRangeWalk = 5;
  if (seed != nullptr && seed->valid) {
    if (seed->hi_infeasible) {
      if (distortion_at(hi) > d_max_percent) {
        if (trace != nullptr) {
          trace->valid = true;
          trace->hi_infeasible = true;
          trace->range = hi;
          trace->warmed = true;
        }
        // Cold's early exit: the least-distorted point, no refinement.
        return ctx.at_range(hi);
      }
    } else if (const auto r = verified_walk(seed->range, kWarmRangeWalk)) {
      chosen = *r;
      result = ctx.at_range(chosen);
      found = true;
      if (trace != nullptr) trace->warmed = true;
    }
  }

  // Coarse path: close the exact bracket with value interpolation
  // instead of blind bisection.  Feasibility always comes from the
  // exact evaluator, every probe strictly tightens the exact bracket,
  // and the loop exits only on measured facts: either d(hi) over
  // budget (the cold early exit) or the verified bracket p(r) ∧ (r =
  // lo ∨ ¬p(r−1)) — the cold bisection's answer under weakly monotone
  // measured distortion.  Probe choice, in order of information in
  // hand: with a measured point on each side, a secant through the two
  // exact values (with a stall guard that reverts to the midpoint when
  // a probe cuts less than a quarter of the bracket, so the worst case
  // stays logarithmic); with one side only, the decimated proxy
  // offset-calibrated through the measured point; with nothing (or no
  // usable proxy), the cold order — top of the interval first.
  // Typical cost: 2–4 full-resolution probes instead of the
  // bisection's ~log2(hi−lo).  Constant frames are excluded: their
  // sub-clamp distortion is catastrophic-cancellation residue,
  // non-monotone in range, and only the verbatim cold probe sequence
  // reproduces the frozen answer (their probes are cheap anyway — every
  // range at or above the populated level collapses to one memoized
  // target).
  if (!found && ctx.options().coarse_search &&
      ctx.histogram().max_level() > ctx.histogram().min_level()) {
    const bool proxy = ctx.approx_distortion_at_range(hi).has_value();
    const auto approx_at = [&](int range) {
      return *ctx.approx_distortion_at_range(range);
    };
    int lo_bound = lo - 1;  // largest range measured infeasible (none yet)
    int hi_bound = hi + 1;  // smallest range measured feasible (none yet)
    double d_lo = 0.0;      // exact distortion at lo_bound, once measured
    double d_hi = 0.0;      // exact distortion at hi_bound, once measured
    double w_lo = 1.0;      // Illinois weights for the two-sided secant
    double w_hi = 1.0;
    int last_side = 0;
    int last_width = 0;
    int proxy_guesses = 0;
    while (hi_bound != lo && lo_bound + 1 != hi_bound) {
      bool first_proxy_guess = false;
      const int c_lo = lo_bound + 1;
      const int c_hi = std::min(hi, hi_bound - 1);
      const int width = hi_bound - lo_bound;
      const bool stalled =
          last_width != 0 && width > last_width - last_width / 4;
      last_width = width;
      int guess;
      if (lo_bound >= lo && hi_bound <= hi) {
        // Both sides measured: a secant through the exact values,
        // Illinois-damped so a run of same-side updates cannot creep
        // (the stale end's residual is halved, pulling the next guess
        // across).  A stalled probe reverts to the midpoint outright,
        // keeping the worst case logarithmic.
        if (stalled) {
          guess = lo_bound + width / 2;
        } else {
          const double rl = w_lo * (d_lo - d_max_percent);
          const double rh = w_hi * (d_hi - d_max_percent);
          guess = lo_bound + static_cast<int>(rl / (rl - rh) *
                                              static_cast<double>(width));
        }
        guess = std::clamp(guess, c_lo, c_hi);
      } else if (hi_bound <= hi) {
        // Only a feasible point so far: test adjacency at the bottom.
        // Decisive either way — feasible closes the bracket at lo,
        // infeasible switches to the two-sided secant.
        guess = c_lo;
      } else if (proxy && proxy_guesses < 3) {
        // Only infeasible measurements (or none): take the proxy's
        // predicted crossing — raw on the first probe, ratio-calibrated
        // through the measured point after (decimation compresses the
        // distortion scale roughly proportionally, so a multiplicative
        // fit tracks where an additive offset overshoots); c_hi when
        // the calibrated proxy believes nothing fits (which probes the
        // exact top of the open interval — at the first iteration the
        // d(hi) measurement that decides the cold early exit).  Two
        // guesses of this kind suffice to seed the secant; past that
        // the cold order below takes over.
        first_proxy_guess = ++proxy_guesses == 1;
        double scale = 1.0;
        if (lo_bound >= lo && approx_at(lo_bound) > 1e-6) {
          scale = d_lo / approx_at(lo_bound);
        }
        guess = c_hi;
        if (approx_at(c_lo) * scale <= d_max_percent) {
          guess = c_lo;
        } else if (c_hi > c_lo &&
                   approx_at(c_hi) * scale <= d_max_percent) {
          int infeasible = c_lo;
          int feasible = c_hi;
          while (feasible - infeasible > 1) {
            const int mid = (feasible + infeasible) / 2;
            if (approx_at(mid) * scale <= d_max_percent) {
              feasible = mid;
            } else {
              infeasible = mid;
            }
          }
          guess = feasible;
        }
      } else {
        // No usable proxy (tiny frames) or its two guesses spent: cold
        // order — the top of the interval first, midpoint progress once
        // a bound is in hand.
        guess = lo_bound < lo ? c_hi
                              : std::clamp(lo_bound + width / 2, c_lo, c_hi);
      }
      // Speculation: the next exact probe is often adjacent; after the
      // first proxy guess it is `lo` when the guess is feasible (the
      // bottom adjacency test), and above the guess when it is not.
      const double d = first_proxy_guess
                           ? distortion_at(guess, {lo, guess + 1})
                           : distortion_at(guess, {guess - 1, guess + 1});
      if (d <= d_max_percent) {
        hi_bound = guess;
        d_hi = d;
        if (last_side == +1) w_lo *= 0.5;
        w_hi = 1.0;
        last_side = +1;
      } else {
        lo_bound = guess;
        d_lo = d;
        if (last_side == -1) w_hi *= 0.5;
        w_lo = 1.0;
        last_side = -1;
      }
    }
    if (lo_bound == hi) {
      // d(hi) measured over budget: the cold early exit (least-distorted
      // point, no refinement).
      if (trace != nullptr) {
        trace->valid = true;
        trace->hi_infeasible = true;
        trace->range = hi;
      }
      return ctx.at_range(hi);
    }
    chosen = hi_bound;
    result = ctx.at_range(chosen);
    found = true;
  }

  if (!found) {
    // Speculation follows the bisection: `lo` is the probe after a
    // feasible `hi`, the first mid the one after an infeasible `lo`,
    // and each mid goes out with the next mid on either outcome.
    if (distortion_at(hi, {lo}) > d_max_percent) {
      // Even the widest range misses the budget (tiny budgets on busy
      // images): return the least-distorted point.
      if (trace != nullptr) {
        trace->valid = true;
        trace->hi_infeasible = true;
        trace->range = hi;
      }
      return ctx.at_range(hi);
    }
    if (distortion_at(lo, {(lo + hi) / 2}) <= d_max_percent) {
      chosen = lo;
    } else {
      int infeasible = lo;  // distortion > budget here
      int feasible = hi;    // distortion <= budget here
      while (feasible - infeasible > 1) {
        const int mid = (feasible + infeasible) / 2;
        if (distortion_at(mid, {(infeasible + mid) / 2,
                                (mid + feasible) / 2}) <= d_max_percent) {
          feasible = mid;
        } else {
          infeasible = mid;
        }
      }
      chosen = feasible;
    }
    result = ctx.at_range(chosen);
  }

  if (ctx.options().concurrent_scaling) {
    refine_beta(ctx, d_max_percent, result, seed, trace, lanes);
  }
  if (trace != nullptr) {
    trace->valid = true;
    trace->range = chosen;
  }
  return result;
}

core::HebsResult run_exact(const FrameContext& ctx, double d_max_percent) {
  return run_exact_traced(ctx, d_max_percent, nullptr, nullptr);
}

}  // namespace hebs::pipeline
