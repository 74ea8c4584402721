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
/// Regula falsi steps of the coarse β search before its replay.
constexpr int kFalsiProbes = 4;

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
/// probe (see its table).
struct BetaProbe {
  double beta;
  double distortion_percent;
  double saving_percent;
  hebs::power::PowerBreakdown power;
};

/// Concurrent brightness-scaling refinement: with Λ fixed, bisect β
/// below its luminance-exact value while the measured distortion stays
/// within budget, and keep the result when it saves more power.
///
/// The bisection is one dyadic walk of kBetaRefineIters mids (`walk`),
/// run four ways: the cold loop measures every mid, the temporal seed
/// (`seed`/`trace`, both nullable) and the coarse search's phase 2
/// replay it, and the speculation predictor runs it ahead on known
/// outcomes.  A replayed path is adopted only once its final bracket
/// endpoints verify: under monotone feasibility in β (dimmer can only
/// distort more) they force every intermediate decision, so the replay
/// is exactly the cold trajectory.  A miss runs the cold loop.  All β
/// outcomes, measured or speculated, live in one table.  `lanes`
/// (nullable) lends idle workers for speculative probes.
void refine_beta(const FrameContext& ctx, double d_max_percent,
                 core::HebsResult& result, const SearchTrace* seed,
                 SearchTrace* trace, ProbeLanes* lanes) {
  obs::ScopedSpan refine_span(obs::Span::kBetaRefine);
  const core::OperatingPoint base = result.point;
  const double min_beta = ctx.options().min_beta;
  // Lean evaluations: only the winning candidate's transformed raster
  // is materialized (below), not one per bisection probe.
  auto lean_at = [&](double beta) {
    const core::EvaluatedPoint ev = ctx.evaluate_lean(
        core::OperatingPoint{base.luminance_transform,
                             std::max(min_beta, beta)});
    return BetaProbe{beta, ev.distortion_percent, ev.saving_percent,
                     ev.power};
  };
  auto eval_at = [&](double beta) {
    obs::add(obs::Counter::kBetaProbes);
    obs::ScopedSpan probe_span(obs::Span::kBetaProbe,
                               static_cast<std::int32_t>(beta * 1e6));
    return lean_at(beta);
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
  const BetaProbe at_floor = eval_at(floor_beta);
  if (at_floor.distortion_percent <= d_max_percent) {
    best = at_floor;
    if (trace != nullptr) trace->floor_feasible = true;
  } else {
    // The refinement's β outcomes, one entry per β (exact double
    // compare): measured ones, which the walk asked for, and pending
    // ones, which a lane computed ahead.  The walk's probes land on a
    // small set of shared fp points, so a measured entry makes every
    // re-visit free without changing any produced value.  No
    // allocation: the walk measures at most kWalkMax distinct β (two
    // seed endpoints, the falsi probes, the phase-2 mids, two predicted
    // endpoints, the cold mids), and a round adds speculative members
    // only while at most kSpecRoom entries stay pending.
    struct Entry {
      BetaProbe probe;
      bool pending;  ///< computed by a lane, not yet asked for
    };
    constexpr std::size_t kWalkMax =
        2 + kFalsiProbes + 2 * kBetaRefineIters + 2;
    constexpr std::size_t kSpecRoom = 32;
    std::array<Entry, kWalkMax + kSpecRoom> table;
    std::size_t table_n = 0;
    std::size_t pending_n = 0;
    auto find = [&](double beta) -> Entry* {
      for (std::size_t k = 0; k < table_n; ++k) {
        if (table[k].probe.beta == beta) return &table[k];
      }
      return nullptr;
    };
    // The walk's probe at `beta`.  A measured entry is a memo hit; a
    // pending one is adopted and counted as the probe the serial walk
    // makes here.
    auto eval_memo = [&](double beta) -> const BetaProbe& {
      Entry* e = find(beta);
      if (e != nullptr && !e->pending) {
        obs::add(obs::Counter::kEvalMemoHit);
        return e->probe;
      }
      obs::add(obs::Counter::kEvalMemoMiss);
      if (e == nullptr) {
        table[table_n] = {eval_at(beta), false};
        return table[table_n++].probe;
      }
      obs::add(obs::Counter::kBetaProbes);
      obs::ScopedSpan probe_span(obs::Span::kBetaProbe,
                                 static_cast<std::int32_t>(beta * 1e6));
      e->pending = false;
      --pending_n;
      return e->probe;
    };

    // One speculation round (DESIGN.md §11): `blocking`, the β the walk
    // asks for next, goes out with `a` and `b`, its possible successors
    // (NaN and tabled ones drop out).  Each member is appended to the
    // table and evaluated memo-free, member 0 by this thread.  Members
    // no lane computed — unclaimed, or thrown: the walk then runs that
    // probe itself and fails exactly as the serial search would — are
    // dropped after the round.
    std::size_t round_at = 0;  // the round's first entry
    const auto run_member = [&](std::size_t k) {
      Entry& e = table[round_at + k];
      try {
        e.probe = lean_at(e.probe.beta);
        e.pending = true;
      } catch (...) {
      }
    };
    // Wrapping a reference: building the std::function allocates nothing.
    const std::function<void(std::size_t)> member(std::cref(run_member));
    auto speculate = [&](double blocking, double a, double b) {
      if (lanes == nullptr || find(blocking) != nullptr) return;
      const std::size_t width = std::min(
          ProbeLanes::kMaxRound, static_cast<std::size_t>(lanes->width()));
      round_at = table_n;
      table[table_n++] = {{blocking, 0.0, 0.0, {}}, false};
      for (const double x : {a, b}) {
        const std::size_t n = table_n - round_at;
        // A full table posts only the blocking probe.
        if (std::isnan(x) || n >= width || pending_n + n > kSpecRoom ||
            find(x) != nullptr) {
          continue;
        }
        table[table_n++] = {{x, 0.0, 0.0, {}}, false};
      }
      if (table_n - round_at >= 2) lanes->run(table_n - round_at, member);
      std::size_t kept = round_at;
      std::uint64_t ran = 0;
      for (std::size_t k = round_at; k < table_n; ++k) {
        if (!table[k].pending) continue;
        ran += k > round_at ? 1 : 0;
        table[kept++] = table[k];
      }
      pending_n += kept - round_at;
      table_n = kept;
      if (ran != 0) obs::add(obs::Counter::kSpecProbes, ran);
    };

    // A point of the dyadic walk: the bisection bracket, the measured
    // bracket (phase 2 classifies by it), the iteration and the
    // decisions taken (bit i = mid i feasible).
    struct Walk {
      double feasible;
      double infeasible;
      bool bracket = false;
      double b_feas = 0.0;
      double b_inf = 0.0;
      int i = 0;
      std::uint16_t path = 0;
    };
    constexpr double kNone = std::numeric_limits<double>::quiet_NaN();
    // Steps `w` through the cold loop's mids.  A mid the measured
    // bracket classifies (phase 2) is followed; any other is classified
    // by `decide(w, mid)` — its feasibility, or nullopt to stop there.
    // Returns the mid the walk stopped at (`w` then stands at it), or
    // NaN once it has taken every step.
    const auto walk = [&](Walk& w, const auto& decide) {
      for (; w.i < kBetaRefineIters; ++w.i) {
        const double mid = (w.feasible + w.infeasible) / 2.0;
        bool feasible;
        if (w.bracket && mid >= w.b_feas) {
          feasible = true;
        } else if (w.bracket && mid <= w.b_inf) {
          feasible = false;
        } else if (const std::optional<bool> d = decide(w, mid)) {
          feasible = *d;
          (feasible ? w.b_feas : w.b_inf) = mid;
        } else {
          return mid;
        }
        (feasible ? w.feasible : w.infeasible) = mid;
        if (feasible) w.path |= static_cast<std::uint16_t>(1u << w.i);
      }
      return kNone;
    };
    // The predictor's classifier: the table's outcome at `mid`
    // (measured or pending), uncounted.
    const auto known = [&](const Walk&, double mid) -> std::optional<bool> {
      const Entry* e = find(mid);
      if (e == nullptr) return std::nullopt;
      return e->probe.distortion_percent <= d_max_percent;
    };
    // The mid the walk standing at `w` measures next once the mid there
    // measured `feasible`.
    const auto after = [&](Walk w, bool feasible) {
      const int at = w.i;
      return walk(w, [&](const Walk& v, double mid) {
        return v.i == at ? std::optional<bool>(feasible) : known(v, mid);
      });
    };
    // Phase 2's and the cold loop's classifier: measures the mid, in one
    // round with the next undetermined mid on each outcome.
    const auto measure = [&](const Walk& w,
                             double mid) -> std::optional<bool> {
      speculate(mid, after(w, true), after(w, false));
      return eval_memo(mid).distortion_percent <= d_max_percent;
    };

    // Attempts to adopt a predicted decision path: replays it, then
    // verifies only the final bracket endpoints.  feasible == base.beta
    // needs no probe (the range search already measured it within
    // budget); infeasible == floor_beta was just measured over budget.
    auto try_path = [&](std::uint16_t path) -> bool {
      Walk w{base.beta, floor_beta};
      walk(w, [path](const Walk& v, double) {
        return std::optional<bool>(((path >> v.i) & 1u) != 0);
      });
      const bool any_feasible = w.path != 0;
      const bool check_infeasible = w.infeasible != floor_beta;
      // Both endpoints in one round.
      if (any_feasible && check_infeasible) {
        speculate(w.feasible, w.infeasible, kNone);
      }
      if ((any_feasible &&
           eval_memo(w.feasible).distortion_percent > d_max_percent) ||
          (check_infeasible &&
           eval_memo(w.infeasible).distortion_percent <= d_max_percent)) {
        return false;
      }
      if (any_feasible) best = find(w.feasible)->probe;
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
      // crossing).  A guess depends on the value just measured, so none
      // is speculated; its round carries the first mid phase 2 would
      // measure under the current bracket and that mid's feasible
      // successor, which phase 2 asks for while they stay in bracket.
      const double resolution = (base.beta - floor_beta) / 4096.0;
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
        if (lanes != nullptr) {
          Walk w{base.beta, floor_beta, true, b_feas, b_inf};
          const double replay_mid = walk(w, known);
          speculate(guess, replay_mid, after(w, true));
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
      // measuring only the mids the bracket cannot classify.
      Walk w{base.beta, floor_beta, true, b_feas, b_inf};
      walk(w, measure);
      replayed = try_path(w.path);
    }
    if (!replayed) {
      Walk w{base.beta, floor_beta};
      walk(w, measure);
      if (w.path != 0) best = find(w.feasible)->probe;
      if (trace != nullptr) trace->beta_path = w.path;
    }
    if (pending_n != 0) obs::add(obs::Counter::kSpecProbesWasted, pending_n);
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
