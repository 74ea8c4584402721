#include "pipeline/frame_context.h"

#include <algorithm>
#include <cmath>

#include "core/backlight.h"
#include "core/ghe.h"
#include "core/plc.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "pipeline/stages.h"
#include "transform/lut.h"
#include "util/error.h"
#include "util/faultpoint.h"
#include "util/mathutil.h"

namespace hebs::pipeline {

FrameContext::FrameContext(core::HebsOptions opts,
                           hebs::power::LcdSubsystemPower model)
    : opts_(std::move(opts)), model_(std::move(model)) {}

FrameContext::FrameContext(const hebs::image::GrayImage& image,
                           core::HebsOptions opts,
                           hebs::power::LcdSubsystemPower model)
    : opts_(std::move(opts)), model_(std::move(model)) {
  rebind(image);
}

FrameContext::FrameContext(const hebs::image::GrayImage16& image,
                           core::HebsOptions opts,
                           hebs::power::LcdSubsystemPower model)
    : opts_(std::move(opts)), model_(std::move(model)) {
  rebind(image);
}

void FrameContext::clear_caches() {
  hist_.reset();
  evaluator_.reset();
  reference_power_.reset();
  ghe_.clear();
  by_range_.clear();
  by_target_.clear();
  approx_.reset();
  approx_by_target_.clear();
}

void FrameContext::rebind(const hebs::image::GrayImage& image) {
  // The frame-ingestion fault point: an installed frame-corrupt spec
  // simulates corrupt/truncated frame bytes arriving at the binding
  // boundary (the engine's containment turns it into a degraded frame).
  util::fault::maybe_fail(util::fault::Point::kFrameCorrupt);
  image_ = &image;
  image16_ = nullptr;
  levels_ = hebs::image::kLevels;
  clear_caches();
}

void FrameContext::rebind(const hebs::image::GrayImage16& image) {
  util::fault::maybe_fail(util::fault::Point::kFrameCorrupt);
  image_ = nullptr;
  image16_ = &image;
  levels_ = image.levels();
  clear_caches();
}

void FrameContext::set_exact_histogram(hebs::histogram::Histogram hist) {
  HEBS_REQUIRE(bound(), "FrameContext is not bound to a frame");
  const std::size_t frame_size =
      image_ != nullptr ? image_->size() : image16_->size();
  HEBS_REQUIRE(hist.total() == frame_size,
               "seeded histogram does not cover the frame");
  HEBS_REQUIRE(hist.bins() == levels_,
               "seeded histogram does not match the frame's level count");
  hist_ = std::move(hist);
}

const hebs::image::GrayImage& FrameContext::image() const {
  HEBS_REQUIRE(image_ != nullptr, "FrameContext is not bound to an 8-bit frame");
  return *image_;
}

const hebs::image::GrayImage16& FrameContext::image16() const {
  HEBS_REQUIRE(image16_ != nullptr,
               "FrameContext is not bound to a deep-pixel frame");
  return *image16_;
}

const hebs::histogram::Histogram& FrameContext::histogram() const {
  if (!hist_.has_value()) {
    // The full recount (delta-refreshed histograms arrive via
    // set_exact_histogram and never reach this branch).
    obs::ScopedSpan span(obs::Span::kHistogram);
    hist_ = bound16() ? hebs::histogram::Histogram::from_image(image16())
                      : hebs::histogram::Histogram::from_image(image());
  }
  return *hist_;
}

const hebs::quality::DistortionEvaluator& FrameContext::evaluator() const {
  if (!evaluator_.has_value()) {
    // The evaluator keeps the reference-side state once per frame;
    // built from the integer frame, its front end runs per level.
    if (bound16()) {
      evaluator_.emplace(image16(), opts_.distortion);
    } else {
      evaluator_.emplace(image(), opts_.distortion);
    }
  }
  return *evaluator_;
}

const hebs::power::PowerBreakdown& FrameContext::reference_power() const {
  if (!reference_power_.has_value()) {
    reference_power_ = model_.frame_power(histogram(), 1.0);
  }
  return *reference_power_;
}

const hebs::transform::PwlCurve& FrameContext::ghe(
    const core::GheTarget& target) const {
  const auto key = std::make_pair(target.g_min, target.g_max);
  auto it = ghe_.find(key);
  if (it == ghe_.end()) {
    it = ghe_.emplace(key, core::ghe_transform(histogram(), target)).first;
  }
  return it->second;
}

namespace {

core::HebsResult& lookup_mutable(
    const FrameContext& ctx, int range,
    hebs::util::PoolMap<int, core::HebsResult*>& by_range,
    hebs::util::PoolMap<std::pair<int, int>, core::HebsResult>& by_target,
    hebs::util::PoolMap<std::pair<int, int>, hebs::transform::PwlCurve>& ghe,
    std::span<RangeProbe> speculated) {
  const auto range_it = by_range.find(range);
  if (range_it != by_range.end()) {
    obs::add(obs::Counter::kAtRangeHit);
    return *range_it->second;
  }
  // Ranges clamped by the image's brightest level collapse onto the same
  // effective target; share one pipeline run between them.  Entries are
  // stored lean (no transformed raster) — probes never need it.
  const core::GheTarget target = select_target(ctx, range);
  const auto key = std::make_pair(target.g_min, target.g_max);
  auto target_it = by_target.find(key);
  if (target_it == by_target.end()) {
    obs::add(obs::Counter::kAtRangeMiss);
    const auto spec = std::find_if(
        speculated.begin(), speculated.end(), [&](const RangeProbe& p) {
          return p.pending && p.target.g_min == target.g_min &&
                 p.target.g_max == target.g_max;
        });
    if (spec != speculated.end()) {
      // Adopt the speculative run: the same values the pipeline run
      // below computes, copied into the same memos (from this thread's
      // pool, as the run would allocate them).
      spec->pending = false;
      ghe.try_emplace(key, spec->ghe);
      target_it = by_target.emplace(key, spec->result).first;
    } else {
      target_it =
          by_target.emplace(key, run_stages_at_range_lean(ctx, range)).first;
    }
  } else {
    // A clamped-range alias of an already-run target still skipped the
    // pipeline run, which is what the hit/miss ratio measures.
    obs::add(obs::Counter::kAtRangeHit);
  }
  by_range.emplace(range, &target_it->second);
  return target_it->second;
}

}  // namespace

const core::HebsResult& FrameContext::at_range(int range) const {
  core::HebsResult& entry =
      lookup_mutable(*this, range, by_range_, by_target_, ghe_, {});
  materialize_transformed(entry);
  return entry;
}

const core::HebsResult& FrameContext::at_range_lean(int range) const {
  return lookup_mutable(*this, range, by_range_, by_target_, ghe_, {});
}

const core::HebsResult& FrameContext::range_lean_shared(
    int range, RangeProbe& scratch) const {
  const auto range_it = by_range_.find(range);
  if (range_it != by_range_.end()) {
    obs::add(obs::Counter::kAtRangeHit);
    return *range_it->second;
  }
  const core::GheTarget target = select_target(*this, range);
  const auto target_it =
      by_target_.find(std::make_pair(target.g_min, target.g_max));
  if (target_it != by_target_.end()) {
    obs::add(obs::Counter::kAtRangeHit);
    return target_it->second;
  }
  obs::add(obs::Counter::kAtRangeMiss);
  probe_range(range, scratch);
  return scratch.result;
}

double FrameContext::distortion_at_range(int range) const {
  return at_range_lean(range).evaluation.distortion_percent;
}

double FrameContext::distortion_at_range(
    int range, std::span<RangeProbe> speculated) const {
  return lookup_mutable(*this, range, by_range_, by_target_, ghe_, speculated)
      .evaluation.distortion_percent;
}

bool FrameContext::range_memoized(int range) const {
  if (by_range_.count(range) != 0) return true;
  const core::GheTarget target = select_target(*this, range);
  return by_target_.count(std::make_pair(target.g_min, target.g_max)) != 0;
}

void FrameContext::warm_probe_caches() const {
  (void)histogram();
  (void)evaluator();
  (void)reference_power();
  // Φ and the GHE curve have a point per level at most, Λ (and ψ = Λ)
  // segments + 1.  Reserved here, on the deciding thread, every slot's
  // storage comes from this frame's pool the first time the context
  // speculates; a lane's copy into a slot then never allocates, so which
  // server ran which probe cannot move a block between pools.
  const auto levels = static_cast<std::size_t>(levels_);
  const auto plc_points =
      std::min(levels, static_cast<std::size_t>(opts_.segments) + 1);
  for (RangeProbe& slot : spec_slots_) {
    slot.ghe.reserve(levels);
    slot.result.phi.reserve(levels);
    slot.result.lambda.reserve(plc_points);
    slot.result.point.luminance_transform.reserve(plc_points);
    slot.result.evaluation.point.luminance_transform.reserve(plc_points);
  }
}

void FrameContext::probe_range(int range, RangeProbe& out) const {
  out.pending = false;
  const core::GheTarget target = select_target(*this, range);
  const hebs::transform::PwlCurve ghe =
      core::ghe_transform(histogram(), target);
  const core::HebsResult result = run_stages_at_range_lean(*this, range, &ghe);
  out.target = target;
  out.ghe = ghe;
  out.result = result;
  out.pending = true;
}

namespace {

using core::displayed_levels;

/// F' = ψ(F) quantized to 8 bits, per level: identical to
/// lum.apply(img).to_gray() without expanding the double raster.
hebs::image::GrayImage quantize_displayed(const hebs::image::GrayImage& img,
                                          const hebs::transform::FloatLut& lum) {
  obs::ScopedSpan span(obs::Span::kLutApply);
  return lum.quantize().apply(img);
}

/// Deep-pixel twin: F' on the frame's own level lattice.
hebs::image::GrayImage16 quantize_displayed16(
    const hebs::image::GrayImage16& img,
    const hebs::transform::FloatLut& lum) {
  obs::ScopedSpan span(obs::Span::kLutApply);
  return lum.quantize16().apply(img);
}

}  // namespace

core::EvaluatedPoint FrameContext::evaluate(
    const core::OperatingPoint& point) const {
  const hebs::transform::FloatLut lum = displayed_levels(point, levels_);
  core::EvaluatedPoint out = evaluate_levels(point, lum);
  if (bound16()) {
    out.transformed16 = quantize_displayed16(image16(), lum);
  } else {
    out.transformed = quantize_displayed(image(), lum);
  }
  return out;
}

void FrameContext::materialize_transformed(core::HebsResult& result) const {
  materialize_transformed(result.evaluation);
}

void FrameContext::materialize_transformed(
    core::EvaluatedPoint& evaluation) const {
  if (bound16()) {
    if (!evaluation.transformed16.empty()) return;
    evaluation.transformed16 = quantize_displayed16(
        image16(), displayed_levels(evaluation.point, levels_));
    return;
  }
  if (!evaluation.transformed.empty()) return;
  evaluation.transformed =
      quantize_displayed(image(), displayed_levels(evaluation.point, levels_));
}

core::EvaluatedPoint FrameContext::evaluate_lean(
    const core::OperatingPoint& point) const {
  return evaluate_levels(point, displayed_levels(point, levels_));
}

namespace {

/// Proxy decimation factor: about 24 samples along the short side keeps
/// the proxy's distortion ranking faithful while shrinking the metric
/// work by k² (96x96 -> 24x24 at the default bench size).
constexpr int kProxyShortSideSamples = 24;

/// Breakpoint budget for the proxy-side PLC: the dynamic program is
/// quadratic in curve points, so coarsening Λ from a subsampled Φ costs
/// ~(64/256)² of the exact DP while still charging the probe for the
/// distortion the segment budget adds — the dominant bias of a pure
/// Λ≈Φ shortcut.
constexpr int kProxyCurvePoints = 64;

hebs::transform::PwlCurve proxy_lambda(const hebs::transform::PwlCurve& phi,
                                       int segments) {
  const auto& pts = phi.points();
  const std::size_t n = pts.size();
  if (n <= static_cast<std::size_t>(kProxyCurvePoints)) {
    return core::plc_coarsen(phi, segments).curve;
  }
  // Every index step is >= 1 (n > kProxyCurvePoints), so the subsampled
  // xs stay strictly increasing; endpoints are kept exactly.
  hebs::transform::PwlCurve::PointList sub;
  sub.reserve(static_cast<std::size_t>(kProxyCurvePoints));
  for (int s = 0; s < kProxyCurvePoints; ++s) {
    const std::size_t i = static_cast<std::size_t>(s) * (n - 1) /
                          static_cast<std::size_t>(kProxyCurvePoints - 1);
    sub.push_back(pts[i]);
  }
  return core::plc_coarsen(hebs::transform::PwlCurve(std::move(sub)), segments)
      .curve;
}

/// Smallest proxy the bound metric can evaluate (window metrics need at
/// least one full block per side).
int approx_min_dim(const hebs::quality::DistortionOptions& d) {
  switch (d.metric) {
    case hebs::quality::Metric::kUiqi:
    case hebs::quality::Metric::kUiqiHvs:
      return std::max(8, d.uiqi.block_size);
    case hebs::quality::Metric::kSsim:
    case hebs::quality::Metric::kSsimHvs:
      return std::max(8, d.ssim.block_size);
    case hebs::quality::Metric::kContrastFidelity:
      return std::max(8, d.contrast.block_size);
    case hebs::quality::Metric::kMsSsim:
      return std::max(8, d.ms_ssim.ssim.block_size);
    case hebs::quality::Metric::kRmse:
      return 8;
  }
  return 8;
}

}  // namespace

const FrameContext::ApproxState& FrameContext::approx() const {
  if (!approx_.has_value()) {
    ApproxState st;
    const int width = bound16() ? image16().width() : image().width();
    const int height = bound16() ? image16().height() : image().height();
    const int k = std::min(width, height) / kProxyShortSideSamples;
    if (k >= 2) {
      const int pw = (width - 1) / k + 1;
      const int ph = (height - 1) / k + 1;
      const int min_dim = approx_min_dim(opts_.distortion);
      if (pw >= min_dim && ph >= min_dim) {
        if (bound16()) {
          const auto& img = image16();
          hebs::image::GrayImage16 proxy(pw, ph, levels_);
          for (int y = 0; y < ph; ++y) {
            for (int x = 0; x < pw; ++x) {
              proxy(x, y) = img(x * k, y * k);
            }
          }
          st.proxy16 = std::move(proxy);
          st.evaluator.emplace(st.proxy16, opts_.distortion);
        } else {
          const auto& img = image();
          hebs::image::GrayImage proxy(pw, ph);
          for (int y = 0; y < ph; ++y) {
            for (int x = 0; x < pw; ++x) {
              proxy(x, y) = img(x * k, y * k);
            }
          }
          st.proxy = std::move(proxy);
          st.evaluator.emplace(st.proxy, opts_.distortion);
        }
        st.usable = true;
      }
    }
    approx_ = std::move(st);
  }
  return *approx_;
}

std::optional<double> FrameContext::approx_distortion_at_range(
    int range) const {
  const ApproxState& ap = approx();
  if (!ap.usable) return std::nullopt;
  const core::GheTarget target = select_target(*this, range);
  const auto key = std::make_pair(target.g_min, target.g_max);
  auto it = approx_by_target_.find(key);
  if (it == approx_by_target_.end()) {
    const core::OperatingPoint point{
        proxy_lambda(phi_for_target(*this, target), opts_.segments),
        core::beta_for_gmax(target.g_max, opts_.min_beta, max_pixel())};
    const hebs::transform::FloatLut lum = displayed_levels(point, levels_);
    it = approx_by_target_
             .emplace(key, bound16()
                               ? ap.evaluator->percent_mapped(ap.proxy16, lum)
                               : ap.evaluator->percent_mapped(ap.proxy, lum))
             .first;
  }
  return it->second;
}

core::EvaluatedPoint FrameContext::evaluate_levels(
    const core::OperatingPoint& point,
    const hebs::transform::FloatLut& lum) const {
  HEBS_REQUIRE(bound16() ? !image16().empty() : !image().empty(),
               "cannot evaluate on an empty image");
  HEBS_REQUIRE(point.beta > 0.0 && point.beta <= 1.0,
               "beta must be in (0, 1]");

  core::EvaluatedPoint out;
  out.point = point;

  // Distortion through the cached evaluator's per-level fast path (the
  // displayed raster is a per-level map of the original).
  out.distortion_percent = bound16()
                               ? evaluator().percent_mapped(image16(), lum)
                               : evaluator().percent_mapped(image(), lum);

  // Power: CCFL at β plus panel power at the driven transmittances
  // t(x) = ψ(x)/β, weighted by the original histogram.
  const auto& hist = histogram();
  double panel_watts = 0.0;
  for (int level = 0; level < hist.bins(); ++level) {
    const double t = util::clamp01(lum[level] / point.beta);
    panel_watts += model_.panel().pixel_power(t) *
                   static_cast<double>(hist.count(level));
  }
  panel_watts /= static_cast<double>(hist.total());
  out.power.ccfl_watts = model_.ccfl().power(point.beta);
  out.power.panel_watts = panel_watts;

  out.reference_power = reference_power();
  const double before = out.reference_power.total();
  HEBS_REQUIRE(before > 0.0, "reference frame consumes no power");
  out.saving_percent = 100.0 * (1.0 - out.power.total() / before);
  return out;
}

}  // namespace hebs::pipeline
