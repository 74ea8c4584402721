#include "hebs/session.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "api/registry_internal.h"
#include "api/view_convert.h"
#include "core/color.h"
#include "core/distortion_curve.h"
#include "core/hebs.h"
#include "core/video.h"
#include "image/synthetic.h"
#include "kernels/kernels.h"
#include "image/pixel_traits.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "pipeline/engine.h"
#include "pipeline/policy.h"
#include "power/lcd_power.h"
#include "util/error.h"
#include "util/faultpoint.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace hebs {

namespace {

using hebs::api::MetricInfo;
using hebs::api::PolicyInfo;

std::vector<CurvePoint> to_api_points(const hebs::transform::PwlCurve& curve) {
  std::vector<CurvePoint> out;
  out.reserve(curve.points().size());
  for (const auto& p : curve.points()) out.push_back({p.x, p.y});
  return out;
}

OwnedImage to_owned(const hebs::image::GrayImage& img) {
  const auto span = img.pixels();
  return OwnedImage(img.width(), img.height(),
                    std::vector<std::uint8_t>(span.begin(), span.end()));
}

OwnedRgbImage to_owned(const hebs::image::RgbImage& img) {
  const auto span = img.data();
  return OwnedRgbImage(img.width(), img.height(),
                       std::vector<std::uint8_t>(span.begin(), span.end()));
}

OwnedImage16 to_owned(const hebs::image::GrayImage16& img) {
  const auto span = img.pixels();
  return OwnedImage16(img.width(), img.height(), img.levels(),
                      std::vector<std::uint16_t>(span.begin(), span.end()));
}

void fill_color(const hebs::image::RgbImage& displayed, double hue_error,
                FrameResult& out) {
  out.displayed_rgb = to_owned(displayed);
  out.hue_error = hue_error;
}

Status require_rgb8(const ImageView& view, const char* what) {
  if (Status s = view.validate(); !s.ok()) return s;
  if (view.format() != PixelFormat::kRgb8) {
    return Status(StatusCode::kInvalidOption,
                  std::string(what) + " requires an interleaved rgb8 view "
                                      "(got " +
                      (view.format() == PixelFormat::kGray16 ? "gray16"
                                                             : "gray8") +
                      ")");
  }
  return Status();
}

PowerReport to_report(const hebs::power::PowerBreakdown& p) {
  return {p.ccfl_watts, p.panel_watts};
}

void fill_evaluation(const core::EvaluatedPoint& eval, FrameResult& out) {
  out.beta = eval.point.beta;
  out.distortion_percent = eval.distortion_percent;
  out.saving_percent = eval.saving_percent;
  out.power = to_report(eval.power);
  out.reference_power = to_report(eval.reference_power);
  // Exactly one of the displayed rasters is populated, matching the
  // evaluation's depth (transformed16 is set iff the frame was deep).
  if (!eval.transformed16.empty()) {
    out.displayed16 = to_owned(eval.transformed16);
  } else {
    out.displayed = to_owned(eval.transformed);
  }
}

/// One engine result on the facade's result type: a batch frame's on
/// FrameResult, a stream frame's on VideoFrameResult.
FrameResult to_result(const core::HebsResult& r) {
  FrameResult out;
  fill_evaluation(r.evaluation, out);
  out.g_min = r.target.g_min;
  out.g_max = r.target.g_max;
  out.lambda = to_api_points(r.lambda);
  out.phi = to_api_points(r.phi);
  out.plc_mse = r.plc_mse;
  return out;
}

FrameResult to_result(const pipeline::ColorBatchResult& r) {
  FrameResult out = to_result(r.luma);
  fill_color(r.color.displayed, r.color.hue_error, out);
  return out;
}

VideoFrameResult to_result(const core::FrameDecision& d) {
  VideoFrameResult out{d.raw_beta, d.beta, d.scene_cut, {}};
  fill_evaluation(d.evaluation, out.frame);
  out.frame.lambda = to_api_points(d.point.luminance_transform);
  return out;
}

VideoFrameResult to_result(const pipeline::ColorStreamResult& r) {
  VideoFrameResult out = to_result(r.decision);
  fill_color(r.color.displayed, r.color.hue_error, out.frame);
  return out;
}

Status check_budget(double d_max_percent) {
  if (!(d_max_percent >= 0.0) || d_max_percent > 100.0) {
    return Status(StatusCode::kInvalidBudget,
                  "d_max_percent must be in [0, 100] (got " +
                      std::to_string(d_max_percent) + ")");
  }
  return Status();
}

/// Anything the internal layers still throw after facade-side
/// validation is a library bug, surfaced as kInternal rather than a
/// crash; I/O failures keep their own code.  `where` names the entry
/// point (and, where known, the frame) so no kInternal ever reads as a
/// bare "unexpected failure" — the message always says which call and
/// which stage produced it.
Status from_exception(const std::exception& e, const std::string& where) {
  const StatusCode code =
      dynamic_cast<const hebs::util::IoError*>(&e) != nullptr
          ? StatusCode::kIoError
          : StatusCode::kInternal;
  return Status(code, where + ": " + e.what());
}

/// The typed per-frame status of a containment record (engine
/// batch/stream paths): kOk for a computed frame, else the cause —
/// deadline, I/O, or internal — with the engine's stage-and-frame
/// message.
Status fault_status(const pipeline::FrameFault& f) {
  if (!f.degraded) return Status();
  if (f.deadline) return Status(StatusCode::kDeadlineExceeded, f.message);
  if (f.io) return Status(StatusCode::kIoError, f.message);
  return Status(StatusCode::kInternal, f.message);
}

/// Copies one containment record onto the stable result type.
void fill_fault(const pipeline::FrameFault& f, FrameResult& out) {
  out.degraded = f.degraded;
  out.status = fault_status(f);
}

FrameResult& frame_of(FrameResult& r) { return r; }
FrameResult& frame_of(VideoFrameResult& r) { return r.frame; }

/// The facade results of an engine batch or stream, each with its
/// containment record applied.
template <typename Result>
auto to_results(const std::vector<Result>& results,
                const std::vector<pipeline::FrameFault>& faults) {
  std::vector<decltype(to_result(results.front()))> out;
  out.reserve(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    out.push_back(to_result(results[i]));
    fill_fault(faults[i], frame_of(out.back()));
  }
  return out;
}

/// The trace destination this config asks for: the explicit option, or
/// the HEBS_TRACE environment variable as the fallback.
std::string resolve_trace_path(const SessionConfig& cfg) {
  if (!cfg.trace_path().empty()) return cfg.trace_path();
  const char* env = std::getenv("HEBS_TRACE");
  return env != nullptr ? std::string(env) : std::string();
}

/// The fault-injection spec this config asks for: the explicit option,
/// or the HEBS_FAULT environment variable as the fallback.  Empty =
/// keep the current process-global arming.
std::string resolve_fault_spec(const SessionConfig& cfg) {
  if (!cfg.fault_spec().empty()) return cfg.fault_spec();
  const char* env = std::getenv("HEBS_FAULT");
  return env != nullptr ? std::string(env) : std::string();
}

/// Per-frame counter deltas + wall time onto the result (the
/// single-frame path's breakdown; see hebs/frame.h).
void fill_breakdown(const obs::CounterSnapshot& before, double decide_ms,
                    FrameResult& out) {
  const auto d = obs::snapshot_counters().delta_since(before);
  out.breakdown.collected = true;
  out.breakdown.decide_ms = decide_ms;
  out.breakdown.range_probes = d[obs::Counter::kRangeProbes];
  out.breakdown.beta_probes = d[obs::Counter::kBetaProbes];
  out.breakdown.eval_memo_hits = d[obs::Counter::kEvalMemoHit];
  out.breakdown.eval_memo_misses = d[obs::Counter::kEvalMemoMiss];
  out.breakdown.range_memo_hits = d[obs::Counter::kAtRangeHit];
  out.breakdown.range_memo_misses = d[obs::Counter::kAtRangeMiss];
}

}  // namespace

struct Session::Impl {
  SessionConfig cfg;
  const PolicyInfo* info = nullptr;
  const MetricInfo* metric = nullptr;
  core::ColorMode color_mode = core::ColorMode::kSharedCurve;
  core::HebsOptions hebs_opts;
  hebs::power::LcdSubsystemPower model =
      hebs::power::LcdSubsystemPower::lp064v1();
  pipeline::PipelineEngine engine;
  /// Guards the lazy curve characterization (the one mutable Session
  /// field a concurrent caller could race on).  Once set the curve is
  /// immutable for the session lifetime, so the reference ensure_curve
  /// returns stays valid to read outside the lock.
  util::Mutex curve_mu;
  std::optional<core::DistortionCurve> curve HEBS_GUARDED_BY(curve_mu);
  /// The session's decision policy, built from its registry row.
  std::unique_ptr<pipeline::Policy> policy;
  /// Counter registry state at create time: Session::stats() reports
  /// the delta against this baseline.
  obs::CounterSnapshot stats_baseline = obs::snapshot_counters();
  /// Where to write the span trace at destruction; empty = no tracing
  /// requested.  Writability was checked at create (kIoError there).
  std::string trace_path;

  ~Impl() {
    if (trace_path.empty()) return;
    obs::stop_tracing();
    try {
      obs::write_chrome_trace(trace_path);
    } catch (const std::exception& e) {
      // The path was writable at create; a failure here (disk full,
      // directory removed meanwhile) has no status channel left.
      std::fprintf(stderr, "hebs: writing trace failed: %s\n", e.what());
    }
  }

  Impl(SessionConfig config, const PolicyInfo* p, const MetricInfo* m)
      : cfg(std::move(config)),
        info(p),
        metric(m),
        hebs_opts(make_hebs_options(cfg, m)),
        engine(make_engine_options(cfg, hebs_opts), model),
        policy(p->make({hebs_opts.distortion, model,
                        [this]() -> const core::DistortionCurve& {
                          return ensure_curve();
                        }})) {
    // cfg.validate() vouched for the name; parse cannot fail here.
    (void)core::parse_color_mode(cfg.color_mode(), &color_mode);
  }

  static core::HebsOptions make_hebs_options(const SessionConfig& cfg,
                                             const MetricInfo* m) {
    core::HebsOptions opts;
    opts.segments = cfg.segments();
    opts.g_min = cfg.g_min_floor();
    opts.min_range = cfg.min_range();
    opts.min_beta = cfg.min_beta();
    opts.equalization_strength = cfg.equalization_strength();
    opts.concurrent_scaling = cfg.concurrent_scaling();
    // Session::create admits only decision metrics; the optional is set.
    opts.distortion.metric = *m->metric;
    return opts;
  }

  static pipeline::EngineOptions make_engine_options(
      const SessionConfig& cfg, const core::HebsOptions& hebs_opts) {
    pipeline::EngineOptions opts;
    opts.num_threads = cfg.threads();
    opts.hebs = hebs_opts;
    opts.use_buffer_pool = cfg.buffer_pool();
    // One MiB knob bounds both pool budgets: retention (free lists) and
    // outstanding checkout (exhaustion degrades to counted heap blocks
    // rather than failing a frame — see EngineOptions::pool_max_bytes).
    opts.pool_max_bytes =
        static_cast<std::size_t>(cfg.pool_max_mb()) * 1024 * 1024;
    opts.temporal_reuse = cfg.temporal_reuse();
    opts.frame_deadline_us = cfg.frame_deadline_us();
    return opts;
  }

  core::VideoOptions make_video_options(double d_max_percent) const {
    core::VideoOptions opts;
    opts.d_max_percent = d_max_percent;
    opts.hebs = hebs_opts;
    opts.max_beta_step = cfg.max_beta_step();
    opts.ema_alpha = cfg.ema_alpha();
    opts.scene_cut_threshold = cfg.scene_cut_threshold();
    // Threads, temporal reuse, pools and the deadline reach the stream
    // through the engine's options (make_engine_options).
    return opts;
  }

  /// The session's curve cache: loaded from cfg.curve_path at create
  /// time, or characterized once on first hebs-curve use (the offline
  /// step of Fig. 4, amortized over the session lifetime).
  const core::DistortionCurve& ensure_curve() HEBS_EXCLUDES(curve_mu) {
    util::MutexLock lock(curve_mu);
    if (!curve.has_value()) {
      const auto album = hebs::image::usid_album(cfg.characterization_size());
      curve = core::DistortionCurve::characterize(
          album, core::DistortionCurve::default_ranges(), hebs_opts, model);
    }
    return *curve;
  }

  /// Deep-pixel session: frames arrive as gray16 views and decisions
  /// run on the configured level lattice instead of the 8-bit one.
  bool deep() const noexcept { return cfg.bit_depth() != 8; }
  int levels() const noexcept {
    return hebs::image::levels_for_bit_depth(cfg.bit_depth());
  }
  int max_pixel() const noexcept { return levels() - 1; }

  /// The session policy's capabilities against this request shape:
  /// deep sessions need a depth-generic policy, fixed_range a HEBS one.
  Status check_policy(bool fixed_range) const {
    if (deep() && !info->deep) {
      return Status(StatusCode::kInvalidOption,
                    "policy \"" + info->entry.name +
                        "\" does not support deep-pixel sessions; bit_depth " +
                        std::to_string(cfg.bit_depth()) +
                        " requires \"hebs-exact\" or \"bbhe\"");
    }
    if (fixed_range && !info->fixed_range) {
      return Status(StatusCode::kInvalidOption,
                    "fixed_range is only supported by the hebs-* policies "
                    "(policy is \"" +
                        info->entry.name + "\")");
    }
    return Status();
  }

  /// The typed view/depth contract: a deep session takes exactly gray16
  /// views, an 8-bit session never does.  `what` names the entry point.
  Status check_view_depth(const ImageView& view, const char* what) const {
    if (deep() && view.format() != PixelFormat::kGray16) {
      return Status(StatusCode::kUnknownDepth,
                    std::string(what) + ": session bit_depth is " +
                        std::to_string(cfg.bit_depth()) +
                        " and requires gray16 views");
    }
    if (!deep() && view.format() == PixelFormat::kGray16) {
      return Status(StatusCode::kUnknownDepth,
                    std::string(what) +
                        ": gray16 views require a session configured with "
                        "bit_depth 10 or 16 (session bit_depth is 8)");
    }
    return Status();
  }

  /// Per-frame view checks of a multi-frame call, prefixed with the
  /// frame index: interleaved rgb8 for `color`, otherwise a view
  /// matching the session depth.
  Status check_frames(const std::vector<ImageView>& frames, const char* what,
                      bool color) const {
    for (std::size_t i = 0; i < frames.size(); ++i) {
      Status s = color ? require_rgb8(frames[i], what) : frames[i].validate();
      if (s.ok() && !color) s = check_view_depth(frames[i], what);
      if (!s.ok()) {
        return Status(s.code(),
                      "frame " + std::to_string(i) + ": " + s.message());
      }
    }
    return Status();
  }

  /// The rasters a call copies its views into before the engine runs.
  struct Staging {
    std::vector<hebs::image::GrayImage> gray;
    std::vector<hebs::image::GrayImage16> gray16;
    std::vector<hebs::image::RgbImage> rgb;
  };
  /// Held by the one multi-frame call staging into `staging`, which the
  /// session keeps across calls so a steady caller copies each frame
  /// into the storage its previous call used.  The copies run on the
  /// calling thread outside any PoolScope, so the pool-alloc fault point
  /// still fires only inside engine per-frame work.
  util::Mutex staging_mu;
  Staging staging HEBS_GUARDED_BY(staging_mu);

  /// Runs `body(staging)` on the session's staging rasters, or on
  /// call-local ones when another call holds them (concurrent callers
  /// never queue).
  template <typename Body>
  auto with_staging(Body&& body) HEBS_EXCLUDES(staging_mu) {
    if (staging_mu.try_lock()) {
      util::MutexLock lock(staging_mu, std::adopt_lock);
      return body(staging);
    }
    Staging local;
    return body(local);
  }

  /// Copies gray8/rgb8 views into `out` as luma rasters.
  static std::span<const hebs::image::GrayImage> stage_gray(
      std::span<const ImageView> frames,
      std::vector<hebs::image::GrayImage>& out) {
    out.resize(frames.size());
    for (std::size_t i = 0; i < frames.size(); ++i) {
      api::materialize_gray(frames[i], out[i]);
    }
    return out;
  }

  /// Copies rgb8 views into `out`.
  static std::span<const hebs::image::RgbImage> stage_rgb(
      std::span<const ImageView> frames,
      std::vector<hebs::image::RgbImage>& out) {
    out.resize(frames.size());
    for (std::size_t i = 0; i < frames.size(); ++i) {
      api::materialize_rgb(frames[i], out[i]);
    }
    return out;
  }

  /// Copies gray16 views onto the session's level lattice; a sample
  /// above the declared depth is the caller's frame (kInvalidImage), not
  /// a library failure.
  Status stage_deep(std::span<const ImageView> frames,
                    std::vector<hebs::image::GrayImage16>& out) const {
    out.resize(frames.size());
    for (std::size_t i = 0; i < frames.size(); ++i) {
      try {
        api::materialize_gray16(frames[i], levels(), out[i]);
      } catch (const util::InvalidArgument& e) {
        return Status(StatusCode::kInvalidImage,
                      "frame " + std::to_string(i) + ": " + e.what());
      }
    }
    return Status();
  }

  /// The one engine call behind process/process_batch: `policy` on
  /// every frame, staged at the session depth into `st`.
  Expected<std::vector<FrameResult>> decide(std::span<const ImageView> frames,
                                            const pipeline::Policy& p,
                                            double d_max_percent,
                                            Staging& st) {
    std::vector<pipeline::FrameFault> faults;
    if (deep()) {
      if (Status s = stage_deep(frames, st.gray16); !s.ok()) return s;
      return to_results(
          engine.process_batch(std::span<const hebs::image::GrayImage16>(
                                   st.gray16),
                               p, d_max_percent, &faults),
          faults);
    }
    return to_results(
        engine.process_batch(stage_gray(frames, st.gray), p, d_max_percent,
                             &faults),
        faults);
  }

  /// Same for rgb8 frames: the decision on BT.601 luma, then the color
  /// stage on the deciding worker.
  std::vector<FrameResult> decide_color(std::span<const ImageView> frames,
                                        const pipeline::Policy& p,
                                        double d_max_percent, Staging& st) {
    std::vector<pipeline::FrameFault> faults;
    return to_results(
        engine.process_batch_color(stage_rgb(frames, st.rgb), p,
                                   d_max_percent, color_mode, &faults),
        faults);
  }

  /// The one engine call behind process_video and process_video_color
  /// (`what`): the stream on the staged luma clip, or on the rgb8 clip
  /// with the color stage for `color`.
  Expected<std::vector<VideoFrameResult>> video(
      const std::vector<ImageView>& frames, double d_max_percent,
      bool color, const char* what) {
    if (Status s = check_budget(d_max_percent); !s.ok()) return s;
    if (deep()) {
      return Status(StatusCode::kInvalidOption,
                    "video processing is not supported on deep-pixel sessions "
                    "(bit_depth " +
                        std::to_string(cfg.bit_depth()) + ")");
    }
    if (!info->video) {
      return Status(StatusCode::kInvalidOption,
                    "video processing runs the per-frame exact search and "
                    "requires policy \"hebs-exact\" (policy is \"" +
                        cfg.policy() + "\")");
    }
    if (Status s = check_frames(frames, what, color); !s.ok()) return s;
    try {
      return with_staging([&](Staging& st) {
        std::vector<pipeline::FrameFault> faults;
        const core::VideoOptions vopts = make_video_options(d_max_percent);
        if (color) {
          return to_results(
              engine.process_stream_color(stage_rgb(frames, st.rgb), vopts,
                                          color_mode, &faults),
              faults);
        }
        return to_results(engine.process_stream(stage_gray(frames, st.gray),
                                                vopts, &faults),
                          faults);
      });
    } catch (const std::exception& e) {
      return from_exception(e, what);
    }
  }
};

Session::Session(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
Session::~Session() = default;
Session::Session(Session&&) noexcept = default;
Session& Session::operator=(Session&&) noexcept = default;

Expected<Session> Session::create(SessionConfig config) {
  if (Status s = config.validate(); !s.ok()) return s;
  const PolicyInfo* policy = api::find_policy(config.policy());
  if (policy == nullptr) {
    return Status(StatusCode::kUnknownPolicy,
                  "no policy named \"" + config.policy() +
                      "\" is registered; see hebs::PolicyRegistry");
  }
  const MetricInfo* metric = api::find_metric(config.metric());
  if (metric == nullptr) {
    return Status(StatusCode::kUnknownMetric,
                  "no metric named \"" + config.metric() +
                      "\" is registered; see hebs::MetricRegistry");
  }
  if (!metric->decision()) {
    return Status(StatusCode::kInvalidOption,
                  "metric \"" + config.metric() +
                      "\" is report-only (attached to color results as "
                      "hue_error) and cannot drive the decision loop");
  }
  // Validate the requested fault-injection spec up front, but only
  // install it once nothing else can fail — like the kernel backend,
  // arming is process-global state a failed create must not disturb.
  const std::string fault_spec = resolve_fault_spec(config);
  if (!fault_spec.empty() && fault_spec != "off" && fault_spec != "none") {
    std::vector<util::fault::Spec> parsed;
    std::string parse_error;
    if (!util::fault::parse_spec_list(fault_spec, &parsed, &parse_error)) {
      return Status(StatusCode::kInvalidOption,
                    "fault_spec \"" + fault_spec + "\": " + parse_error);
    }
  }
  // Validate the requested kernel backend up front, but only switch the
  // process-global selection once nothing else can fail — a failed
  // create must leave the process state untouched.
  const kernels::KernelSet* requested_backend = nullptr;
  if (!config.kernel_backend().empty()) {
    requested_backend = kernels::find_backend(config.kernel_backend());
    if (requested_backend == nullptr) {
      return Status(StatusCode::kUnknownBackend,
                    "no kernel backend named \"" + config.kernel_backend() +
                        "\" is compiled into this build; see "
                        "hebs::KernelRegistry");
    }
    bool supported = false;
    for (const kernels::BackendInfo& info : kernels::backends()) {
      if (info.set == requested_backend) supported = info.supported;
    }
    if (!supported) {
      return Status(StatusCode::kUnknownBackend,
                    "kernel backend \"" + config.kernel_backend() +
                        "\" is compiled in but not supported by this CPU; "
                        "see hebs::KernelRegistry");
    }
  }
  auto impl = std::make_unique<Impl>(std::move(config), policy, metric);
  if (!impl->cfg.curve_path().empty()) {
    try {
      // The impl is not shared yet, but the annotation contract on
      // `curve` is unconditional — take the (uncontended) lock.
      util::MutexLock lock(impl->curve_mu);
      impl->curve = core::DistortionCurve::load(impl->cfg.curve_path());
    } catch (const std::exception& e) {
      return Status(StatusCode::kIoError,
                    "loading curve \"" + impl->cfg.curve_path() +
                        "\" failed: " + e.what());
    }
  }
  const std::string trace_path = resolve_trace_path(impl->cfg);
  if (!trace_path.empty()) {
    // Fail the create, not the eventual trace write: an unknown or
    // unwritable destination is a typed kIoError here, never a
    // silently dropped trace.  The open also truncates, so the session
    // always leaves a fresh file behind.
    std::FILE* probe = std::fopen(trace_path.c_str(), "wb");
    if (probe == nullptr) {
      return Status(StatusCode::kIoError,
                    "trace path \"" + trace_path +
                        "\" cannot be opened for writing");
    }
    std::fclose(probe);
  }
  if (requested_backend != nullptr) {
    // Backend selection is process-global (see SessionConfig docs);
    // outputs are bit-identical across backends, so switching here only
    // changes throughput, never results.  Validated above: cannot fail.
    kernels::set_backend(requested_backend->name);
  }
  if (!fault_spec.empty()) {
    // Parsed above: cannot fail here.  Installed while the process is
    // quiescent for this session (nothing has run yet), per the
    // faultpoint install contract; "off"/"none" disarms every point.
    std::string install_error;
    (void)util::fault::install_from_string(fault_spec, &install_error);
  }
  if (!trace_path.empty()) {
    // Ring buffers are allocated here, at session setup — the record
    // path never allocates (the zero-alloc steady-state contract).
    obs::start_tracing();
    impl->trace_path = trace_path;
  }
  return Session(std::move(impl));
}

const SessionConfig& Session::config() const noexcept { return impl_->cfg; }

int Session::thread_count() const noexcept {
  return impl_->engine.thread_count();
}

SessionStats Session::stats() const noexcept {
  const auto d =
      obs::snapshot_counters().delta_since(impl_->stats_baseline);
  SessionStats s;
#define HEBS_STATS_COPY(e, name, field, kind) s.field = d[obs::Counter::e];
  HEBS_COUNTER_TABLE(HEBS_STATS_COPY)
#undef HEBS_STATS_COPY
  return s;
}

Expected<FrameResult> Session::process(const FrameRequest& request) {
  if (impl_->deep() && request.color_output) {
    return Status(StatusCode::kInvalidOption,
                  "color_output is not supported on deep-pixel sessions "
                  "(bit_depth " +
                      std::to_string(impl_->cfg.bit_depth()) + ")");
  }
  if (request.color_output) {
    if (Status s = require_rgb8(request.image, "color_output"); !s.ok()) {
      return s;
    }
  } else if (Status s = request.image.validate(); !s.ok()) {
    return s;
  }
  if (Status s = impl_->check_view_depth(request.image, "process"); !s.ok()) {
    return s;
  }
  if (request.fixed_range == 0) {
    if (Status s = check_budget(request.d_max_percent); !s.ok()) return s;
  } else if (request.fixed_range < 2 ||
             request.fixed_range >
                 impl_->max_pixel() - impl_->cfg.g_min_floor()) {
    // Same floor as SessionConfig::min_range: a one-level range
    // degenerates the PLC coarsening.  The ceiling is the session
    // depth's own pixel domain (255 for the default 8-bit session).
    return Status(StatusCode::kInvalidOption,
                  "fixed_range must be >= 2 and leave [g_min_floor, "
                  "g_min_floor + range] inside the " +
                      std::to_string(impl_->cfg.bit_depth()) +
                      "-bit domain (got " +
                      std::to_string(request.fixed_range) + ")");
  }
  if (Status s = impl_->check_policy(request.fixed_range > 0); !s.ok()) {
    return s;
  }
  try {
    // Single-frame runs attribute exactly, so each result carries its
    // own counter-delta breakdown (hebs/frame.h).
    const auto counters_before = obs::snapshot_counters();
    const auto t0 = std::chrono::steady_clock::now();
    // A one-frame engine batch, on the engine's persistent single-frame
    // slot: process() shares the batch path's pool, containment and
    // deadline.
    const pipeline::AtRangePolicy at_range(request.fixed_range);
    const pipeline::Policy* policy = impl_->policy.get();
    if (request.fixed_range > 0) policy = &at_range;
    const std::span<const ImageView> one(&request.image, 1);
    Impl::Staging staged;  // one frame: not worth keeping across calls
    Expected<std::vector<FrameResult>> results =
        request.color_output
            ? impl_->decide_color(one, *policy, request.d_max_percent, staged)
            : impl_->decide(one, *policy, request.d_max_percent, staged);
    if (!results) return results.status();
    FrameResult result = std::move(results->front());
    fill_breakdown(counters_before,
                   std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count(),
                   result);
    return result;
  } catch (const std::exception& e) {
    return from_exception(e, "process: frame 0");
  }
}

Expected<std::vector<FrameResult>> Session::process_batch(
    const std::vector<ImageView>& frames, double d_max_percent) {
  if (Status s = check_budget(d_max_percent); !s.ok()) return s;
  if (Status s = impl_->check_frames(frames, "process_batch", false);
      !s.ok()) {
    return s;
  }
  if (Status s = impl_->check_policy(false); !s.ok()) return s;
  try {
    return impl_->with_staging([&](Impl::Staging& st) {
      return impl_->decide(frames, *impl_->policy, d_max_percent, st);
    });
  } catch (const std::exception& e) {
    return from_exception(e, "process_batch");
  }
}

Expected<std::vector<FrameResult>> Session::process_batch_color(
    const std::vector<ImageView>& frames, double d_max_percent) {
  if (Status s = check_budget(d_max_percent); !s.ok()) return s;
  if (impl_->deep()) {
    return Status(StatusCode::kInvalidOption,
                  "color processing is not supported on deep-pixel sessions "
                  "(bit_depth " +
                      std::to_string(impl_->cfg.bit_depth()) + ")");
  }
  if (Status s = impl_->check_frames(frames, "process_batch_color", true);
      !s.ok()) {
    return s;
  }
  try {
    return impl_->with_staging([&](Impl::Staging& st) {
      return impl_->decide_color(frames, *impl_->policy, d_max_percent, st);
    });
  } catch (const std::exception& e) {
    return from_exception(e, "process_batch_color");
  }
}

Expected<std::vector<VideoFrameResult>> Session::process_video(
    const std::vector<ImageView>& frames, double d_max_percent) {
  return impl_->video(frames, d_max_percent, false, "process_video");
}

Expected<std::vector<VideoFrameResult>> Session::process_video_color(
    const std::vector<ImageView>& frames, double d_max_percent) {
  return impl_->video(frames, d_max_percent, true, "process_video_color");
}

}  // namespace hebs
