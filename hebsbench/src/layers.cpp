// The traced run: per-layer metrics and the sum-to-whole check.
//
// Phases, all on the workload's own seeded inputs:
//   1. facade loop with tracing off, then the same calls with the
//      library's span tracer on: trace overhead, counter deltas (probe
//      counts, memo/pool/temporal ratios) and the kFlickerPost spans of
//      the ordered video post-stage (private, so read from the library);
//   2. one pass on a second session at another thread count, whose
//      decision digest must equal the first (video: reported only);
//   3. layer probes: the benchmark times its own calls into each
//      module's public functions (hebs/advanced/*) and records each as
//      a span of its own; every metric is the median of its spans.
// The sum-to-whole table then charges each layer's probe time at the
// rate the traced phase's spans and counters say the facade ran it,
// and reports what the layers leave unexplained.
#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "hebs/advanced/core.h"
#include "hebs/advanced/histogram.h"
#include "hebs/advanced/kernels.h"
#include "hebs/advanced/obs.h"
#include "hebs/advanced/quality.h"
#include "hebs/advanced/util.h"
#include "stats.h"

namespace hebsbench {
namespace {

using hebs::image::GrayImage;
using hebs::image::RgbImage;
using hebs::obs::Counter;
using hebs::pipeline::FrameContext;
using hebs::pipeline::PipelineEngine;

/// The benchmark's own spans: one wall-time sample per timed call,
/// grouped by layer name.
class Spans {
 public:
  template <typename F>
  double time(const std::string& name, F&& fn) {
    const double t0 = now_s();
    fn();
    const double ms = (now_s() - t0) * 1e3;
    samples_[name].push_back(ms);
    ++count_;
    return ms;
  }
  double median(const std::string& name) const {
    const auto it = samples_.find(name);
    return it == samples_.end() ? 0.0 : stats::median(it->second);
  }
  double mean(const std::string& name) const {
    const auto it = samples_.find(name);
    if (it == samples_.end() || it->second.empty()) return 0.0;
    double sum = 0.0;
    for (const double v : it->second) sum += v;
    return sum / static_cast<double>(it->second.size());
  }
  std::size_t count() const noexcept { return count_; }

 private:
  std::map<std::string, std::vector<double>> samples_;
  std::size_t count_ = 0;
};

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

/// A copy of `frame` with a small bright object drawn in: the few-pixel
/// change the temporal delta refresh is built for.
GrayImage nudged(const GrayImage& frame) {
  GrayImage out = frame;
  hebs::image::fill_circle(out, frame.width() * 0.5, frame.height() * 0.5,
                           10.0, 0.95);
  return out;
}

/// Library spans of the traced facade phase, summed per span kind.
struct LibrarySpans {
  std::size_t histogram = 0;
  std::size_t flicker = 0;
  double flicker_ms = 0.0;
};

LibrarySpans read_library_spans() {
  LibrarySpans out;
  for (const hebs::obs::CollectedSpan& s : hebs::obs::collect_trace()) {
    if (s.span == hebs::obs::Span::kHistogram) ++out.histogram;
    if (s.span == hebs::obs::Span::kFlickerPost) {
      ++out.flicker;
      out.flicker_ms += static_cast<double>(s.dur_ns) / 1e6;
    }
  }
  return out;
}

/// Module probes on one frame: histogram, quality, the pipeline search
/// and its parts, the core curve stages, color render and kernel rows.
void probe_frame(const ProbeFrame& pf, Spans& spans) {
  const GrayImage& luma = *pf.luma;
  const hebs::core::HebsOptions hopts;
  const auto model = hebs::power::LcdSubsystemPower::lp064v1();
  constexpr int kReps = 3;

  for (int i = 0; i < kReps; ++i) {
    spans.time("histogram.build_ms", [&] {
      const auto h = hebs::histogram::Histogram::from_image(luma);
      if (h.total() != luma.size()) std::abort();
    });
  }
  const GrayImage next = nudged(luma);
  for (int i = 0; i < kReps; ++i) {
    auto h = hebs::histogram::Histogram::from_image(luma);
    spans.time("histogram.delta_refresh_ms", [&] {
      if (!h.refresh_from_delta(luma, next, luma.size())) std::abort();
    });
  }
  const auto reference = hebs::image::FloatImage::from_gray(luma);
  for (int i = 0; i < kReps; ++i) {
    spans.time("quality.evaluator_build_ms", [&] {
      const hebs::quality::DistortionEvaluator ev(reference, hopts.distortion);
      (void)ev;
    });
  }

  // The decision on a context whose frame-side products are warm.
  hebs::core::HebsResult decided;
  for (int i = 0; i < kReps; ++i) {
    FrameContext ctx(luma, hopts, model);
    (void)ctx.exact_histogram();
    (void)ctx.evaluator();
    (void)ctx.reference_power();
    spans.time("pipeline.search_ms",
               [&] { decided = hebs::pipeline::run_exact(ctx, pf.budget); });
  }

  // Probes at ranges this context has not memoized yet.
  FrameContext ctx(luma, hopts, model);
  (void)ctx.exact_histogram();
  (void)ctx.evaluator();
  (void)ctx.reference_power();
  for (const int range : {24, 56, 120}) {
    spans.time("pipeline.probe_ms",
               [&] { (void)ctx.distortion_at_range(range); });
  }
  (void)ctx.approx_distortion_at_range(200);  // builds the proxy
  for (const int range : {32, 72, 136}) {
    spans.time("pipeline.proxy_probe_ms",
               [&] { (void)ctx.approx_distortion_at_range(range); });
  }
  for (int i = 0; i < kReps; ++i) {
    hebs::core::HebsResult lean = ctx.at_range_lean(56);
    spans.time("pipeline.materialize_ms",
               [&] { ctx.materialize_transformed(lean); });
  }

  for (int i = 0; i < kReps; ++i) {
    spans.time("core.ghe_us", [&] {
      (void)hebs::core::ghe_transform(ctx.histogram(), decided.target);
    });
    spans.time("core.plc_us", [&] {
      (void)hebs::core::plc_coarsen(decided.phi, hopts.segments);
    });
  }
  const auto levels = hebs::core::displayed_levels(decided.point);
  for (int i = 0; i < kReps; ++i) {
    spans.time("quality.percent_mapped_ms", [&] {
      (void)ctx.evaluator().percent_mapped(luma, levels);
    });
  }

  // Gray workloads render their frame replicated into three channels.
  const RgbImage replicated =
      pf.rgb == nullptr ? RgbImage::from_gray(luma) : RgbImage();
  const RgbImage& rgb = pf.rgb != nullptr ? *pf.rgb : replicated;
  for (int i = 0; i < kReps; ++i) {
    spans.time("core.color_render_ms", [&] {
      (void)hebs::core::render_color(rgb, luma, decided.point,
                                     hebs::core::ColorMode::kSharedCurve);
    });
  }

  const hebs::kernels::KernelSet& k = hebs::kernels::active();
  const std::size_t n = luma.size();
  std::vector<std::uint64_t> counts(256);
  std::vector<std::uint8_t> out_gray(n);
  std::vector<std::uint8_t> out_rgb(3 * n);
  std::uint8_t lut[256];
  for (int v = 0; v < 256; ++v) lut[v] = static_cast<std::uint8_t>(255 - v);
  for (int i = 0; i < 5; ++i) {
    spans.time("kernels.histogram_u8",
               [&] { k.histogram_u8(luma.pixels().data(), n, counts.data()); });
    spans.time("kernels.luma_rgb8", [&] {
      k.luma_bt601_rgb8(rgb.data().data(), n, out_gray.data());
    });
    spans.time("kernels.lut_apply_rgb8", [&] {
      k.lut_apply_rgb8(rgb.data().data(), n, lut, out_rgb.data());
    });
  }
}

/// Per-frame engine probes: Session::process against a reused engine's
/// single-frame process_batch, and that engine at 1 vs N threads.
void probe_engines(const std::vector<ProbeFrame>& frames,
                   hebs::Session& session, PipelineEngine& engine_n,
                   PipelineEngine& engine_1, Spans& spans,
                   std::vector<double>* process_vs_engine) {
  for (const ProbeFrame& pf : frames) {
    const std::span<const GrayImage> one(pf.luma, 1);
    hebs::FrameRequest req;
    req.image = hebs::ImageView::gray8(pf.luma->pixels().data(),
                                       pf.luma->width(), pf.luma->height());
    req.d_max_percent = pf.budget;
    const double facade = spans.time("api.session_process", [&] {
      if (!session.process(req)) std::abort();
    });
    const double engine = spans.time("pipeline.engine_1frame_nt", [&] {
      (void)engine_n.process_batch(one, pf.budget);
    });
    spans.time("pipeline.engine_1frame_1t",
               [&] { (void)engine_1.process_batch(one, pf.budget); });
    process_vs_engine->push_back(ratio(facade, engine));
  }
}

/// Batch throughput at 1 vs N threads on the probe frames (color batch
/// on the color workload).
double batch_scaling(const std::vector<ProbeFrame>& frames, bool color,
                     PipelineEngine& engine_n, PipelineEngine& engine_1,
                     Spans& spans) {
  std::vector<GrayImage> grays;
  std::vector<RgbImage> rgbs;
  for (const ProbeFrame& pf : frames) {
    grays.push_back(*pf.luma);
    if (color) rgbs.push_back(*pf.rgb);
  }
  const auto run = [&](PipelineEngine& e) {
    if (color) {
      (void)e.process_batch_color(rgbs, frames.front().budget,
                                  hebs::core::ColorMode::kSharedCurve);
    } else {
      (void)e.process_batch(grays, frames.front().budget);
    }
  };
  const double t1 = spans.time("pipeline.batch_1t", [&] { run(engine_1); });
  const double tn = spans.time("pipeline.batch_nt", [&] { run(engine_n); });
  const int workers = std::min<int>(engine_n.thread_count(),
                                    static_cast<int>(frames.size()));
  return ratio(t1, tn * workers);
}

struct StreamProbe {
  double pan_vs_cold = 0.0;
  double flicker_ms_per_frame = 0.0;
};

/// The pan clip through the stream path with temporal reuse on and
/// off (alternating, median of two each); the reuse-on runs are traced
/// for their kFlickerPost spans.
StreamProbe probe_stream(const std::vector<GrayImage>& pan, int threads,
                         Spans& spans) {
  hebs::pipeline::EngineOptions on = engine_options(threads);
  hebs::pipeline::EngineOptions off = on;
  off.temporal_reuse = false;
  PipelineEngine reuse(on);
  PipelineEngine cold(off);
  hebs::core::VideoOptions vopts;
  vopts.num_threads = threads;
  LibrarySpans lib;
  for (int i = 0; i < 2; ++i) {
    hebs::obs::start_tracing();
    hebs::obs::clear_trace();
    spans.time("temporal.pan_reuse",
               [&] { (void)reuse.process_stream(pan, vopts); });
    const LibrarySpans s = read_library_spans();
    hebs::obs::stop_tracing();
    lib.flicker += s.flicker;
    lib.flicker_ms += s.flicker_ms;
    vopts.temporal_reuse = false;
    spans.time("temporal.pan_cold",
               [&] { (void)cold.process_stream(pan, vopts); });
    vopts.temporal_reuse = true;
  }
  return {ratio(spans.median("temporal.pan_reuse"),
                spans.median("temporal.pan_cold")),
          ratio(lib.flicker_ms, static_cast<double>(lib.flicker))};
}

}  // namespace

std::vector<Metric> run_layers(Workload& w, const Options& opts, int threads,
                               LoopStats* loop, bool* correct) {
  Spans spans;
  std::unique_ptr<hebs::Session> session;
  setup_session(w, threads, &session);
  const std::size_t per_pass = w.calls_per_pass();
  const double phase_s = std::max(1.0, 0.25 * opts.seconds);

  // ---- 1. the facade loop, untraced and then traced (same calls)
  const LoopStats untraced = run_loop(w, *session, phase_s, per_pass);
  hebs::obs::start_tracing();
  hebs::obs::clear_trace();
  const auto before = hebs::obs::snapshot_counters();
  const AllocTotals alloc0 = alloc_totals();
  const LoopStats traced = run_loop(w, *session, 0.0, untraced.calls);
  const AllocTotals alloc1 = alloc_totals();
  const auto d = hebs::obs::snapshot_counters().delta_since(before);
  const LibrarySpans lib = read_library_spans();
  const std::uint64_t dropped = hebs::obs::dropped_spans();
  hebs::obs::stop_tracing();
  *loop = untraced;
  loop->calls += traced.calls;
  loop->frames += traced.frames;
  loop->failed += traced.failed;
  loop->pass_digests.insert(loop->pass_digests.end(),
                            traced.pass_digests.begin(),
                            traced.pass_digests.end());
  if (loop->first_failure.empty()) loop->first_failure = traced.first_failure;
  const auto frames = static_cast<double>(traced.frames);

  // ---- 2. the decision digest at another session thread count
  {
    const int other = threads == 1 ? 2 : 1;
    std::unique_ptr<hebs::Session> s1;
    setup_session(w, other, &s1);
    const LoopStats one = run_loop(w, *s1, 0.0, per_pass);
    const bool same = !one.pass_digests.empty() &&
                      !loop->pass_digests.empty() &&
                      one.pass_digests.front() == loop->pass_digests.front();
    // Batch and single-frame decisions are bit-identical for every
    // thread count.  Video decisions are only under the monotone-
    // distortion contract of temporal reuse (DESIGN.md §9): which frames
    // a worker sees first changes its warm starts, and inside a sub-0.1%
    // distortion wiggle a warm search may settle on another bracket.  A
    // video difference is reported, not failed.
    std::printf("digest %s %s at %d session thread(s) (%s %d threads%s)\n",
                w.name(),
                one.pass_digests.empty()
                    ? "-"
                    : one.pass_digests.front().hex().c_str(),
                other, same ? "equal to" : "DIFFERS FROM", threads,
                same || !w.video() ? "" : "; temporal-reuse contract");
    if ((!same && !w.video()) || one.failed != 0) *correct = false;
  }

  // ---- 3. layer probes
  const std::vector<ProbeFrame> probes = w.probe_frames();
  {
    // Batch and video frames run under the engine's per-worker buffer
    // pools; Session::process runs unpooled.  Probe each the same way.
    hebs::util::BufferPool pool;
    std::optional<hebs::util::PoolScope> scope;
    if (w.color() || w.video()) scope.emplace(&pool);
    for (const ProbeFrame& pf : probes) probe_frame(pf, spans);
  }

  PipelineEngine engine_n(engine_options(threads));
  PipelineEngine engine_1(engine_options(1));
  std::vector<double> process_vs_engine;
  probe_engines(probes, *session, engine_n, engine_1, spans,
                &process_vs_engine);
  const double scaling_eff =
      batch_scaling(probes, w.color(), engine_n, engine_1, spans);

  // api overhead: facade call k against the internal entry it wraps,
  // alternating, per frame.
  const std::size_t overhead_calls = std::min<std::size_t>(
      per_pass, w.color() || w.video() ? 3 : 8);
  for (std::size_t k = 0; k < overhead_calls; ++k) {
    spans.time("api.facade_call", [&] { (void)w.call(*session, k); });
    spans.time("api.internal_call", [&] { w.internal_call(engine_n, k); });
  }
  const double overhead_ms = (spans.median("api.facade_call") -
                              spans.median("api.internal_call")) /
                             static_cast<double>(w.frames_per_call());

  std::vector<GrayImage> own_pan;
  const std::vector<GrayImage>* pan = w.pan_clip();
  if (pan == nullptr) {
    own_pan = hebs::image::make_video_clip(12, 384, opts.seed);
    pan = &own_pan;
  }
  const StreamProbe stream = probe_stream(*pan, threads, spans);
  const double flicker_ms = w.video() ? ratio(lib.flicker_ms, frames)
                                      : stream.flicker_ms_per_frame;

  // ---- metrics
  const auto timed = [&](const char* span) {
    return Metric{span, spans.median(span), "ms"};
  };
  const auto gbps = [&](const char* span, double bytes_per_px) {
    const double ms = spans.median(span);
    const auto px = static_cast<double>(probes.front().luma->size());
    return ratio(px * bytes_per_px, ms * 1e6);
  };
  const std::uint64_t memo_hits =
      d[Counter::kAtRangeHit] + d[Counter::kEvalMemoHit];
  const std::uint64_t memo_all = memo_hits + d[Counter::kAtRangeMiss] +
                                 d[Counter::kEvalMemoMiss];
  const std::uint64_t temporal = d[Counter::kTemporalFrames];

  // ---- sum to whole, per frame.  Batch and video calls run frames on
  // every worker at once, so their whole is worker-ms per frame.  Parts
  // are means over the probe frames, which follow the workload's mix.
  const int effective =
      hebs::pipeline::ThreadPool(threads).effective_concurrency();
  const double call_ms_per_frame =
      untraced.wall_s * 1e3 / static_cast<double>(untraced.frames);
  const double workers = w.frames_per_call() == 1 ? 1.0 : effective;
  const double whole = call_ms_per_frame * workers;
  const double decided = ratio(static_cast<double>(d[Counter::kFramesDecided]),
                               frames);
  const double recount = ratio(static_cast<double>(lib.histogram), frames);
  const double refreshed =
      ratio(static_cast<double>(d[Counter::kTemporalDeltaRefresh]), frames);
  const double luma_ms = w.color() ? spans.mean("kernels.luma_rgb8") : 0.0;
  struct Part {
    const char* layer;
    double ms;
  };
  const std::vector<Part> parts = {
      {"api.overhead_ms", overhead_ms},
      {"histogram.build_ms x recounts/frame",
       spans.mean("histogram.build_ms") * recount},
      {"histogram.delta_refresh_ms x refreshes/frame",
       spans.mean("histogram.delta_refresh_ms") * refreshed},
      {"quality.evaluator_build_ms x decisions/frame",
       spans.mean("quality.evaluator_build_ms") * decided},
      {"pipeline.search_ms x decisions/frame",
       spans.mean("pipeline.search_ms") * decided},
      {"pipeline.materialize_ms (photo, album)",
       w.video() ? 0.0 : spans.mean("pipeline.materialize_ms")},
      {"kernels.luma_rgb8 (album)", luma_ms},
      {"core.color_render_ms (album)",
       w.color() ? spans.mean("core.color_render_ms") : 0.0},
      {"core.flicker_post_ms (video)", w.video() ? flicker_ms : 0.0},
  };
  double covered = 0.0;
  std::printf("\nsum-to-whole %s, ms per frame (whole = call ms/frame %.3f x "
              "%.0f worker(s))\n",
              w.name(), call_ms_per_frame, workers);
  for (const Part& p : parts) {
    std::printf("  %-46s %10.3f\n", p.layer, p.ms);
    covered += p.ms;
  }
  const double unattributed = whole - covered;
  std::printf("  %-46s %10.3f\n", "pipeline.unattributed_ms", unattributed);
  std::printf("  %-46s %10.3f  (layers cover %.1f%%)\n\n", "whole", whole,
              100.0 * ratio(covered, whole));
  std::printf("trace: %zu benchmark spans; library spans dropped: %llu\n",
              spans.count(), static_cast<unsigned long long>(dropped));

  return {
      {"api.overhead_ms", overhead_ms, "ms"},
      {"api.process_vs_engine_ratio", stats::median(process_vs_engine),
       "ratio"},
      timed("pipeline.search_ms"),
      {"pipeline.range_probes_per_frame",
       ratio(static_cast<double>(d[Counter::kRangeProbes]), frames), "count"},
      {"pipeline.beta_probes_per_frame",
       ratio(static_cast<double>(d[Counter::kBetaProbes]), frames), "count"},
      timed("pipeline.probe_ms"),
      timed("pipeline.proxy_probe_ms"),
      {"pipeline.memo_hit_ratio", ratio(memo_hits, memo_all), "ratio"},
      timed("pipeline.materialize_ms"),
      {"pipeline.row_fanout_gain",
       ratio(spans.median("pipeline.engine_1frame_1t"),
             spans.median("pipeline.engine_1frame_nt")),
       "ratio"},
      {"pipeline.batch_scaling_eff", scaling_eff, "ratio"},
      {"pipeline.pool_wait_frac",
       ratio(d[Counter::kParallelForQueued], d[Counter::kParallelForCalls]),
       "ratio"},
      {"pipeline.unattributed_ms", unattributed, "ms"},
      {"temporal.byte_identical_frac",
       ratio(d[Counter::kTemporalByteIdentical], temporal), "ratio"},
      {"temporal.delta_refresh_frac",
       ratio(d[Counter::kTemporalDeltaRefresh], temporal), "ratio"},
      {"temporal.cold_frac", ratio(d[Counter::kTemporalCold], temporal),
       "ratio"},
      {"temporal.warm_verify_ratio",
       ratio(d[Counter::kTemporalWarmVerified],
             temporal - d[Counter::kTemporalByteIdentical]),
       "ratio"},
      {"temporal.pan_vs_cold_ratio", stream.pan_vs_cold, "ratio"},
      {"core.flicker_post_ms", flicker_ms, "ms"},
      {"core.ghe_us", spans.median("core.ghe_us") * 1e3, "us"},
      {"core.plc_us", spans.median("core.plc_us") * 1e3, "us"},
      timed("core.color_render_ms"),
      timed("histogram.build_ms"),
      timed("histogram.delta_refresh_ms"),
      timed("quality.evaluator_build_ms"),
      timed("quality.percent_mapped_ms"),
      {"kernels.histogram_u8_gbps", gbps("kernels.histogram_u8", 1.0),
       "GB/s"},
      {"kernels.luma_rgb8_gbps", gbps("kernels.luma_rgb8", 4.0), "GB/s"},
      {"kernels.lut_apply_rgb8_gbps", gbps("kernels.lut_apply_rgb8", 6.0),
       "GB/s"},
      {"util.pool_recycle_ratio",
       ratio(d[Counter::kPoolRecycled],
             d[Counter::kPoolRecycled] + d[Counter::kPoolFresh]),
       "ratio"},
      {"util.pool_fresh_per_frame",
       ratio(static_cast<double>(d[Counter::kPoolFresh]), frames), "count"},
      {"util.allocs_per_frame",
       ratio(static_cast<double>(alloc1.count - alloc0.count), frames),
       "count"},
      {"util.alloc_mb_per_frame",
       ratio(static_cast<double>(alloc1.bytes - alloc0.bytes) / (1 << 20),
             frames),
       "MiB"},
      {"obs.trace_overhead_pct",
       100.0 * (ratio(traced.wall_s, untraced.wall_s) - 1.0), "%"},
      {"obs.sum_to_whole_pct", 100.0 * ratio(covered, whole), "%"},
  };
}

}  // namespace hebsbench
