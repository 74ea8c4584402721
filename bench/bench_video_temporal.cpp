// Stream-throughput benchmark for the temporal-coherence fast path and
// the recycling buffer pools (the zero-allocation steady state).
//
// Four synthetic clip archetypes cover the coherence spectrum video
// content actually exhibits:
//   static     — every frame byte-identical (UI, paused playback);
//   slow-drift — a static scene with a small moving sprite and a one-
//                level global dim every few frames (surveillance /
//                talking-head coherence: <2% of pixels change per
//                frame, the operating point drifts by a level or two);
//                this is the clip the ≥2x acceptance gate runs on;
//   pan-dim    — the aggressive panning/dimming clip of
//                image/synthetic.h (every pixel changes every frame,
//                the operating point jumps ±15 levels: warm starts
//                rarely verify, so this bounds the fast path's honesty
//                overhead);
//   scene-cut  — blocks of unrelated scenes (the adversarial case: the
//                warm starts must fail fast and fall back cold).
//
// A fifth case, static-color, runs a byte-identical RGB clip through
// the engine's color stream path (luma decisions + the post-decision
// color stage): the temporal fast path must engage for RGB exactly as
// for gray — the luma search reuses the unchanged-frame result and the
// color stage reuses the previous rendering — gated at >= 2x warm
// speedup alongside slow-drift.
//
// Each clip runs through the single-worker stream executor in three
// configurations — baseline (pools and temporal reuse off: the PR 3
// cold-start path), pool (pools only), temporal (pools + fast path) —
// and every configuration's decisions are checked bit-identical to the
// serial per-frame controller before any number is reported.
//
// The static and scene-cut clips also run the temporal configuration
// at kWorkers workers.  Byte-identical reuse is decided by clip
// position, so that run must count exactly the 1-worker run's
// byte-identical frames — a count gate (exit 1), not a timing gate —
// and its decisions are checked like the others.
//
// Writes BENCH_video.json ({bench, config, ns_per_frame, mpix_per_s,
// backend, counters, size, frames, cores, cpu, build_type}).
// --min-warm-speedup gates the temporal-vs-baseline ratio on the
// slow-drift clip (the acceptance criterion is >= 2x).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "hebs/advanced/core.h"
#include "hebs/advanced/image.h"
#include "hebs/advanced/obs.h"
#include "hebs/advanced/pipeline.h"

namespace {

using hebs::core::FrameDecision;
using hebs::core::VideoBacklightController;
using hebs::core::VideoOptions;
using hebs::image::GrayImage;

constexpr double kBudget = 10.0;
/// Worker count of the multi-worker static and scene-cut runs.
constexpr int kWorkers = 4;

struct Clip {
  std::string name;
  std::vector<GrayImage> frames;
};

/// Slowly varying content: a static scene, a 6x6 sprite moving one
/// pixel per frame, and a one-gray-level global dim every six frames —
/// under 2% of pixels change on most frames, and the operating point
/// drifts by a level or two at each dim step.
std::vector<GrayImage> slow_drift_clip(int frames, int size) {
  const GrayImage base =
      hebs::image::make_usid(hebs::image::UsidId::kSail, size);
  std::vector<GrayImage> clip;
  clip.reserve(static_cast<std::size_t>(frames));
  int dim = 0;
  for (int f = 0; f < frames; ++f) {
    if (f > 0 && f % 6 == 0) ++dim;
    GrayImage frame = base;
    if (dim > 0) {
      for (auto& px : frame.pixels()) {
        px = static_cast<std::uint8_t>(px > dim ? px - dim : 0);
      }
    }
    const int sprite = 6;
    const int x0 = f % (size - sprite);
    for (int y = size / 4; y < size / 4 + sprite; ++y) {
      for (int x = x0; x < x0 + sprite; ++x) {
        frame(x, y) = 230;
      }
    }
    clip.push_back(std::move(frame));
  }
  return clip;
}

std::vector<Clip> make_clips(int frames, int size) {
  std::vector<Clip> clips;
  clips.push_back(
      {"static", std::vector<GrayImage>(
                     static_cast<std::size_t>(frames),
                     hebs::image::make_usid(hebs::image::UsidId::kPout,
                                            size))});
  clips.push_back({"slow-drift", slow_drift_clip(frames, size)});
  clips.push_back({"pan-dim", hebs::image::make_video_clip(frames, size)});
  std::vector<GrayImage> cuts;
  const hebs::image::UsidId scenes[] = {
      hebs::image::UsidId::kPout, hebs::image::UsidId::kBaboon,
      hebs::image::UsidId::kSplash, hebs::image::UsidId::kWest};
  int produced = 0;
  for (int block = 0; produced < frames; ++block) {
    const GrayImage scene =
        hebs::image::make_usid(scenes[block % 4], size);
    for (int i = 0; i < 6 && produced < frames; ++i, ++produced) {
      cuts.push_back(scene);
    }
  }
  clips.push_back({"scene-cut", std::move(cuts)});
  return clips;
}

VideoOptions config_options(bool pooled, bool temporal, int workers = 1) {
  VideoOptions opts;
  opts.d_max_percent = kBudget;
  opts.num_threads = workers;  // per-stream throughput: one worker by default
  opts.use_buffer_pool = pooled;
  opts.temporal_reuse = temporal;
  return opts;
}

bool same_color_result(const hebs::pipeline::ColorStreamResult& a,
                       const hebs::pipeline::ColorStreamResult& b) {
  return a.decision.beta == b.decision.beta &&
         a.decision.raw_beta == b.decision.raw_beta &&
         a.color.hue_error == b.color.hue_error &&
         std::equal(a.color.displayed.data().begin(),
                    a.color.displayed.data().end(),
                    b.color.displayed.data().begin(),
                    b.color.displayed.data().end());
}

/// Static RGB clip through the engine's color stream path in one
/// configuration; returns elapsed seconds.
double run_color_once(const std::vector<hebs::image::RgbImage>& frames,
                      const VideoOptions& opts,
                      std::vector<hebs::pipeline::ColorStreamResult>* out) {
  hebs::pipeline::EngineOptions eopts;
  eopts.num_threads = 1;
  eopts.hebs = opts.hebs;
  eopts.use_buffer_pool = opts.use_buffer_pool;
  eopts.temporal_reuse = opts.temporal_reuse;
  hebs::pipeline::PipelineEngine engine(eopts, hebs::bench::platform());
  const auto t0 = std::chrono::steady_clock::now();
  auto results = engine.process_stream_color(
      frames, opts, hebs::core::ColorMode::kSharedCurve);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (out != nullptr) *out = std::move(results);
  return elapsed;
}

bool same_decision(const FrameDecision& a, const FrameDecision& b) {
  return a.raw_beta == b.raw_beta && a.beta == b.beta &&
         a.scene_cut == b.scene_cut && a.point.beta == b.point.beta &&
         a.point.luminance_transform.points() ==
             b.point.luminance_transform.points() &&
         a.evaluation.distortion_percent ==
             b.evaluation.distortion_percent &&
         a.evaluation.saving_percent == b.evaluation.saving_percent &&
         a.evaluation.transformed == b.evaluation.transformed;
}

double run_once(const Clip& clip, const VideoOptions& opts,
                std::vector<FrameDecision>* decisions_out) {
  VideoBacklightController controller(opts, hebs::bench::platform());
  const auto t0 = std::chrono::steady_clock::now();
  auto decisions = controller.process_clip(clip.frames);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (decisions_out != nullptr) *decisions_out = std::move(decisions);
  return elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  int frames = 48;
  int size = 96;
  double min_warm_speedup = 0.0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--frames=", 9) == 0) {
      frames = std::atoi(arg + 9);
    } else if (std::strncmp(arg, "--size=", 7) == 0) {
      size = std::atoi(arg + 7);
    } else if (std::strncmp(arg, "--min-warm-speedup=", 19) == 0) {
      min_warm_speedup = std::atof(arg + 19);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--frames=N] [--size=PX] "
                   "[--min-warm-speedup=X]\n",
                   argv[0]);
      return 2;
    }
  }

  hebs::bench::print_header(
      "Video stream throughput: temporal coherence + buffer pools",
      "stream executor fast path (extension; paper targets real-time "
      "frame sequences)");
  const hebs::bench::RunContext context = hebs::bench::run_context();
  const std::string& backend = context.backend;
  std::printf("clips: %d frames at %dx%d, D_max %.0f%%, 1 worker "
              "(static and scene-cut also at %d)\n%s\n\n",
              frames, size, size, kBudget, kWorkers,
              context.describe().c_str());

  const auto clips = make_clips(frames, size);
  struct ModeSpec {
    const char* name;
    bool pooled;
    bool temporal;
  };
  const ModeSpec modes[] = {{"baseline", false, false},
                            {"pool", true, false},
                            {"temporal", true, true}};

  std::vector<hebs::bench::BenchRecord> records;
  double slow_pan_speedup = 0.0;
  bool identical = true;
  bool counts_match = true;

  for (const Clip& clip : clips) {
    // Serial per-frame reference for the bit-identity check.
    VideoBacklightController serial(config_options(false, false),
                                    hebs::bench::platform());
    std::vector<FrameDecision> reference;
    reference.reserve(clip.frames.size());
    for (const auto& frame : clip.frames) {
      reference.push_back(serial.process(frame));
    }

    std::printf("--- %s ---\n", clip.name.c_str());
    double baseline_s = 0.0;
    std::uint64_t one_worker_ident = 0;
    for (const ModeSpec& mode : modes) {
      const VideoOptions opts = config_options(mode.pooled, mode.temporal);
      (void)run_once(clip, opts, nullptr);  // warm caches and pools
      std::vector<FrameDecision> decisions;
      const auto counters_before = hebs::obs::snapshot_counters();
      const double elapsed = run_once(clip, opts, &decisions);
      const auto delta =
          hebs::obs::snapshot_counters().delta_since(counters_before);

      std::size_t mismatches = 0;
      for (std::size_t i = 0; i < decisions.size(); ++i) {
        if (!same_decision(decisions[i], reference[i])) ++mismatches;
      }
      if (mismatches != 0) identical = false;

      const double per_frame_ms =
          1000.0 * elapsed / static_cast<double>(clip.frames.size());
      const double speedup = mode.pooled || mode.temporal
                                 ? baseline_s / elapsed
                                 : 1.0;
      if (!mode.pooled && !mode.temporal) baseline_s = elapsed;
      if (clip.name == "slow-drift" && mode.temporal) {
        slow_pan_speedup = speedup;
      }
      const double probes_per_frame =
          static_cast<double>(delta[hebs::obs::Counter::kRangeProbes]) /
          static_cast<double>(clip.frames.size());
      const auto ident = delta[hebs::obs::Counter::kTemporalByteIdentical];
      const auto refresh = delta[hebs::obs::Counter::kTemporalDeltaRefresh];
      const auto cold = delta[hebs::obs::Counter::kTemporalCold];
      if (mode.temporal) one_worker_ident = ident;
      std::printf("  %-9s: %7.2f ms/frame  (%.2fx vs baseline)  "
                  "%5.1f probes/frame  reuse i/d/c %llu/%llu/%llu  "
                  "bit-identical to serial: %s\n",
                  mode.name, per_frame_ms, speedup, probes_per_frame,
                  static_cast<unsigned long long>(ident),
                  static_cast<unsigned long long>(refresh),
                  static_cast<unsigned long long>(cold),
                  mismatches == 0 ? "yes" : "NO");
      records.push_back(
          {"video_temporal", clip.name + "/" + mode.name,
           elapsed / static_cast<double>(clip.frames.size()) * 1e9,
           static_cast<double>(clip.frames.size()) * size * size /
               elapsed / 1e6,
           backend, probes_per_frame, static_cast<double>(ident),
           static_cast<double>(refresh), static_cast<double>(cold)});
    }
    if (clip.name == "static" || clip.name == "scene-cut") {
      // The multi-worker run: same decisions, same byte-identical count.
      const VideoOptions opts = config_options(true, true, kWorkers);
      (void)run_once(clip, opts, nullptr);
      std::vector<FrameDecision> decisions;
      const auto counters_before = hebs::obs::snapshot_counters();
      const double elapsed = run_once(clip, opts, &decisions);
      const auto delta =
          hebs::obs::snapshot_counters().delta_since(counters_before);
      std::size_t mismatches = 0;
      for (std::size_t i = 0; i < decisions.size(); ++i) {
        if (!same_decision(decisions[i], reference[i])) ++mismatches;
      }
      if (mismatches != 0) identical = false;
      const auto ident = delta[hebs::obs::Counter::kTemporalByteIdentical];
      const bool count_ok = ident == one_worker_ident;
      counts_match = counts_match && count_ok;
      const double n = static_cast<double>(clip.frames.size());
      const std::string name = "temporal-" + std::to_string(kWorkers) + "w";
      std::printf("  %-9s: %7.2f ms/frame  byte-identical %llu (1 worker: "
                  "%llu) %s  bit-identical to serial: %s\n",
                  name.c_str(), 1000.0 * elapsed / n,
                  static_cast<unsigned long long>(ident),
                  static_cast<unsigned long long>(one_worker_ident),
                  count_ok ? "equal" : "DIFFERENT",
                  mismatches == 0 ? "yes" : "NO");
      records.push_back(
          {"video_temporal", clip.name + "/" + name, elapsed / n * 1e9,
           n * size * size / elapsed / 1e6, backend,
           static_cast<double>(delta[hebs::obs::Counter::kRangeProbes]) / n,
           static_cast<double>(ident),
           static_cast<double>(
               delta[hebs::obs::Counter::kTemporalDeltaRefresh]),
           static_cast<double>(delta[hebs::obs::Counter::kTemporalCold])});
    }
    std::printf("\n");
  }

  // --- static-color: byte-identical RGB frames through the engine's
  // color stream path.  The cold baseline pays the full luma search
  // plus the per-pixel color rendering every frame; temporal mode must
  // reuse both (unchanged-frame luma reuse + color-stage rendering
  // reuse), with outputs identical across configurations.
  double color_speedup = 0.0;
  {
    std::vector<hebs::image::RgbImage> color_clip(
        static_cast<std::size_t>(frames),
        hebs::image::make_usid_color(hebs::image::UsidId::kPeppers, size));
    std::printf("--- static-color ---\n");
    std::vector<hebs::pipeline::ColorStreamResult> reference;
    (void)run_color_once(color_clip, config_options(false, false),
                         &reference);
    double baseline_s = 0.0;
    for (const ModeSpec& mode : modes) {
      const VideoOptions opts = config_options(mode.pooled, mode.temporal);
      (void)run_color_once(color_clip, opts, nullptr);  // warm caches
      std::vector<hebs::pipeline::ColorStreamResult> results;
      const auto counters_before = hebs::obs::snapshot_counters();
      const double elapsed = run_color_once(color_clip, opts, &results);
      const auto delta =
          hebs::obs::snapshot_counters().delta_since(counters_before);
      std::size_t mismatches = 0;
      for (std::size_t i = 0; i < results.size(); ++i) {
        if (!same_color_result(results[i], reference[i])) ++mismatches;
      }
      if (mismatches != 0) identical = false;
      const double per_frame_ms =
          1000.0 * elapsed / static_cast<double>(color_clip.size());
      const double speedup =
          mode.pooled || mode.temporal ? baseline_s / elapsed : 1.0;
      if (!mode.pooled && !mode.temporal) baseline_s = elapsed;
      if (mode.temporal) color_speedup = speedup;
      std::printf("  %-9s: %7.2f ms/frame  (%.2fx vs baseline)  "
                  "bit-identical across configs: %s\n",
                  mode.name, per_frame_ms, speedup,
                  mismatches == 0 ? "yes" : "NO");
      records.push_back(
          {"video_temporal", std::string("static-color/") + mode.name,
           elapsed / static_cast<double>(color_clip.size()) * 1e9,
           static_cast<double>(color_clip.size()) * size * size / elapsed /
               1e6,
           backend,
           static_cast<double>(delta[hebs::obs::Counter::kRangeProbes]) /
               static_cast<double>(color_clip.size()),
           static_cast<double>(
               delta[hebs::obs::Counter::kTemporalByteIdentical]),
           static_cast<double>(
               delta[hebs::obs::Counter::kTemporalDeltaRefresh]),
           static_cast<double>(delta[hebs::obs::Counter::kTemporalCold])});
    }
    std::printf("\n");
  }

  // The run context (each record already names its backend).
  hebs::bench::write_bench_json(
      "BENCH_video.json", records,
      "\"size\": " + std::to_string(size) +
          ", \"frames\": " + std::to_string(frames) +
          ", \"cores\": " + std::to_string(context.cores) +
          ", \"cpu\": \"" + context.cpu + "\", \"build_type\": \"" +
          context.build_type + "\"");

  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: stream decisions diverged from the serial "
                 "controller\n");
    return 1;
  }
  if (!counts_match) {
    std::fprintf(stderr,
                 "FAIL: the %d-worker byte-identical count differs from "
                 "the 1-worker count\n",
                 kWorkers);
    return 1;
  }
  std::printf("slow-drift temporal speedup vs cold baseline: %.2fx\n",
              slow_pan_speedup);
  std::printf("static-color temporal speedup vs cold baseline: %.2fx\n",
              color_speedup);
  if (min_warm_speedup > 0.0 && slow_pan_speedup < min_warm_speedup) {
    std::fprintf(stderr, "FAIL: %.2fx < required %.2fx\n",
                 slow_pan_speedup, min_warm_speedup);
    return 1;
  }
  if (min_warm_speedup > 0.0 && color_speedup < min_warm_speedup) {
    std::fprintf(stderr, "FAIL: static-color %.2fx < required %.2fx\n",
                 color_speedup, min_warm_speedup);
    return 1;
  }
  return 0;
}
