// Per-frame latency distribution for the exact-search decision path.
//
// Throughput benches (bench_pipeline_throughput) measure frames/second
// over a batch, which hides exactly the number an interactive display
// controller cares about: how long ONE cold frame takes from raster to
// decision.  This bench times every frame of a photo/gradient/flat mix
// individually and reports p50/p99 per configuration:
//
//   cold-1t         engine, 1 thread, coarse-to-fine search (default)
//   cold-2t         engine, 2 threads
//   cold-8t         engine, 8 threads (a single frame runs inline on
//                   the caller at every thread count, so the thread
//                   rows must match cold-1t: gated at 1.25x)
//   cold-1t-bisect  engine, 1 thread, coarse_search off (the frozen
//                   oracle bisection -- the before picture)
//   warm-1t         streaming steady state: marginal cost per duplicate
//                   frame under the temporal-coherence fast path
//
// Per-frame samples come from the observability layer's span tracer,
// not ad-hoc timers: every sample is the duration of the engine's own
// kFrame span (plus the flicker post-stage span for the streaming
// config), so this bench measures exactly what a trace viewer shows.
// Counter deltas add the search depth per configuration.
//
// Records merge into BENCH_pipeline.json (other benches' records are
// preserved) as {"bench": "frame_latency", "config", "p50_ns",
// "p99_ns", "mpix_per_s", "backend", "range_probes_per_frame",
// "reuse_byte_identical", "reuse_delta_refresh", "reuse_cold"}.
//
// Flags:
//   --passes=N        timing passes over the mix (default 4)
//   --min-speedup=X   CI gate: fail unless p50(cold-1t-bisect) /
//                     p50(cold-1t) >= X (default: no gate)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "bench_common.h"
#include "hebs/advanced/core.h"
#include "hebs/advanced/kernels.h"
#include "hebs/advanced/obs.h"
#include "hebs/advanced/pipeline.h"

namespace {

using namespace hebs;

constexpr double kBudget = 10.0;

struct MixFrame {
  std::string name;
  image::GrayImage image;
};

/// 24 frames, 8 per class.  Photos exercise the full search depth;
/// gradients have smooth well-spread histograms (typical UI/video
/// content); flats are the best case every adaptive-backlight paper
/// leads with (native range ~0, the search collapses immediately).
std::vector<MixFrame> latency_mix(int size) {
  std::vector<MixFrame> mix;
  const auto album = image::usid_album(size);
  for (std::size_t i = 0; i < album.size() && mix.size() < 8; ++i) {
    mix.push_back({"photo:" + album[i].name, album[i].image});
  }
  const auto gradient = [&](const std::string& name, auto&& draw) {
    image::GrayImage img(size, size);
    draw(img);
    mix.push_back({"gradient:" + name, std::move(img)});
  };
  gradient("h-full", [](auto& g) { image::gradient_h(g, 0.0, 1.0); });
  gradient("h-mid", [](auto& g) { image::gradient_h(g, 0.2, 0.9); });
  gradient("v-full", [](auto& g) { image::gradient_v(g, 0.0, 1.0); });
  gradient("v-dim", [](auto& g) { image::gradient_v(g, 0.1, 0.6); });
  gradient("radial", [&](auto& g) {
    image::gradient_radial(g, size / 2.0, size / 2.0, size * 0.7, 1.0, 0.0);
  });
  gradient("radial-off", [&](auto& g) {
    image::gradient_radial(g, size / 3.0, size / 3.0, size * 0.9, 0.8, 0.1);
  });
  gradient("h-rev", [](auto& g) { image::gradient_h(g, 1.0, 0.0); });
  gradient("v-vignette", [&](auto& g) {
    image::gradient_v(g, 0.3, 1.0);
    image::vignette(g, 0.6);
  });
  for (const double v : {0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9, 1.0}) {
    image::GrayImage img(size, size);
    image::fill_rect(img, 0, 0, size, size, v);
    mix.push_back({"flat:" + std::to_string(v).substr(0, 4),
                   std::move(img)});
  }
  return mix;
}

double percentile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[std::min(rank, samples.size() - 1)];
}

/// Counter deltas a sampling run attributes to its records.
struct RunCounters {
  double range_probes_per_frame = 0.0;
  double reuse_ident = 0.0;
  double reuse_refresh = 0.0;
  double reuse_cold = 0.0;
};

/// Times each frame of the mix through a fresh single-frame
/// process_batch call: histogram, search and render all run cold, with
/// idle workers (if any) fanning the frame's own row loops.  Samples
/// are the durations of the engine's kFrame spans, in call order.
std::vector<double> cold_samples(const std::vector<MixFrame>& mix,
                                 int threads, bool coarse, int passes,
                                 RunCounters* counters) {
  pipeline::EngineOptions opts;
  opts.num_threads = threads;
  opts.hebs.coarse_search = coarse;
  pipeline::PipelineEngine engine(opts);
  obs::clear_trace();
  const auto before = obs::snapshot_counters();
  for (int pass = 0; pass < passes; ++pass) {
    for (const auto& frame : mix) {
      const std::span<const image::GrayImage> one(&frame.image, 1);
      const auto result = engine.process_batch(one, kBudget);
      if (result.empty()) std::exit(2);  // keep the call observable
    }
  }
  const auto delta = obs::snapshot_counters().delta_since(before);
  std::vector<double> samples;
  samples.reserve(mix.size() * static_cast<std::size_t>(passes));
  for (const obs::CollectedSpan& s : obs::collect_trace()) {
    if (s.span == obs::Span::kFrame) {
      samples.push_back(static_cast<double>(s.dur_ns));
    }
  }
  if (samples.size() != mix.size() * static_cast<std::size_t>(passes)) {
    std::fprintf(stderr,
                 "FAIL: expected %zu kFrame spans, collected %zu "
                 "(dropped %llu)\n",
                 mix.size() * static_cast<std::size_t>(passes),
                 samples.size(),
                 static_cast<unsigned long long>(obs::dropped_spans()));
    std::exit(2);
  }
  if (counters != nullptr) {
    counters->range_probes_per_frame =
        static_cast<double>(delta[obs::Counter::kRangeProbes]) /
        static_cast<double>(samples.size());
  }
  return samples;
}

/// Streaming steady state: runs a clip of `kReps` duplicates of each
/// frame and reports the mean warm per-frame cost — the duration of a
/// duplicate frame's kFrame span plus its flicker post-stage span,
/// excluding the cold head (span arg = frame index) -- what a static
/// scene costs per frame once the temporal fast path is warm.
std::vector<double> warm_samples(const std::vector<MixFrame>& mix,
                                 int passes, RunCounters* counters) {
  constexpr int kReps = 17;
  pipeline::EngineOptions opts;
  opts.num_threads = 1;
  pipeline::PipelineEngine engine(opts);
  core::VideoOptions vopts;
  vopts.d_max_percent = kBudget;
  const auto before = obs::snapshot_counters();
  std::vector<double> samples;
  samples.reserve(mix.size() * static_cast<std::size_t>(passes));
  for (int pass = 0; pass < passes; ++pass) {
    for (const auto& frame : mix) {
      const std::vector<image::GrayImage> clip(kReps, frame.image);
      obs::clear_trace();
      engine.process_stream(clip, vopts);
      double warm_ns = 0.0;
      int warm_frames = 0;
      for (const obs::CollectedSpan& s : obs::collect_trace()) {
        if (s.arg == 0) continue;  // the cold head frame
        if (s.span == obs::Span::kFrame) {
          warm_ns += static_cast<double>(s.dur_ns);
          ++warm_frames;
        } else if (s.span == obs::Span::kFlickerPost) {
          warm_ns += static_cast<double>(s.dur_ns);
        }
      }
      if (warm_frames != kReps - 1) {
        std::fprintf(stderr, "FAIL: expected %d warm kFrame spans, got %d\n",
                     kReps - 1, warm_frames);
        std::exit(2);
      }
      samples.push_back(warm_ns / warm_frames);
    }
  }
  const auto delta = obs::snapshot_counters().delta_since(before);
  if (counters != nullptr) {
    const auto frames = static_cast<double>(samples.size()) * kReps;
    counters->range_probes_per_frame =
        static_cast<double>(delta[obs::Counter::kRangeProbes]) / frames;
    counters->reuse_ident = static_cast<double>(
        delta[obs::Counter::kTemporalByteIdentical]);
    counters->reuse_refresh =
        static_cast<double>(delta[obs::Counter::kTemporalDeltaRefresh]);
    counters->reuse_cold =
        static_cast<double>(delta[obs::Counter::kTemporalCold]);
  }
  return samples;
}

}  // namespace

int main(int argc, char** argv) {
  int passes = 4;
  double min_speedup = 0.0;
  bool per_frame = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--passes=", 9) == 0) {
      passes = std::max(1, std::atoi(arg + 9));
    } else if (std::strncmp(arg, "--min-speedup=", 14) == 0) {
      min_speedup = std::atof(arg + 14);
    } else if (std::strcmp(arg, "--per-frame") == 0) {
      per_frame = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg);
      return 2;
    }
  }

  const int size = hebs::bench::kImageSize;
  const auto mix = latency_mix(size);
  const std::string backend = hebs::kernels::active().name;
  hebs::bench::print_header(
      "Per-frame decision latency (p50/p99 over a photo/gradient/flat mix)",
      "supports the cold-frame latency budget of DESIGN.md §11");
  std::printf("mix: %zu frames (%dx%d), D_max %.0f%%, %d passes, "
              "backend %s\n\n",
              mix.size(), size, size, kBudget, passes, backend.c_str());

  // All samples below are span durations, so record for the whole run.
  obs::start_tracing();

  struct Row {
    std::string config;
    std::vector<double> samples;
    RunCounters counters;
  };
  std::vector<Row> rows;
  rows.push_back({"cold-1t", {}, {}});
  rows.back().samples = cold_samples(mix, 1, true, passes,
                                     &rows.back().counters);
  rows.push_back({"cold-2t", {}, {}});
  rows.back().samples = cold_samples(mix, 2, true, passes,
                                     &rows.back().counters);
  rows.push_back({"cold-8t", {}, {}});
  rows.back().samples = cold_samples(mix, 8, true, passes,
                                     &rows.back().counters);
  rows.push_back({"cold-1t-bisect", {}, {}});
  rows.back().samples = cold_samples(mix, 1, false, passes,
                                     &rows.back().counters);
  rows.push_back({"warm-1t", {}, {}});
  rows.back().samples = warm_samples(mix, passes, &rows.back().counters);

  obs::stop_tracing();

  std::printf("  %-16s %10s %10s %12s %14s\n", "config", "p50 (ms)",
              "p99 (ms)", "Mpix/s @p50", "probes/frame");
  std::vector<std::string> records;
  double p50_coarse = 0.0;
  double p50_bisect = 0.0;
  double p50_8t = 0.0;
  auto csv = hebs::bench::open_csv("frame_latency.csv");
  csv.write_row({"config", "p50_ns", "p99_ns", "mpix_per_s", "backend",
                 "range_probes_per_frame"});
  for (const Row& row : rows) {
    const double p50 = percentile(row.samples, 0.50);
    const double p99 = percentile(row.samples, 0.99);
    const double mpix =
        static_cast<double>(size) * size / (p50 / 1e9) / 1e6;
    std::printf("  %-16s %10.3f %10.3f %12.2f %14.1f\n", row.config.c_str(),
                p50 / 1e6, p99 / 1e6, mpix,
                row.counters.range_probes_per_frame);
    char line[384];
    std::snprintf(line, sizeof line,
                  "{\"bench\": \"frame_latency\", \"config\": \"%s\", "
                  "\"p50_ns\": %.1f, \"p99_ns\": %.1f, "
                  "\"mpix_per_s\": %.3f, \"backend\": \"%s\", "
                  "\"range_probes_per_frame\": %.2f, "
                  "\"reuse_byte_identical\": %.0f, "
                  "\"reuse_delta_refresh\": %.0f, \"reuse_cold\": %.0f}",
                  row.config.c_str(), p50, p99, mpix, backend.c_str(),
                  row.counters.range_probes_per_frame,
                  row.counters.reuse_ident, row.counters.reuse_refresh,
                  row.counters.reuse_cold);
    records.emplace_back(line);
    csv.write_row({row.config, hebs::util::CsvWriter::num(p50),
                   hebs::util::CsvWriter::num(p99),
                   hebs::util::CsvWriter::num(mpix), backend,
                   hebs::util::CsvWriter::num(
                       row.counters.range_probes_per_frame)});
    if (row.config == "cold-1t") p50_coarse = p50;
    if (row.config == "cold-1t-bisect") p50_bisect = p50;
    if (row.config == "cold-8t") p50_8t = p50;
  }
  const double speedup = p50_bisect / p50_coarse;
  std::printf("\n  coarse-search speedup (p50, 1 thread): %.2fx\n", speedup);

  if (per_frame) {
    // Attribution view: per-frame medians for the two 1-thread paths,
    // so a p50 shift is traceable to the frames that moved it.
    const auto& coarse = rows[0].samples;
    const auto& bisect = rows[3].samples;
    std::printf("\n  %-22s %12s %12s\n", "frame", "coarse (ms)",
                "bisect (ms)");
    for (std::size_t f = 0; f < mix.size(); ++f) {
      std::vector<double> a;
      std::vector<double> b;
      for (int pass = 0; pass < passes; ++pass) {
        a.push_back(coarse[static_cast<std::size_t>(pass) * mix.size() + f]);
        b.push_back(bisect[static_cast<std::size_t>(pass) * mix.size() + f]);
      }
      std::printf("  %-22s %12.3f %12.3f\n", mix[f].name.c_str(),
                  percentile(a, 0.5) / 1e6, percentile(b, 0.5) / 1e6);
    }
  }

  // A single frame runs inline on the calling thread at every thread
  // count, so extra threads must not cost single-frame latency.  One
  // gate for every effective parallelism: cold-8t within 1.25x of
  // cold-1t (the retired intra-frame row fan-out measured 2.1x here).
  constexpr double kMaxThreadCost = 1.25;
  const int effective = hebs::pipeline::ThreadPool(8).effective_concurrency();
  std::printf("  8t / 1t (p50): %.2fx (effective parallelism %d, gate "
              "<= %.2fx)\n",
              p50_8t / p50_coarse, effective, kMaxThreadCost);
  if (p50_8t > kMaxThreadCost * p50_coarse) {
    std::fprintf(stderr,
                 "FAIL: cold-8t p50 (%.3f ms) above %.2fx cold-1t p50 "
                 "(%.3f ms) with effective parallelism %d\n",
                 p50_8t / 1e6, kMaxThreadCost, p50_coarse / 1e6, effective);
    return 1;
  }

  hebs::bench::merge_bench_json("BENCH_pipeline.json", "frame_latency",
                                records);

  if (min_speedup > 0.0 && speedup < min_speedup) {
    std::fprintf(stderr,
                 "FAIL: coarse-search p50 speedup %.2fx below the "
                 "--min-speedup=%.2f gate\n",
                 speedup, min_speedup);
    return 1;
  }
  return 0;
}
