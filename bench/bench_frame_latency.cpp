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
//   cold-4t         engine, 4 threads
//   cold-8t         engine, 8 threads
//   cold-1t-bisect  engine, 1 thread, coarse_search off (the frozen
//                   oracle bisection -- the before picture)
//   warm-1t         streaming steady state: marginal cost per duplicate
//                   frame under the temporal-coherence fast path
//
// A single frame runs on its caller at every thread count; with idle
// workers and frames of at least 128² its search speculates its next
// probes on them (DESIGN.md §11), so the thread rows may only get
// faster.  Frames below that size search serially, so there the thread
// rows must match cold-1t.
//
// Per-frame samples come from the observability layer's span tracer,
// not ad-hoc timers: every sample is the duration of the engine's own
// kFrame span (plus the flicker post-stage span for the streaming
// config), so this bench measures exactly what a trace viewer shows.
// Counter deltas add the search depth per configuration.
//
// The whole measurement repeats --runs times; every record and every
// gate uses the median over the runs (records carry the min..max spread
// of the per-run p50 too), so one noisy run cannot fail a gate.
//
// Records merge into BENCH_pipeline.json (other benches' records and
// this bench's records at other frame sizes are preserved) as
// {"bench": "frame_latency", "size", "config", "runs", "p50_ns",
// "p50_min_ns", "p50_max_ns", "p99_ns", "mpix_per_s",
// "range_probes_per_frame", "spec_probes_per_frame",
// "spec_wasted_per_frame", "reuse_byte_identical",
// "reuse_delta_refresh", "reuse_cold", "cores", "cpu", "backend",
// "build_type"}.
//
// Gates (medians over the runs):
//   * cold-8t p50 within 1.25x of cold-1t p50 (threads never cost
//     single-frame latency);
//   * at --size >= 384: cold-4t p50 <= cold-1t p50 when a 4-thread
//     pool has an effective concurrency of at least 3 (speculation must
//     pay for itself); reported only on smaller machines;
//   * with --min-speedup=X: p50(cold-1t-bisect) / p50(cold-1t) >= X.
//
// Flags:
//   --size=N          frame side length (default 96)
//   --passes=N        timing passes over the mix per run (default 4)
//   --runs=N          repetitions of the whole measurement (default 3)
//   --min-speedup=X   coarse-search speedup gate (default: no gate)
//   --per-frame       per-frame medians of the two 1-thread paths
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>
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
  double spec_probes_per_frame = 0.0;
  double spec_wasted_per_frame = 0.0;
  double reuse_ident = 0.0;
  double reuse_refresh = 0.0;
  double reuse_cold = 0.0;
};

/// A cold configuration: one engine, one search mode.
struct ColdConfig {
  int threads;
  bool coarse;
};

/// Times each frame of the mix through a single-frame process_batch
/// call on every configuration's engine, the configurations back to
/// back per frame, so host-load drift hits every row alike: histogram,
/// search and render all run cold, with idle workers (if any) taking
/// the search's speculative probes.  Samples are the durations of the
/// engine's kFrame spans; samples[c] and counters[c] are configuration
/// c's, in frame order.
std::vector<std::vector<double>> cold_samples(
    const std::vector<MixFrame>& mix, const std::vector<ColdConfig>& configs,
    int passes, std::vector<RunCounters>& counters) {
  std::vector<std::unique_ptr<pipeline::PipelineEngine>> engines;
  for (const ColdConfig& c : configs) {
    pipeline::EngineOptions opts;
    opts.num_threads = c.threads;
    opts.hebs.coarse_search = c.coarse;
    engines.push_back(std::make_unique<pipeline::PipelineEngine>(opts));
  }
  std::vector<obs::CounterSnapshot> deltas(configs.size());
  obs::clear_trace();
  for (int pass = 0; pass < passes; ++pass) {
    for (const auto& frame : mix) {
      const std::span<const image::GrayImage> one(&frame.image, 1);
      for (std::size_t c = 0; c < configs.size(); ++c) {
        const auto before = obs::snapshot_counters();
        const auto result = engines[c]->process_batch(one, kBudget);
        if (result.empty()) std::exit(2);  // keep the call observable
        const auto d = obs::snapshot_counters().delta_since(before);
        for (std::size_t k = 0; k < obs::kCounterCount; ++k) {
          deltas[c].values[k] += d.values[k];
        }
      }
    }
  }
  // kFrame spans come from this thread only, in call order.
  std::vector<std::vector<double>> samples(configs.size());
  std::size_t call = 0;
  for (const obs::CollectedSpan& s : obs::collect_trace()) {
    if (s.span != obs::Span::kFrame) continue;
    samples[call++ % configs.size()].push_back(static_cast<double>(s.dur_ns));
  }
  const std::size_t expected =
      mix.size() * static_cast<std::size_t>(passes) * configs.size();
  if (call != expected) {
    std::fprintf(stderr,
                 "FAIL: expected %zu kFrame spans, collected %zu "
                 "(dropped %llu)\n",
                 expected, call,
                 static_cast<unsigned long long>(obs::dropped_spans()));
    std::exit(2);
  }
  counters.assign(configs.size(), {});
  const auto frames = static_cast<double>(samples[0].size());
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const auto per_frame = [&](obs::Counter k) {
      return static_cast<double>(deltas[c][k]) / frames;
    };
    counters[c].range_probes_per_frame = per_frame(obs::Counter::kRangeProbes);
    counters[c].spec_probes_per_frame = per_frame(obs::Counter::kSpecProbes);
    counters[c].spec_wasted_per_frame =
        per_frame(obs::Counter::kSpecProbesWasted);
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
  int size = hebs::bench::kImageSize;
  int passes = 4;
  int runs = 3;
  double min_speedup = 0.0;
  bool per_frame = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--size=", 7) == 0) {
      size = std::max(16, std::atoi(arg + 7));
    } else if (std::strncmp(arg, "--passes=", 9) == 0) {
      passes = std::max(1, std::atoi(arg + 9));
    } else if (std::strncmp(arg, "--runs=", 7) == 0) {
      runs = std::max(1, std::atoi(arg + 7));
    } else if (std::strncmp(arg, "--min-speedup=", 14) == 0) {
      min_speedup = std::atof(arg + 14);
    } else if (std::strcmp(arg, "--per-frame") == 0) {
      per_frame = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg);
      return 2;
    }
  }

  const auto mix = latency_mix(size);
  const hebs::bench::RunContext context = hebs::bench::run_context();
  hebs::bench::print_header(
      "Per-frame decision latency (p50/p99 over a photo/gradient/flat mix)",
      "supports the cold-frame latency budget of DESIGN.md §11");
  std::printf("mix: %zu frames (%dx%d), D_max %.0f%%, %d passes x %d runs\n"
              "%s\n\n",
              mix.size(), size, size, kBudget, passes, runs,
              context.describe().c_str());

  // All samples below are span durations, so record for the whole run.
  obs::start_tracing();

  const char* const names[] = {"cold-1t", "cold-2t", "cold-4t",
                                "cold-8t", "cold-1t-bisect", "warm-1t"};
  const std::vector<ColdConfig> cold = {
      {1, true}, {2, true}, {4, true}, {8, true}, {1, false}};
  struct Row {
    std::string config;
    std::vector<double> p50;  ///< per run
    std::vector<double> p99;
    RunCounters counters;     ///< of the last run (deterministic)
    std::vector<double> samples;  ///< of the last run (--per-frame)
  };
  std::vector<Row> rows;
  for (const char* name : names) rows.push_back({name, {}, {}, {}, {}});
  for (int run = 0; run < runs; ++run) {
    std::vector<RunCounters> counters;
    auto samples = cold_samples(mix, cold, passes, counters);
    for (std::size_t c = 0; c < cold.size(); ++c) {
      rows[c].samples = std::move(samples[c]);
      rows[c].counters = counters[c];
    }
    Row& warm = rows.back();
    warm.samples = warm_samples(mix, passes, &warm.counters);
    for (Row& row : rows) {
      row.p50.push_back(percentile(row.samples, 0.50));
      row.p99.push_back(percentile(row.samples, 0.99));
    }
  }

  obs::stop_tracing();

  const auto find = [&](const char* name) -> const Row& {
    for (const Row& r : rows) {
      if (r.config == name) return r;
    }
    std::abort();
  };
  // Per-run ratio of two rows' p50, median over the runs.
  const auto median_ratio = [&](const char* num, const char* den) {
    const Row& a = find(num);
    const Row& b = find(den);
    std::vector<double> ratios;
    for (int run = 0; run < runs; ++run) {
      ratios.push_back(a.p50[static_cast<std::size_t>(run)] /
                       b.p50[static_cast<std::size_t>(run)]);
    }
    return percentile(ratios, 0.5);
  };

  std::printf("  %-16s %10s %15s %10s %12s %8s %8s %8s\n", "config",
              "p50 (ms)", "p50 spread", "p99 (ms)", "Mpix/s @p50",
              "probes", "spec", "wasted");
  std::vector<std::string> records;
  auto csv = hebs::bench::open_csv("frame_latency_" + std::to_string(size) +
                                   ".csv");
  csv.write_row({"config", "p50_ns", "p99_ns", "mpix_per_s", "backend",
                 "range_probes_per_frame", "spec_probes_per_frame",
                 "spec_wasted_per_frame"});
  for (const Row& row : rows) {
    const double p50 = percentile(row.p50, 0.50);
    const double p99 = percentile(row.p99, 0.50);
    const double lo = *std::min_element(row.p50.begin(), row.p50.end());
    const double hi = *std::max_element(row.p50.begin(), row.p50.end());
    const double mpix =
        static_cast<double>(size) * size / (p50 / 1e9) / 1e6;
    const RunCounters& rc = row.counters;
    std::printf("  %-16s %10.3f %7.3f..%-7.3f %10.3f %12.2f %8.2f %8.2f "
                "%8.2f\n",
                row.config.c_str(), p50 / 1e6, lo / 1e6, hi / 1e6, p99 / 1e6,
                mpix, rc.range_probes_per_frame, rc.spec_probes_per_frame,
                rc.spec_wasted_per_frame);
    char line[1024];
    std::snprintf(
        line, sizeof line,
        "{\"bench\": \"frame_latency\", \"size\": %d, \"config\": \"%s\", "
        "\"runs\": %d, \"p50_ns\": %.1f, \"p50_min_ns\": %.1f, "
        "\"p50_max_ns\": %.1f, \"p99_ns\": %.1f, \"mpix_per_s\": %.3f, "
        "\"range_probes_per_frame\": %.2f, "
        "\"spec_probes_per_frame\": %.2f, "
        "\"spec_wasted_per_frame\": %.2f, "
        "\"reuse_byte_identical\": %.0f, "
        "\"reuse_delta_refresh\": %.0f, \"reuse_cold\": %.0f, %s}",
        size, row.config.c_str(), runs, p50, lo, hi, p99, mpix,
        rc.range_probes_per_frame, rc.spec_probes_per_frame,
        rc.spec_wasted_per_frame, rc.reuse_ident, rc.reuse_refresh,
        rc.reuse_cold, context.json_fields().c_str());
    records.emplace_back(line);
    csv.write_row({row.config, hebs::util::CsvWriter::num(p50),
                   hebs::util::CsvWriter::num(p99),
                   hebs::util::CsvWriter::num(mpix), context.backend,
                   hebs::util::CsvWriter::num(rc.range_probes_per_frame),
                   hebs::util::CsvWriter::num(rc.spec_probes_per_frame),
                   hebs::util::CsvWriter::num(rc.spec_wasted_per_frame)});
  }
  const double speedup = median_ratio("cold-1t-bisect", "cold-1t");
  std::printf("\n  coarse-search speedup (p50, 1 thread, median of %d "
              "runs): %.2fx\n",
              runs, speedup);

  if (per_frame) {
    // Attribution view: per-frame medians for the two 1-thread paths
    // (last run), so a p50 shift is traceable to the frames that moved
    // it.
    const auto& coarse = find("cold-1t").samples;
    const auto& bisect = find("cold-1t-bisect").samples;
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

  int status = 0;
  // Extra threads must never cost single-frame latency (the retired
  // intra-frame row fan-out measured 2.1x here).
  constexpr double kMaxThreadCost = 1.25;
  const double cost_8t = median_ratio("cold-8t", "cold-1t");
  const int effective_8t =
      hebs::pipeline::ThreadPool(8).effective_concurrency();
  std::printf("  8t / 1t (p50): %.2fx (effective parallelism %d, gate "
              "<= %.2fx)\n",
              cost_8t, effective_8t, kMaxThreadCost);
  if (cost_8t > kMaxThreadCost) {
    std::fprintf(stderr,
                 "FAIL: cold-8t p50 %.2fx cold-1t p50 (gate <= %.2fx) with "
                 "effective parallelism %d\n",
                 cost_8t, kMaxThreadCost, effective_8t);
    status = 1;
  }
  // At a realistic frame size speculation runs, and it must pay for
  // itself wherever three or more probes can run at once.
  constexpr int kSpecGateSize = 384;
  constexpr int kSpecGateConcurrency = 3;
  const double gain_4t = median_ratio("cold-4t", "cold-1t");
  const int effective_4t =
      hebs::pipeline::ThreadPool(4).effective_concurrency();
  const bool gate_4t =
      size >= kSpecGateSize && effective_4t >= kSpecGateConcurrency;
  std::printf("  4t / 1t (p50): %.2fx (effective parallelism %d, %s)\n",
              gain_4t, effective_4t,
              gate_4t ? "gate <= 1.00x" : "report only");
  if (gate_4t && gain_4t > 1.0) {
    std::fprintf(stderr,
                 "FAIL: cold-4t p50 %.2fx cold-1t p50 at %dx%d (gate <= "
                 "1.00x with effective parallelism %d)\n",
                 gain_4t, size, size, effective_4t);
    status = 1;
  }

  hebs::bench::merge_bench_json("BENCH_pipeline.json", "frame_latency",
                                records,
                                "\"size\": " + std::to_string(size) + ",");

  if (min_speedup > 0.0 && speedup < min_speedup) {
    std::fprintf(stderr,
                 "FAIL: coarse-search p50 speedup %.2fx below the "
                 "--min-speedup=%.2f gate\n",
                 speedup, min_speedup);
    status = 1;
  }
  return status;
}
