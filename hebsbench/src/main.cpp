// hebsbench: the end-to-end benchmark of the HEBS library.
//
//   hebsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--git-sha <sha>] [--source-digest <hex>]
//
// --trace 0 measures the end-to-end metrics with tracing off: set-up
// (Session::create plus the warm-up call, median of five), then a
// closed loop of facade calls for --seconds (and at least one full
// pass, and enough calls to back the workload's tail level), under the
// library's default allocator, as any caller runs it.  --trace 1 is the
// separate traced run that prints the per-layer metrics and the
// sum-to-whole table (layers.cpp).  Both check every frame and print
// the workload's decision digest.  The last line of stdout is the JSON
// result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Run through run.py, which builds this binary first.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.h"
#include "hebs/advanced/kernels.h"
#include "stats.h"

#ifndef HEBSBENCH_BUILD_TYPE
#define HEBSBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace hebsbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "hebsbench: %s\n"
               "usage: hebsbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--git-sha <sha>] "
               "[--source-digest <hex>]\nworkloads:",
               why);
  for (const std::string& n : workload_names()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::atof(v);
    } else if (flag == "--trace") {
      o.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--git-sha") {
      o.git_sha = v;
    } else if (flag == "--source-digest") {
      o.source_digest = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (o.seconds <= 0.0) usage("--seconds must be positive");
  return o;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                  &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
    s = s.c_str();  // drop trailing NULs
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void print_context(const Options& o, const Workload& w, int threads) {
  const int effective =
      hebs::pipeline::ThreadPool(threads).effective_concurrency();
  std::printf(
      "context {\"nproc\": %d, \"effective_concurrency\": %d, "
      "\"cpu\": \"%s\", \"backend\": \"%s\", \"build_type\": \"%s\", "
      "\"workload\": \"%s\", \"frame_size\": \"%s\", "
      "\"session_threads\": %d, \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"frame_p95_ms_level\": %g, \"git_sha\": \"%s\", "
      "\"source_digest\": \"%s\"}\n",
      threads, effective, cpu_model().c_str(), hebs::kernels::active().name,
      HEBSBENCH_BUILD_TYPE, w.name(), w.frame_size().c_str(), threads,
      static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0,
      w.tail_level(), o.git_sha.c_str(), o.source_digest.c_str());
}

/// Checks the loop's outputs; prints the digest line.
bool check_loop(const Workload& w, const LoopStats& loop) {
  bool same = !loop.pass_digests.empty();
  for (const Digest& d : loop.pass_digests) {
    same = same && d == loop.pass_digests.front();
  }
  std::printf("digest %s %s (%zu full passes of %zu calls, %s)\n", w.name(),
              loop.pass_digests.empty()
                  ? "-"
                  : loop.pass_digests.front().hex().c_str(),
              loop.pass_digests.size(),
              w.calls_per_pass(),
              same ? "all passes equal" : "PASSES DIFFER");
  std::printf("failed_frac %.6f ratio (%zu of %zu frames)%s%s\n",
              loop.frames == 0 ? 0.0
                               : static_cast<double>(loop.failed) /
                                     static_cast<double>(loop.frames),
              loop.failed, loop.frames,
              loop.failed != 0 ? "; first: " : "",
              loop.first_failure.c_str());
  return same && loop.failed == 0;
}

void print_result(bool correct, const LoopStats& loop,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-32s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", loop.frames, loop.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  auto workload = make_workload(opts.workload);
  if (!workload) usage(("unknown workload " + opts.workload).c_str());
  // The session runs nproc workers.
  const int threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  print_context(opts, *workload, threads);

  const double g0 = now_s();
  workload->generate(opts.seed);
  std::printf("inputs generated in %.2f s: %zu calls/pass, %zu frames/pass\n",
              now_s() - g0, workload->calls_per_pass(),
              workload->frames_per_pass());
  std::fflush(stdout);

  if (opts.trace) {
    LoopStats loop;
    bool correct = true;
    const std::vector<Metric> metrics =
        run_layers(*workload, opts, threads, &loop, &correct);
    correct = check_loop(*workload, loop) && correct;
    print_result(correct, loop, metrics);
    return 0;
  }

  // Set up five times; the last session runs the timed loop.
  std::vector<double> setups;
  std::unique_ptr<hebs::Session> session;
  for (int i = 0; i < 5; ++i) {
    session.reset();
    setups.push_back(setup_session(*workload, threads, &session));
  }
  // Every run makes enough calls to back the workload's tail level.
  const double tail = workload->tail_level();
  const std::size_t min_calls = std::max(workload->calls_per_pass(),
                                         stats::samples_needed(tail));
  const LoopStats loop =
      run_loop(*workload, *session, opts.seconds, min_calls);
  const bool correct = check_loop(*workload, loop);

  const std::size_t n = loop.frame_ms.size();
  const std::vector<Metric> metrics = {
      {"setup_s", stats::median(setups), "s"},
      {"frames_per_s", stats::median(loop.pass_fps), "frames/s"},
      {"frame_p50_ms", stats::median(loop.frame_ms), "ms"},
      {"frame_p95_ms", stats::percentile(loop.frame_ms, tail), "ms"},
      {"saving_pct", loop.pass0_saving_pct, "%"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };
  const auto q = stats::quartiles(loop.frame_ms);
  std::printf("samples: %zu calls, %zu frames in %.2f s (%.2f CPU s); "
              "frame ms quartiles %.3f / %.3f / %.3f; frame_p95_ms is the "
              "p%ld\n",
              n, loop.frames, loop.wall_s, loop.cpu_s, q[0], q[1], q[2],
              std::lround(tail * 100));
  std::printf("frames/s per pass:");
  for (const double fps : loop.pass_fps) std::printf(" %.3f", fps);
  std::printf("\n");
  print_result(correct, loop, metrics);
  return 0;
}
