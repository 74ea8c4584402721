// Shared helpers for the benchmark harness.
//
// Every bench binary regenerates one table or figure of the paper: it
// prints a paper-style console table and writes the underlying series to
// CSV under ./bench_results/ so plots can be reproduced externally.
#pragma once

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "hebs/advanced/image.h"
#include "hebs/advanced/kernels.h"
#include "hebs/advanced/power.h"
#include "hebs/advanced/util.h"

#ifndef HEBS_BENCH_BUILD_TYPE
#define HEBS_BENCH_BUILD_TYPE "unknown"
#endif

namespace hebs::bench {

/// Side length used for benchmark images (large enough for stable UIQI
/// statistics, small enough to keep every bench under a minute).
inline constexpr int kImageSize = 96;

/// Directory all bench CSVs are written to (created on demand).
inline std::string results_dir() {
  const std::string dir = "bench_results";
  std::filesystem::create_directories(dir);
  return dir;
}

/// Opens a CSV in the results directory.
inline hebs::util::CsvWriter open_csv(const std::string& name) {
  return hebs::util::CsvWriter(results_dir() + "/" + name);
}

/// The paper's measurement platform.
inline const hebs::power::LcdSubsystemPower& platform() {
  static const auto model = hebs::power::LcdSubsystemPower::lp064v1();
  return model;
}

/// Prints a section header for a bench binary.
inline void print_header(const std::string& title,
                         const std::string& paper_ref) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("Reproduces: %s\n\n", paper_ref.c_str());
}

/// Where a bench ran: the context every timing record carries.
struct RunContext {
  int cores = 0;  ///< hardware threads
  std::string cpu;
  std::string backend;  ///< active kernel backend
  std::string build_type;

  /// One console line.
  std::string describe() const {
    return "context: " + std::to_string(cores) + " cores, " + cpu +
           ", backend " + backend + ", " + build_type + " build";
  }

  /// The same as JSON object fields (no braces), for a record line.
  std::string json_fields() const {
    return machine_fields() + ", \"backend\": \"" + backend + "\"";
  }

  /// Cores, CPU and build type only, for records that name the backend
  /// they measured themselves.
  std::string machine_fields() const {
    return "\"cores\": " + std::to_string(cores) + ", \"cpu\": \"" + cpu +
           "\", \"build_type\": \"" + build_type + "\"";
  }
};

/// The CPU model from /proc/cpuinfo ("unknown" where there is none).
inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    const auto b = line.find_first_not_of(' ', colon + 1);
    return b == std::string::npos ? "unknown" : line.substr(b);
  }
  return "unknown";
}

inline RunContext run_context() {
  RunContext c;
  c.cores = static_cast<int>(std::thread::hardware_concurrency());
  c.cpu = cpu_model();
  c.backend = hebs::kernels::active().name;
  c.build_type = HEBS_BENCH_BUILD_TYPE;
  return c;
}

/// One machine-readable benchmark record.  The perf-tracking benches
/// (bench_pipeline_throughput, bench_kernel_dispatch) append these and
/// write a BENCH_*.json next to the working directory so the perf
/// trajectory can be diffed across PRs.
struct BenchRecord {
  std::string bench;    ///< bench binary / scenario family
  std::string config;   ///< measured configuration within the bench
  double ns_per_frame;  ///< wall time per processed frame/raster, ns
  double mpix_per_s;    ///< throughput in megapixels per second
  std::string backend;  ///< active kernel backend during the run
  // Observability columns (counter deltas over the measured run, per
  // processed frame).  Benches that predate the counter registry, or
  // whose workload has no search/temporal stage, leave the zeros.
  double range_probes_per_frame = 0.0;  ///< exact range-search probes
  double reuse_byte_identical = 0.0;    ///< temporal level counts ...
  double reuse_delta_refresh = 0.0;     ///< ... over the whole run
  double reuse_cold = 0.0;
};

/// Writes records as a JSON array:
///   [{"bench": ..., "config": ..., "ns_per_frame": ...,
///     "mpix_per_s": ..., "backend": ..., "range_probes_per_frame": ...,
///     "reuse_byte_identical": ..., "reuse_delta_refresh": ...,
///     "reuse_cold": ...}, ...]
/// `extra_fields` (JSON object fields without braces, e.g. a
/// RunContext's json_fields()) is appended to every record.
inline void write_bench_json(const std::string& path,
                             const std::vector<BenchRecord>& records,
                             const std::string& extra_fields = "") {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    std::fprintf(f,
                 "  {\"bench\": \"%s\", \"config\": \"%s\", "
                 "\"ns_per_frame\": %.1f, \"mpix_per_s\": %.3f, "
                 "\"backend\": \"%s\", "
                 "\"range_probes_per_frame\": %.2f, "
                 "\"reuse_byte_identical\": %.0f, "
                 "\"reuse_delta_refresh\": %.0f, "
                 "\"reuse_cold\": %.0f%s%s}%s\n",
                 r.bench.c_str(), r.config.c_str(), r.ns_per_frame,
                 r.mpix_per_s, r.backend.c_str(), r.range_probes_per_frame,
                 r.reuse_byte_identical, r.reuse_delta_refresh, r.reuse_cold,
                 extra_fields.empty() ? "" : ", ", extra_fields.c_str(),
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("wrote %s (%zu records)\n", path.c_str(), records.size());
}

/// Merges pre-rendered record lines into an existing BENCH json written
/// by write_bench_json (one `  {...}` object per line): records from
/// other benches are kept, prior records of `bench` are replaced — only
/// those containing `scope` when it is non-empty (e.g. one frame size
/// of a bench that records several).  Each line in `record_lines` must
/// be a complete JSON object WITHOUT the leading indent or trailing
/// comma.
inline void merge_bench_json(const std::string& path,
                             const std::string& bench,
                             const std::vector<std::string>& record_lines,
                             const std::string& scope = "") {
  const std::string marker = "\"bench\": \"" + bench + "\"";
  std::vector<std::string> kept;
  {
    std::ifstream in(path);
    std::string line;
    while (in.is_open() && std::getline(in, line)) {
      if (line.rfind("  {", 0) != 0) continue;  // array brackets
      if (line.find(marker) != std::string::npos &&
          line.find(scope) != std::string::npos) {
        continue;
      }
      if (!line.empty() && line.back() == ',') line.pop_back();
      kept.push_back(line);
    }
  }
  for (const std::string& r : record_lines) kept.push_back("  " + r);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < kept.size(); ++i) {
    std::fprintf(f, "%s%s\n", kept[i].c_str(),
                 i + 1 < kept.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("wrote %s (%zu records)\n", path.c_str(), kept.size());
}

}  // namespace hebs::bench
