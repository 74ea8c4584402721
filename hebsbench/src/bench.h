// Shared types of the end-to-end benchmark.
//
// A Workload owns seeded inputs and drives them through the stable
// facade (hebs::Session), one closed-loop call at a time.  Call k of a
// pass is a fixed (frames, budget) request, so one pass is a
// deterministic function of the seed: its decision digest and mean
// saving are the same on every run and every session thread count.
// The layer probes (layers.cpp) read a workload's frames and reach the
// library's modules through hebs/advanced/*.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hebs/advanced/image.h"
#include "hebs/advanced/pipeline.h"
#include "hebs/hebs.h"

namespace hebsbench {

/// Distortion budgets the paper reports savings at (5/10/20%).
inline constexpr double kBudgets[3] = {5.0, 10.0, 20.0};

/// CPU seconds this process has used, all threads.
double cpu_now_s();

/// Allocations made through the global operator new since the process
/// started (alloc_count.cpp replaces it to count them).
struct AllocTotals {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};
AllocTotals alloc_totals() noexcept;

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// FNV-1a over the decision fields (β, g_min/g_max, Λ) of every frame of
/// a pass, in call order.
class Digest {
 public:
  void add_bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add_bytes(&v, sizeof v); }
  void add(int v) { add_bytes(&v, sizeof v); }
  void add(const std::vector<hebs::CurvePoint>& curve) {
    for (const hebs::CurvePoint& p : curve) {
      add(p.x);
      add(p.y);
    }
  }
  void add(const Digest& other) { add_bytes(&other.h_, sizeof other.h_); }
  std::string hex() const;
  bool operator==(const Digest&) const = default;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// What one facade call decided, checked frame by frame.
struct CallResult {
  int frames = 0;
  int failed = 0;
  double saving_sum = 0.0;
  Digest digest;
  std::string first_failure;  ///< why the first failed frame failed
};

/// One frame handed to the layer probes: its decision raster (gray or
/// BT.601 luma), the RGB original when the workload is color, and the
/// budget the workload decides it at.
struct ProbeFrame {
  const hebs::image::GrayImage* luma = nullptr;
  const hebs::image::RgbImage* rgb = nullptr;
  double budget = 10.0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  /// "WxH pixfmt" of the frames the workload sends.
  virtual std::string frame_size() const = 0;
  /// Builds every input from the seed; the library never sees the seed.
  virtual void generate(std::uint64_t seed) = 0;
  virtual std::size_t calls_per_pass() const = 0;
  virtual std::size_t frames_per_call() const = 0;
  /// The percentile frame_p95_ms reports, fixed per workload so that it
  /// never depends on how many calls a run makes.  Every run makes at
  /// least stats::samples_needed(tail_level()) calls to back it.
  virtual double tail_level() const { return 0.95; }
  /// Issues facade call k (mod calls_per_pass) and checks its outputs.
  virtual CallResult call(hebs::Session& session, std::size_t k) = 0;

  // ---- layer-probe hooks
  /// Distinct frames of the workload, spread over its mix.
  virtual std::vector<ProbeFrame> probe_frames() const = 0;
  /// Runs the internal entry facade call k wraps (core::hebs_exact,
  /// PipelineEngine::process_batch_color or process_stream) on
  /// `engine`, which is configured like the session.
  virtual void internal_call(hebs::pipeline::PipelineEngine& engine,
                             std::size_t k) = 0;
  /// The workload's own pan/dim clip, or nullptr when it has none.
  virtual const std::vector<hebs::image::GrayImage>* pan_clip() const {
    return nullptr;
  }
  virtual bool color() const { return false; }
  virtual bool video() const { return false; }

  std::size_t frames_per_pass() const {
    return calls_per_pass() * frames_per_call();
  }
};

std::unique_ptr<Workload> make_workload(const std::string& name);
const std::vector<std::string>& workload_names();

/// Session configuration every workload runs: library defaults, the
/// given worker count.
hebs::SessionConfig session_config(int threads);

/// Engine options equal to what session_config(threads) builds inside
/// the session, for the layer probes' internal-entry comparisons.
hebs::pipeline::EngineOptions engine_options(int threads);

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

/// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The facade loop's measurements (the timed phase of a run).
struct LoopStats {
  std::size_t calls = 0;
  std::size_t frames = 0;
  std::size_t failed = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU time over the loop, all threads
  std::vector<double> frame_ms;  ///< per call: call ms / frames in call
  std::vector<Digest> pass_digests;  ///< one per completed pass
  std::vector<double> pass_fps;  ///< frames/s of each completed pass
  double pass0_saving_pct = 0.0;
  std::string first_failure;
};

/// Runs facade calls 0, 1, 2, ... until at least `min_seconds` have
/// passed and at least `min_calls` calls were made, stopping only at
/// the end of a pass.
LoopStats run_loop(Workload& w, hebs::Session& session, double min_seconds,
                   std::size_t min_calls);

/// Creates a session and issues the untimed warm-up call; returns the
/// seconds both took.
double setup_session(Workload& w, int threads,
                     std::unique_ptr<hebs::Session>* out);

/// The traced run: per-layer metrics plus the sum-to-whole table.
/// Sets *correct to false when a cross-check (thread-count digest,
/// repeated-pass digest) fails.
std::vector<Metric> run_layers(Workload& w, const Options& opts,
                               int threads, LoopStats* loop, bool* correct);

}  // namespace hebsbench
