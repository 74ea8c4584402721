// Builder-style configuration for a hebs::Session.
//
// Every knob has the library default; setters return *this so a config
// reads as one chained expression:
//
//   auto session = hebs::Session::create(hebs::SessionConfig()
//                                            .policy("hebs-exact")
//                                            .metric("uiqi-hvs")
//                                            .segments(8)
//                                            .threads(4));
//
// validate() checks every field against its documented domain and
// reports the first violation as a typed Status — the facade never
// silently clamps an out-of-domain option.  Policy and metric *names*
// are resolved against the registries at Session::create time.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "hebs/status.h"

namespace hebs {

class SessionConfig {
 public:
  SessionConfig() = default;

  // ---------------------------------------------------- policy & metric
  /// DBS policy selected by registry name ("hebs-exact", "hebs-curve",
  /// "dls", "cbcs", ...).  Default "hebs-exact".
  SessionConfig& policy(std::string name) {
    policy_ = std::move(name);
    return *this;
  }
  const std::string& policy() const noexcept { return policy_; }

  /// Distortion metric selected by registry name ("uiqi-hvs",
  /// "percent-mapped", "ssim", ...).  Default "uiqi-hvs".
  SessionConfig& metric(std::string name) {
    metric_ = std::move(name);
    return *this;
  }
  const std::string& metric() const noexcept { return metric_; }

  /// SIMD kernel backend selected by KernelRegistry name ("scalar",
  /// "sse42", "avx2", "neon").  Default "" = keep the current
  /// process-global selection (auto-detected at startup, or forced via
  /// the HEBS_FORCE_BACKEND environment variable).  Note the backend is
  /// process-global: Session::create switches it for every session.
  /// All backends are bit-identical, so this only affects speed.
  SessionConfig& kernel_backend(std::string name) {
    kernel_backend_ = std::move(name);
    return *this;
  }
  const std::string& kernel_backend() const noexcept {
    return kernel_backend_;
  }

  /// How color (rgb8) frames processed with color output have the
  /// chosen operating point applied to their three sub-pixel channels:
  /// "shared-curve" (the paper's §2 construction: the shared monotone
  /// curve per channel — channel ordering preserved, bounded hue
  /// drift) or "luma-ratio" (chroma-preserving: the curve scales each
  /// pixel's BT.601 luma and the channels reapply their original
  /// ratios — hue exact up to rounding unless a channel saturates).
  /// β and the decision pipeline are identical in both modes; only the
  /// post-decision raster application differs.  Default "shared-curve".
  SessionConfig& color_mode(std::string name) {
    color_mode_ = std::move(name);
    return *this;
  }
  const std::string& color_mode() const noexcept { return color_mode_; }

  /// Pixel bit depth of the session's frames: 8 (gray8/rgb8 views,
  /// the default), or 10/16 for deep-pixel gray16 views.  A deep
  /// session decides on the frame's own level lattice (1024 or 65536
  /// histogram bins) with the same staged pipeline; supported policies
  /// are "hebs-exact" (including fixed_range requests) and "bbhe" —
  /// any other policy is a kInvalidOption at process time, as are
  /// color and video calls — and frames must arrive as
  /// ImageView::gray16 whose samples stay below 2^bit_depth.
  /// Mismatched view/depth combinations are typed errors
  /// (kUnknownDepth / kInvalidImage), never silent rescales.
  SessionConfig& bit_depth(int bits) {
    bit_depth_ = bits;
    return *this;
  }
  int bit_depth() const noexcept { return bit_depth_; }

  // ------------------------------------------------- pipeline tunables
  /// PLC segment budget m, >= 1.  Default 8.
  SessionConfig& segments(int m) {
    segments_ = m;
    return *this;
  }
  int segments() const noexcept { return segments_; }

  /// Floor for the bottom of the target range, in [0, 254].  Default 0.
  SessionConfig& g_min_floor(int g) {
    g_min_floor_ = g;
    return *this;
  }
  int g_min_floor() const noexcept { return g_min_floor_; }

  /// Smallest admissible dynamic range, >= 2.  Default 16.
  SessionConfig& min_range(int r) {
    min_range_ = r;
    return *this;
  }
  int min_range() const noexcept { return min_range_; }

  /// Lowest backlight factor, in (0, 1].  Default 0.05.
  SessionConfig& min_beta(double b) {
    min_beta_ = b;
    return *this;
  }
  double min_beta() const noexcept { return min_beta_; }

  /// Equalization strength w in [0, 1], or -1 for adaptive selection.
  /// Default -1.
  SessionConfig& equalization_strength(double w) {
    equalization_strength_ = w;
    return *this;
  }
  double equalization_strength() const noexcept {
    return equalization_strength_;
  }

  /// Concurrent brightness-scaling refinement in exact mode.  Default
  /// true.
  SessionConfig& concurrent_scaling(bool on) {
    concurrent_scaling_ = on;
    return *this;
  }
  bool concurrent_scaling() const noexcept { return concurrent_scaling_; }

  // ----------------------------------------------------------- engine
  /// Worker threads for batch/video processing (process() borrows the
  /// idle ones for speculative search probes); 0 selects the hardware
  /// concurrency.  Default 0.
  SessionConfig& threads(int n) {
    threads_ = n;
    return *this;
  }
  int threads() const noexcept { return threads_; }

  /// Per-worker recycling buffer pools: per-frame scratch (rasters,
  /// integral tables, curves, memo nodes) is recycled instead of
  /// reallocated, making the engine's steady state allocation-free.
  /// Purely a performance knob — outputs are identical either way.
  /// Default true.
  SessionConfig& buffer_pool(bool on) {
    buffer_pool_ = on;
    return *this;
  }
  bool buffer_pool() const noexcept { return buffer_pool_; }

  /// Cap on each buffer pool, in MiB; 0 = unlimited.  Bounds both the
  /// bytes a pool retains on its free lists and the bytes checked out
  /// of it at once: exhaustion degrades to counted plain-heap blocks
  /// (SessionStats::pool_heap_fallbacks) — it never fails a frame.
  /// Default 0 (a cap below the per-frame working set reintroduces
  /// steady-state allocations).
  SessionConfig& pool_max_mb(int mb) {
    pool_max_mb_ = mb;
    return *this;
  }
  int pool_max_mb() const noexcept { return pool_max_mb_; }

  /// Soft per-frame deadline, microseconds; 0 = none.  Applies to
  /// every policy on every entry point: process(), batches and video.
  /// A frame whose decision (for color output, decision + rendering)
  /// takes longer still completes, but its result is replaced by the
  /// identity fallback (β = 1, identity transform — zero distortion,
  /// zero saving) and marked degraded with kDeadlineExceeded
  /// (FrameResult::status).  Soft: the check runs after the frame's
  /// work, so an overrun is detected, not preempted.  Default 0.
  SessionConfig& frame_deadline_us(std::int64_t us) {
    frame_deadline_us_ = us;
    return *this;
  }
  std::int64_t frame_deadline_us() const noexcept {
    return frame_deadline_us_;
  }

  /// Temporal-coherence fast path for process_video: duplicate-frame
  /// reuse, incremental histogram updates, and warm-started searches
  /// with verified brackets.  Results are bit-identical to the cold
  /// per-frame search under the monotone-distortion contract (see
  /// DESIGN.md §9; decisions honor the distortion budget either way).
  /// Set false for unconditional cold-path equality.  Default true.
  SessionConfig& temporal_reuse(bool on) {
    temporal_reuse_ = on;
    return *this;
  }
  bool temporal_reuse() const noexcept { return temporal_reuse_; }

  // --------------------------------------------- distortion curve cache
  /// CSV of a saved distortion characteristic curve for the hebs-curve
  /// policy.  When unset, the session characterizes on first use (at
  /// characterization_size) and caches the curve for its lifetime.
  SessionConfig& curve_path(std::string csv) {
    curve_path_ = std::move(csv);
    return *this;
  }
  const std::string& curve_path() const noexcept { return curve_path_; }

  // ---------------------------------------------------- observability
  /// Deterministic fault injection (testing/soak only): a
  /// ';'-separated list of "point[:key=value,...]" specs arming the
  /// library's named fault points, or "off"/"none" to disarm.  Points:
  /// "pool-alloc", "worker-task", "frame-corrupt", "curve-io",
  /// "trace-io", "stage-latency"; keys: first=N (1-based hit that fires
  /// first, default 1), every=N (stride after that, default 1), count=N
  /// (firing budget, 0 = unlimited, default 1), stall_us=N
  /// (stage-latency only, default 1000).  Empty (default) = keep the
  /// current process-global arming, or the HEBS_FAULT environment
  /// variable when set.  Injection is process-global (like the kernel
  /// backend) and installed at Session::create after everything else
  /// can no longer fail; a malformed spec is a kInvalidOption there.
  /// With no spec armed the fault machinery is a single predicted
  /// branch per checkpoint — the zero-overhead off path.
  SessionConfig& fault_spec(std::string spec) {
    fault_spec_ = std::move(spec);
    return *this;
  }
  const std::string& fault_spec() const noexcept { return fault_spec_; }

  /// Path to write a chrome://tracing / Perfetto JSON span trace of
  /// this session's processing.  Empty (default) = no tracing, unless
  /// the HEBS_TRACE environment variable names a path.  The file is
  /// created (truncated) at Session::create — an unwritable path is a
  /// kIoError there, never a silent drop — and the trace is written
  /// when the session is destroyed.  Tracing is process-global (spans
  /// from every live session land in one trace) and changes no output:
  /// traced runs are bit-identical to untraced runs.
  SessionConfig& trace_path(std::string path) {
    trace_path_ = std::move(path);
    return *this;
  }
  const std::string& trace_path() const noexcept { return trace_path_; }

  /// Image edge length of the on-demand characterization album, >= 16.
  /// Default 96.
  SessionConfig& characterization_size(int px) {
    characterization_size_ = px;
    return *this;
  }
  int characterization_size() const noexcept { return characterization_size_; }

  // ------------------------------------------------------------ video
  /// Maximum |Δβ| between consecutive non-scene-cut frames, in (0, 1].
  /// Default 0.04.
  SessionConfig& max_beta_step(double step) {
    max_beta_step_ = step;
    return *this;
  }
  double max_beta_step() const noexcept { return max_beta_step_; }

  /// EMA coefficient pulling β toward the per-frame optimum, in (0, 1].
  /// Default 0.5.
  SessionConfig& ema_alpha(double alpha) {
    ema_alpha_ = alpha;
    return *this;
  }
  double ema_alpha() const noexcept { return ema_alpha_; }

  /// Histogram L1 distance (0..2) above which a scene cut is declared.
  /// Default 0.5.
  SessionConfig& scene_cut_threshold(double t) {
    scene_cut_threshold_ = t;
    return *this;
  }
  double scene_cut_threshold() const noexcept { return scene_cut_threshold_; }

  /// Checks every field against its domain; returns the first violation
  /// as kInvalidOption with a message naming the field and the value.
  /// Registry names are checked at Session::create, not here.
  Status validate() const;

 private:
  std::string policy_ = "hebs-exact";
  std::string metric_ = "uiqi-hvs";
  std::string kernel_backend_;
  std::string color_mode_ = "shared-curve";
  int bit_depth_ = 8;
  int segments_ = 8;
  int g_min_floor_ = 0;
  int min_range_ = 16;
  double min_beta_ = 0.05;
  double equalization_strength_ = -1.0;
  bool concurrent_scaling_ = true;
  int threads_ = 0;
  bool buffer_pool_ = true;
  int pool_max_mb_ = 0;
  std::int64_t frame_deadline_us_ = 0;
  bool temporal_reuse_ = true;
  std::string curve_path_;
  std::string fault_spec_;
  std::string trace_path_;
  int characterization_size_ = 96;
  double max_beta_step_ = 0.04;
  double ema_alpha_ = 0.5;
  double scene_cut_threshold_ = 0.5;
};

}  // namespace hebs
