// The pipeline engine: a thread-pool-backed batch/stream executor for
// the staged HEBS pipeline.
//
// Batch mode (photo albums, characterization sweeps, table regeneration)
// fans independent frames out over the pool; every worker owns one
// FrameContext that it rebinds per frame, so frame-side caches are
// reused without cross-thread sharing.  Results are written by frame
// index — output order (and every computed bit) is independent of the
// thread count.  Every batch runs one pipeline::Policy (policy.h) per
// frame, so every policy gets the same containment, deadline, fan-out
// and context reuse.  A one-frame batch (what Session::process runs)
// instead runs inline on the calling thread, on a persistent slot — one
// FrameContext and one buffer pool the engine keeps across calls — and
// its search borrows the pool's idle workers for speculative probes.
//
// Stream mode (video) keeps only the flicker controller's scalar β
// recurrence in frame order: raw operating points are searched
// concurrently, the VideoBacklightController plans each frame's applied
// β strictly in frame order, and the per-frame re-derivation for that β
// runs concurrently again — producing exactly the decisions the serial
// controller makes.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/color.h"
#include "core/hebs.h"
#include "core/video.h"
#include "pipeline/executor.h"
#include "pipeline/frame_context.h"
#include "pipeline/policy.h"
#include "util/mutex.h"
#include "util/pool.h"
#include "util/thread_annotations.h"

namespace hebs::pipeline {

/// Engine configuration.
struct EngineOptions {
  /// Worker threads; <= 0 selects the hardware concurrency.
  int num_threads = 0;
  /// Pipeline options every batch FrameContext binds with.  Stream mode
  /// ignores this and uses the controller's VideoOptions::hebs instead
  /// (the controller defines the stream's semantics).
  core::HebsOptions hebs;
  /// Per-worker recycling buffer pools: all per-frame scratch (rasters,
  /// integral tables, curves, memo nodes) recycles instead of hitting
  /// the heap — the engine's steady state allocates nothing per frame.
  /// Purely a performance knob; outputs are identical either way.
  bool use_buffer_pool = true;
  /// Free-list retention cap per pool, in bytes (0 = unlimited; an
  /// eviction inside the per-frame working set would reintroduce
  /// steady-state allocations).
  std::size_t pool_max_retained_bytes = 0;
  /// Stream mode: temporal-coherence fast path (duplicate-frame reuse,
  /// incremental histograms, warm-started searches).  Outputs are
  /// bit-identical to the cold path whenever measured distortion is
  /// monotone over the search interval (sub-0.1% quantization wiggles
  /// are the only exception; every decision honors the distortion
  /// budget either way — see DESIGN.md §9 and pipeline/temporal.h).
  /// Disable for unconditional cold-path equality.
  bool temporal_reuse = true;
  /// Cap on bytes checked out of each per-worker pool at once; 0 =
  /// unlimited.  Exhaustion degrades to counted plain-heap blocks
  /// (obs kPoolHeapFallback) — it never fails a frame.
  std::size_t pool_max_bytes = 0;
  /// Soft per-frame deadline, microseconds; 0 = none.  A frame whose
  /// decision (rebind + search; color batches include the color stage)
  /// takes longer still completes, but its result is replaced by the
  /// identity fallback (β = 1, identity LUT — zero distortion, zero
  /// saving) and kDeadlineMiss/kFramesDegraded count it.  Soft: the
  /// check runs after the frame's work, so an overrun is detected, not
  /// preempted.
  std::int64_t frame_deadline_us = 0;
};

/// Per-frame containment record, parallel to a batch/stream result
/// vector (see the `faults` out-parameters below).  When a frame's
/// pipeline work throws or blows the frame deadline, the engine emits
/// the identity fallback for that frame instead of failing the call,
/// quarantines the worker/slot state that computed it (so poisoned
/// memoization never feeds a later frame), and records what happened
/// here.
struct FrameFault {
  /// This frame carries the identity fallback, not a computed decision.
  bool degraded = false;
  /// The contained exception was a util::IoError (the facade keeps
  /// kIoError for these; everything else maps to kInternal).
  bool io = false;
  /// The frame degraded because it blew the soft frame deadline, not
  /// because its work threw (the facade maps this to kDeadlineExceeded).
  bool deadline = false;
  /// Names the stage, the frame index and — for injected faults — the
  /// fault point.
  std::string message;
};

/// What the post-decision color stage produced for one frame.
struct ColorFrameOutput {
  /// The displayed RGB raster (the operating point applied per the
  /// requested ColorMode).
  hebs::image::RgbImage displayed;
  /// Chromaticity drift of `displayed` against the input frame.
  double hue_error = 0.0;
};

/// One color frame's decision + rendering (batch mode).
struct ColorBatchResult {
  /// The policy's decision, computed on the frame's BT.601 luma —
  /// exactly the result process_batch returns for the pre-converted
  /// luma.
  core::HebsResult luma;
  ColorFrameOutput color;
};

/// One color frame's decision + rendering (stream mode).
struct ColorStreamResult {
  /// The flicker-controlled decision, identical to process_stream on
  /// the pre-converted luma clip.
  core::FrameDecision decision;
  ColorFrameOutput color;
};

class PipelineEngine {
 public:
  explicit PipelineEngine(EngineOptions opts = {},
                          hebs::power::LcdSubsystemPower power_model =
                              hebs::power::LcdSubsystemPower::lp064v1());

  int thread_count() const noexcept { return pool_.thread_count(); }
  const EngineOptions& options() const noexcept { return opts_; }

  /// Runs `policy` on every image: result[i] is policy.decide() on a
  /// context bound to images[i].  Deep-pixel images decide on their own
  /// level lattice (images[i].levels() histogram bins); each call is one
  /// depth.
  ///
  /// Fault containment (all batch/stream entry points): a frame whose
  /// work throws — or misses opts.frame_deadline_us — yields the
  /// identity fallback at its index rather than failing the call; when
  /// `faults` is non-null it is resized to images.size() and frame i's
  /// containment record lands at (*faults)[i].  Frames processed after
  /// a contained fault are bit-identical to a cold run: the faulted
  /// worker's FrameContext is discarded, never rebound.
  std::vector<core::HebsResult> process_batch(
      std::span<const hebs::image::GrayImage> images, const Policy& policy,
      double d_max_percent, std::vector<FrameFault>* faults = nullptr);
  std::vector<core::HebsResult> process_batch(
      std::span<const hebs::image::GrayImage16> images, const Policy& policy,
      double d_max_percent, std::vector<FrameFault>* faults = nullptr);

  /// process_batch with ExactPolicy (the Table 1 protocol).
  std::vector<core::HebsResult> process_batch(
      std::span<const hebs::image::GrayImage> images, double d_max_percent,
      std::vector<FrameFault>* faults = nullptr);

  /// Frame-adaptive video: per-frame raw operating points are searched
  /// concurrently, `controller` plans the applied β strictly in frame
  /// order (its state advances exactly as if it had processed the clip
  /// serially), and each frame's transform is re-derived for its applied
  /// β concurrently again.  With opts.temporal_reuse, a frame
  /// byte-identical to its predecessor is not searched: it inherits the
  /// predecessor's raw result and re-derives on the same context
  /// (DESIGN.md §9, "Stream rounds") — the same frames at every thread
  /// count.
  ///
  /// Fault containment: a faulted frame emits the identity decision
  /// (β = 1, identity LUT) and is treated as a stream discontinuity —
  /// the slot's FrameContext and TemporalReuse state are quarantined
  /// (rebuilt cold), the controller's flicker history resets, and a
  /// degraded frame is no reuse source, so every frame after the fault
  /// is bit-identical to a cold run started there (DESIGN.md §14).
  std::vector<core::FrameDecision> process_stream(
      std::span<const hebs::image::GrayImage> frames,
      core::VideoBacklightController& controller,
      std::vector<FrameFault>* faults = nullptr);

  /// Same, with a fresh controller built from `opts`.
  std::vector<core::FrameDecision> process_stream(
      std::span<const hebs::image::GrayImage> frames,
      const core::VideoOptions& opts,
      std::vector<FrameFault>* faults = nullptr);

  /// Color batch: `policy` decides each frame's BT.601 luma
  /// (bit-identical to process_batch on pre-converted lumas), then the
  /// post-decision color stage applies the chosen operating point to the
  /// RGB raster in `mode` on the same worker.
  std::vector<ColorBatchResult> process_batch_color(
      std::span<const hebs::image::RgbImage> images, const Policy& policy,
      double d_max_percent, core::ColorMode mode,
      std::vector<FrameFault>* faults = nullptr);

  /// process_batch_color with ExactPolicy.
  std::vector<ColorBatchResult> process_batch_color(
      std::span<const hebs::image::RgbImage> images, double d_max_percent,
      core::ColorMode mode, std::vector<FrameFault>* faults = nullptr);

  /// Color stream: luma decisions through the full stream machinery
  /// (flicker control, temporal fast path, pools — bit-identical to
  /// process_stream on the pre-converted luma clip), then the ordered
  /// color post-stage renders each applied operating point.  With
  /// opts.temporal_reuse the stage reuses the previous frame's RGB
  /// rendering when the input bytes and the applied point are
  /// unchanged (static content skips the per-pixel work; outputs are
  /// identical either way).
  std::vector<ColorStreamResult> process_stream_color(
      std::span<const hebs::image::RgbImage> frames,
      const core::VideoOptions& opts, core::ColorMode mode,
      std::vector<FrameFault>* faults = nullptr);

 private:
  /// The engine's persistent single-frame state (DESIGN.md §9): every
  /// one-frame call rebinds `ctx`, drawing from `pool`, instead of
  /// building both per call, and lends the context `lanes` — the pool's
  /// idle workers, for speculative search probes (DESIGN.md §11).
  /// Members destroy in reverse order, so the context releases its
  /// pooled caches before the pools detach.
  struct FrameSlot {
    std::unique_ptr<util::BufferPool> pool;  ///< null = plain heap
    std::unique_ptr<ProbeLanes> lanes;
    std::unique_ptr<FrameContext> ctx;       ///< null = cold/quarantined
  };

  /// Runs `per_frame` on every image with per-frame fault containment
  /// (defined in engine.cpp, next to its only callers).
  template <typename Result, typename Image, typename PerFrame,
            typename Fallback>
  std::vector<Result> map_frames(std::span<const Image> images,
                                 PerFrame&& per_frame, Fallback&& fallback,
                                 std::vector<FrameFault>* faults);

  EngineOptions opts_;
  hebs::power::LcdSubsystemPower model_;
  ThreadPool pool_;
  /// Held by the one single-frame call running on the slot; a call that
  /// finds it taken runs on a one-off context instead of waiting.
  util::Mutex slot_mu_;
  FrameSlot slot_ HEBS_GUARDED_BY(slot_mu_);
};

}  // namespace hebs::pipeline
