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
// and context reuse.  Gray and color batches share that one batch core:
// a color batch extracts its BT.601 lumas up front, decides on them,
// and renders each frame right after its decision, on the same worker.
// A one-frame batch (what Session::process runs)
// instead runs inline on the calling thread, on a persistent slot — one
// FrameContext and one buffer pool the engine keeps across calls — and
// its search borrows the pool's idle workers for speculative probes.
//
// Stream mode (video) keeps only the flicker controller's scalar β
// recurrence in frame order.  The frames flow through one pipeline on
// the worker slots, with no barrier between stages: raw operating points
// are searched concurrently, the VideoBacklightController plans each
// frame's applied β strictly in frame order as soon as every search
// before it is done, and each planned frame's re-derivation for that β
// runs concurrently again, ahead of any further search — producing
// exactly the decisions the serial controller makes, whatever order the
// tasks finish in.  Gray and color video share that one stream core; a
// color frame decides on its luma and renders right after its
// re-derivation, on the same worker.
//
// Both modes run on worker slots the engine keeps across calls (batch
// slot k on worker slot k, stream run r on worker slot r mod the
// stream's slot count): each holds a buffer pool and a FrameContext, so
// back-to-back calls recycle the previous call's buffers instead of
// building fresh pools and contexts (DESIGN.md §9, "Engine slots").
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
  /// incremental histograms, warm-started searches; a color repeat
  /// reuses its predecessor's rendering).  Outputs are
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
  /// decision (rebind + search; color batches include the color render)
  /// takes longer still completes, but its result is replaced by the
  /// identity fallback (β = 1, identity LUT — zero distortion, zero
  /// saving), the state that computed it is quarantined like a faulted
  /// frame's, and kDeadlineMiss/kFramesDegraded count it.  Soft: the
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
  /// β concurrently again, one pipeline with at most 2 × threads
  /// searched runs in flight.  With opts.temporal_reuse, a frame
  /// byte-identical to its predecessor is not searched: it inherits the
  /// predecessor's raw result and re-derives on the same context
  /// (DESIGN.md §9, "Stream pipeline") — the same frames at every thread
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

  /// Color batch: the BT.601 lumas are extracted up front, `policy`
  /// decides each one (the process_batch core, bit-identical to
  /// process_batch on pre-converted lumas), then the post-decision color
  /// stage applies the chosen operating point to the RGB raster in
  /// `mode` on the same worker, pool and containment — a render fault
  /// degrades the frame like a search fault.
  std::vector<ColorBatchResult> process_batch_color(
      std::span<const hebs::image::RgbImage> images, const Policy& policy,
      double d_max_percent, core::ColorMode mode,
      std::vector<FrameFault>* faults = nullptr);

  /// process_batch_color with ExactPolicy.
  std::vector<ColorBatchResult> process_batch_color(
      std::span<const hebs::image::RgbImage> images, double d_max_percent,
      core::ColorMode mode, std::vector<FrameFault>* faults = nullptr);

  /// Color stream: the process_stream pipeline on each frame's BT.601
  /// luma (decisions bit-identical to process_stream on the
  /// pre-converted luma clip, dedupe keyed on luma bytes), with the
  /// color stage rendering each applied operating point right after
  /// the frame's re-derivation, on the same worker, pool and
  /// containment — a render fault degrades the frame like any
  /// re-derivation fault.  With EngineOptions::temporal_reuse a repeat
  /// (a luma duplicate planned at its predecessor's β) whose RGB bytes
  /// also equal its predecessor's copies that rendering (static
  /// content skips the per-pixel work; outputs are identical either
  /// way).
  std::vector<ColorStreamResult> process_stream_color(
      std::span<const hebs::image::RgbImage> frames,
      const core::VideoOptions& opts, core::ColorMode mode,
      std::vector<FrameFault>* faults = nullptr);

 private:
  /// One worker's state, kept across calls (DESIGN.md §9, "Engine
  /// slots"): batch slot k runs on worker slot k, stream run r on worker
  /// slot r mod the stream's slot count, and one-frame calls on the
  /// single-frame slot.  Members destroy in
  /// reverse order, so the context releases its pooled caches before
  /// the pool detaches.
  struct WorkerSlot {
    std::unique_ptr<util::BufferPool> pool;  ///< null = plain heap
    std::unique_ptr<FrameContext> ctx;       ///< null = cold/quarantined
  };

  /// Runs `body(slots)` on `count` worker slots: the engine's own when
  /// no other call holds them, else call-local ones (a concurrent caller
  /// never queues).  A call that throws out quarantines every context.
  template <typename Body>
  void with_worker_slots(std::size_t count, Body&& body);

  /// The batch behind process_batch and process_batch_color: `policy`
  /// decides every image (a color batch passes its lumas), and `post` is
  /// the per-frame post-stage (gray: none; color: the render) that runs
  /// right after the frame's decision, inside its containment and
  /// deadline (defined in engine.cpp).
  template <typename Image, typename Post>
  std::vector<core::HebsResult> run_batch(std::span<const Image> images,
                                          const Policy& policy,
                                          double d_max_percent, Post&& post,
                                          std::vector<FrameFault>* faults);

  /// The stream pipeline behind process_stream and process_stream_color,
  /// deciding on the luma clip `frames`; `post` is the same post-stage
  /// as run_batch's, run right after each frame's re-derivation
  /// (defined in engine.cpp).
  template <typename Post>
  std::vector<core::FrameDecision> run_stream(
      std::span<const hebs::image::GrayImage> frames,
      core::VideoBacklightController& controller, Post&& post,
      std::vector<FrameFault>* faults);

  EngineOptions opts_;
  hebs::power::LcdSubsystemPower model_;
  ThreadPool pool_;
  /// Held by the one single-frame call running on the slot; a call that
  /// finds it taken runs on a one-off slot instead of waiting.  The
  /// slot's search may borrow `lanes_` — the pool's idle workers — for
  /// speculative probes (DESIGN.md §11).
  util::Mutex slot_mu_;
  WorkerSlot slot_ HEBS_GUARDED_BY(slot_mu_);
  std::unique_ptr<ProbeLanes> lanes_ HEBS_GUARDED_BY(slot_mu_);
  /// Held by the one batch or stream call running on the worker slots;
  /// grown on demand to the largest slot count a call has asked for.
  util::Mutex workers_mu_;
  std::vector<WorkerSlot> workers_ HEBS_GUARDED_BY(workers_mu_);
};

}  // namespace hebs::pipeline
