// The stable entry point of the HEBS library.
//
// A Session binds one validated configuration to the engine state worth
// reusing across frames: the LCD-subsystem power model, the distortion
// characteristic curve cache (for the hebs-curve policy), and the
// multi-threaded PipelineEngine.  Create one session per configuration
// and feed it frames; sessions are moveable, single-threaded objects
// (process calls are not re-entrant — use one session per thread, the
// engine parallelizes inside a call).
//
// All failures come back as typed Status/Expected values; the facade
// neither aborts nor throws for invalid inputs.  Outputs are
// bit-identical to the internal hebs_exact / hebs_with_curve / DLS /
// CBCS paths on the same inputs, whatever the thread count.
#pragma once

#include <memory>
#include <vector>

#include "hebs/config.h"
#include "hebs/frame.h"
#include "hebs/image_view.h"
#include "hebs/stats.h"
#include "hebs/status.h"

namespace hebs {

class Session {
 public:
  /// Validates `config` (field domains, then policy/metric names
  /// against the registries, then the curve file when one is named) and
  /// builds the session.  Codes: kInvalidOption, kUnknownPolicy,
  /// kUnknownMetric, kIoError.
  static Expected<Session> create(SessionConfig config);

  ~Session();
  Session(Session&&) noexcept;
  Session& operator=(Session&&) noexcept;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// The validated configuration this session runs.
  const SessionConfig& config() const noexcept;

  /// Worker threads the engine actually runs.
  int thread_count() const noexcept;

  /// Runtime counter snapshot: subsystem activity since this session
  /// was created (temporal-reuse levels, memo hit rates, pool
  /// recycling, probe counts, kernel dispatch mix — see hebs/stats.h).
  /// The registry is process-global, so the delta is exact when this
  /// is the only session processing.
  SessionStats stats() const noexcept;

  /// Processes one frame with the configured policy.  When
  /// request.color_output is set (rgb8 views only), the result
  /// additionally carries the RGB rendering of the chosen operating
  /// point (displayed_rgb, applied per the session's color_mode) and
  /// its hue_error; the decision itself is always made on BT.601 luma
  /// and is bit-identical to processing the pre-converted luma frame.
  ///
  /// Every policy runs the frame on the engine's persistent
  /// single-frame slot (a FrameContext and buffer pool kept across
  /// calls) with the containment of a one-frame process_batch: a frame
  /// whose work fails or misses frame_deadline_us still returns a
  /// result, with `degraded` set, β = 1, the unmodified frame displayed
  /// and a typed status (kInternal, kIoError or kDeadlineExceeded)
  /// naming frame 0 and the stage; the next call starts from a fresh
  /// context.  Invalid requests and precondition violations still fail
  /// the call.  Concurrent calls on one session run in parallel: a call
  /// that finds the slot busy runs on a one-off context and pool, with
  /// identical results.  On the slot, frames of at least 128² pixels
  /// also borrow the session's idle worker threads for speculative
  /// search probes; the decision is bit-identical to the serial search
  /// (DESIGN.md §11).
  Expected<FrameResult> process(const FrameRequest& request);

  /// Processes many frames at a shared distortion budget.  Every
  /// policy fans out over the engine's thread pool with per-frame
  /// containment and deadlines; results are index-aligned with `frames`
  /// and identical for every thread count.
  Expected<std::vector<FrameResult>> process_batch(
      const std::vector<ImageView>& frames, double d_max_percent);

  /// Color batch: every frame must be an rgb8 view.  Decisions are
  /// bit-identical to process_batch on the pre-converted luma frames;
  /// each result additionally carries displayed_rgb/hue_error rendered
  /// per the session's color_mode on the worker that decided the frame
  /// (results are index-aligned and thread-count independent).
  Expected<std::vector<FrameResult>> process_batch_color(
      const std::vector<ImageView>& frames, double d_max_percent);

  /// Processes a video clip: per-frame searches run concurrently, then
  /// flicker control (β rate limit + scene-cut release) is applied
  /// strictly in frame order.  Requires policy "hebs-exact" (the
  /// controller runs the exact per-frame search); any other policy is
  /// rejected with kInvalidOption.  Video is 8-bit only: a 10/16-bit
  /// session (SessionConfig::bit_depth) is rejected with
  /// kInvalidOption, because the temporal fast path keys on 8-bit
  /// frames.
  Expected<std::vector<VideoFrameResult>> process_video(
      const std::vector<ImageView>& frames, double d_max_percent);

  /// Color video: every frame must be an rgb8 view.  The
  /// flicker-controlled luma decisions are bit-identical to
  /// process_video on the pre-converted luma clip (same temporal fast
  /// path and pools); each frame's applied operating point renders
  /// per the session's color_mode right after its re-derivation, and a
  /// frame whose RGB bytes and applied β equal its predecessor's reuses
  /// that rendering when temporal_reuse is on.  Requires policy
  /// "hebs-exact" and an 8-bit session, like process_video.
  Expected<std::vector<VideoFrameResult>> process_video_color(
      const std::vector<ImageView>& frames, double d_max_percent);

 private:
  struct Impl;
  explicit Session(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace hebs
