#include "pipeline/engine.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/counters.h"
#include "obs/trace.h"
#include "pipeline/temporal.h"
#include "util/error.h"
#include "util/faultpoint.h"
#include "util/mutex.h"
#include "util/pool.h"
#include "util/thread_annotations.h"

namespace hebs::pipeline {

namespace {

std::unique_ptr<util::BufferPool> make_pool(const EngineOptions& opts) {
  if (!opts.use_buffer_pool) return nullptr;  // null scope = plain heap
  return std::make_unique<util::BufferPool>(
      util::PoolOptions{opts.pool_max_bytes, opts.pool_max_bytes});
}

/// The engine's member pools (none on a one-thread engine: its pool
/// runs no rounds).
ProbeLanes::MemberPools member_pools(const EngineOptions& opts,
                                     const ThreadPool& pool) {
  ProbeLanes::MemberPools members;
  if (pool.thread_count() > 1) {
    for (auto& p : members) p = make_pool(opts);
  }
  return members;
}

// ---- fault containment helpers (DESIGN.md §14) ------------------------

/// The provably-safe result a degraded frame emits: β = 1 and the
/// identity LUT — the display shows the unmodified frame (zero
/// distortion) at full backlight (zero saving), on the frame's own
/// level lattice.  Power reports stay zero: power accounting is not
/// available for a frame whose pipeline never completed.  Runs under a
/// SuppressScope so a persistent injected fault (e.g.
/// pool-alloc:count=0) cannot re-fire inside its own containment
/// handler.
template <typename Image>
core::HebsResult identity_fallback(const Image& frame) {
  util::fault::SuppressScope no_refire;
  core::HebsResult r;
  r.point = core::identity_operating_point();
  r.lambda = r.point.luminance_transform;
  r.evaluation.point = r.point;
  // identity: displayed == input
  if constexpr (std::is_same_v<Image, hebs::image::GrayImage16>) {
    r.target = {0, frame.max_pixel()};
    r.evaluation.transformed16 = frame;
  } else {
    r.target = {0, hebs::image::kMaxPixel};
    r.evaluation.transformed = frame;
  }
  return r;
}

bool is_io_error(const std::exception& e) noexcept {
  return dynamic_cast<const util::IoError*>(&e) != nullptr;
}

std::string fault_message(const char* stage, std::size_t frame,
                          const char* what) {
  return "frame " + std::to_string(frame) + ": " + stage + " stage: " + what;
}

std::string deadline_message(const char* stage, std::size_t frame,
                             std::int64_t deadline_us) {
  return "frame " + std::to_string(frame) + ": " + stage +
         " stage: frame deadline " + std::to_string(deadline_us) +
         " us exceeded; identity fallback emitted";
}

void record_fault(std::vector<FrameFault>* faults, std::size_t i, bool io,
                  std::string message, bool deadline = false) {
  obs::add(obs::Counter::kFramesDegraded);
  if (faults == nullptr) return;
  FrameFault& f = (*faults)[i];
  f.degraded = true;
  f.io = io;
  f.deadline = deadline;
  f.message = std::move(message);
}

/// The engine's one catch ladder (DESIGN.md §14), around frame i's
/// `work` in `stage`.  A util::InvalidArgument is a caller bug, not a
/// runtime fault: degrading would hide it, so it propagates (the pool
/// rethrows the first one after the barrier) — after `quarantine`, as
/// the state may be mid-update all the same.  Any other exception is
/// contained: `quarantine` discards the state that computed the frame,
/// `fallback` emits the frame's identity result under a SuppressScope
/// (a persistent injected fault must not re-fire inside its own
/// handler), and the fault is recorded.  Returns false when contained.
template <typename Work, typename Quarantine, typename Fallback>
bool contain_faults(std::vector<FrameFault>* faults, std::size_t i,
                    const char* stage, Work&& work, Quarantine&& quarantine,
                    Fallback&& fallback) {
  try {
    work();
    return true;
  } catch (const util::InvalidArgument&) {
    quarantine();
    throw;
  } catch (const std::exception& e) {
    quarantine();
    util::fault::SuppressScope no_refire;
    fallback();
    record_fault(faults, i, is_io_error(e), fault_message(stage, i, e.what()));
    return false;
  }
}

/// Frame i's contained work in `stage` — a batch frame or a stream
/// search: the frame span, the worker-task fault point, the catch ladder
/// (contain_faults) and the soft deadline (`deadline_us`, 0 = none).  A
/// frame that finishes late is degraded like one that threw: its state
/// is valid, merely late, but the frame emits the fallback, so
/// `quarantine` discards the state that computed it too (one recovery
/// story for every fault).  Returns false when the frame degraded.
template <typename Work, typename Quarantine, typename Fallback>
bool contain_frame(std::int64_t deadline_us, std::vector<FrameFault>* faults,
                   std::size_t i, const char* stage, Work&& work,
                   Quarantine&& quarantine, Fallback&& fallback) {
  obs::ScopedSpan frame_span(obs::Span::kFrame, static_cast<std::int32_t>(i));
  const auto start = std::chrono::steady_clock::now();
  if (!contain_faults(
          faults, i, stage,
          [&] {
            util::fault::maybe_fail(util::fault::Point::kWorkerTask);
            work();
          },
          quarantine, fallback)) {
    return false;
  }
  if (deadline_us <= 0 ||
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
              .count() <= deadline_us) {
    return true;
  }
  obs::add(obs::Counter::kDeadlineMiss);
  quarantine();
  util::fault::SuppressScope no_refire;
  fallback();
  record_fault(faults, i, /*io=*/false,
               deadline_message(stage, i, deadline_us), /*deadline=*/true);
  return false;
}

/// The slot's context for `opts` and `model`: the one its last frame
/// used when that was built for the same ones, else a fresh one (a
/// quarantined or never-used slot has none).  Rebinding clears every
/// frame-derived cache, so a kept context computes exactly what a fresh
/// one does.
FrameContext& context_for(std::unique_ptr<FrameContext>& ctx,
                          const core::HebsOptions& opts,
                          const hebs::power::LcdSubsystemPower& model) {
  if (!ctx || ctx->options() != opts || ctx->power_model() != model) {
    ctx = std::make_unique<FrameContext>(opts, model);
  }
  return *ctx;
}

/// The BT.601 lumas of `frames`, which color batches and streams decide
/// on: inline for one frame, on `pool` otherwise, into rasters allocated
/// here, outside any slot pool.  Freed when the call returns, their
/// memory serves the caller's output copies; a luma kept in a slot's
/// pool raised album-color-720p peak RSS by 2 MiB.
std::vector<hebs::image::GrayImage> extract_lumas(
    ThreadPool& pool, std::span<const hebs::image::RgbImage> frames) {
  std::vector<hebs::image::GrayImage> lumas;
  lumas.reserve(frames.size());
  for (const auto& f : frames) lumas.emplace_back(f.width(), f.height());
  if (frames.size() == 1) {
    frames[0].to_luma(lumas[0]);
  } else {
    pool.parallel_for(frames.size(), [&](std::size_t i, int) {
      frames[i].to_luma(lumas[i]);
    });
  }
  return lumas;
}

// ---- post-stages (DESIGN.md §9, "Stream pipeline"; §10) -----------------
//
// What a frame's decision turns into beyond the decision itself, by
// frame index: `render` applies the chosen operating point — in a batch
// right after the frame's decision, in a stream right after its
// re-derivation — on its worker, slot pool and containment; `degrade`
// gives a degraded frame the identity output.  Streams only: `copy`
// gives a repeat its predecessor's output, and a repeat copies only when
// `same_input` holds: the frame's input bytes equal its predecessor's.

/// Gray frames: the decision is the whole output, and a duplicate's
/// input is its luma, equal to its predecessor's by construction.
struct GrayPost {
  void render(std::size_t, const core::OperatingPoint&) {}
  bool same_input(std::size_t) const { return true; }
  void copy(std::size_t) {}
  void degrade(std::size_t) {}
};

/// Color frames: each chosen point renders onto the frame's RGB raster
/// (core::render_color), and only RGB-identical frames share a
/// rendering.
struct ColorPost {
  std::span<const hebs::image::RgbImage> rgb;
  std::span<const hebs::image::GrayImage> lumas;
  core::ColorMode mode;
  std::vector<ColorFrameOutput> out;

  void render(std::size_t i, const core::OperatingPoint& point) {
    obs::ScopedSpan span(obs::Span::kColorRender);
    core::ColorRendering r = core::render_color(rgb[i], lumas[i], point, mode);
    out[i] = {std::move(r.displayed), r.hue_error};
  }
  bool same_input(std::size_t i) const { return rgb[i] == rgb[i - 1]; }
  void copy(std::size_t i) { out[i] = out[i - 1]; }
  // β = 1 and the identity LUT change no pixel: zero chromaticity drift.
  void degrade(std::size_t i) { out[i] = {rgb[i], 0.0}; }
};

// ---- the stream pipeline's scheduler (DESIGN.md §9, "Stream pipeline") -

/// The bookkeeping of one stream call: which task each worker takes
/// next, how far the clip is searched, planned and final, and which
/// worker slots are free.  The work itself — searches, the plan, the
/// re-derivations, the replay — is the engine's, handed in as callbacks
/// that run_stream owns; none of them touches this state, and the plan,
/// the replay and the release run under the lock.
///
/// A *run* is a source frame plus the frames after it that are
/// byte-identical to their predecessor (one run per frame with dedupe
/// off); run r searches on worker slot r % slots.  Runs release their
/// slot in clip order, so "run r's slot is free" is exactly "fewer than
/// `slots` runs hold one" — which slot a run lands on never depends on
/// scheduling.
class StreamSchedule {
 public:
  /// A frame's progress.  kReady / kCopy: planned, its re-derivation
  /// (kCopy: a repeat's copy of its predecessor's output) not yet
  /// taken; kFaulted: that task faulted, and the frame waits for the
  /// replay; kDone: the frame's output is written.
  enum class Status { kUnplanned, kReady, kCopy, kRunning, kFaulted, kDone };

  /// Runs r = frames [bounds[r], bounds[r + 1]).
  StreamSchedule(std::vector<std::size_t> bounds, std::size_t slots)
      : bounds_(std::move(bounds)),
        slots_(slots),
        frames_(bounds_.back()),
        status_(frames_, Status::kUnplanned),
        searched_(runs(), false) {
    run_of_.reserve(frames_);
    for (std::size_t r = 0; r < runs(); ++r) {
      run_of_.insert(run_of_.end(), bounds_[r + 1] - bounds_[r], r);
    }
  }

  std::size_t runs() const { return bounds_.size() - 1; }
  std::size_t first(std::size_t run) const { return bounds_[run]; }
  std::size_t end(std::size_t run) const { return bounds_[run + 1]; }
  std::size_t slot_of_frame(std::size_t i) const { return run_of_[i] % slots_; }

  /// One worker's loop until every frame is final (or a task threw
  /// out): take a task, run it outside the lock, record it.
  /// search(r) searches run r; frame(i, copy) re-derives frame i, or
  /// copies its predecessor's output, and returns false when that
  /// faulted; plan(i) plans frame i and returns its status (kDone for a
  /// degraded one); replay(b, e) recomputes frames [b, e) serially
  /// from the controller's reset, frame b being the faulted one; and
  /// release(r) runs once run r's frames are all final, before its
  /// slot serves another run.
  template <typename Search, typename Frame, typename Plan, typename Replay,
            typename Release>
  void work(Search&& search, Frame&& frame, Plan&& plan, Replay&& replay,
            Release&& release) HEBS_EXCLUDES(mu_) {
    try {
      for (;;) {
        Task t;
        {
          util::MutexLock lock(mu_);
          while ((t = claim()).kind == Task::kWait) cv_.wait(mu_);
        }
        if (t.kind == Task::kStop) return;
        bool ok = true;
        if (t.kind == Task::kSearch) {
          search(t.index);
        } else {
          ok = frame(t.index, t.copy);
        }
        {
          util::MutexLock lock(mu_);
          if (t.kind == Task::kSearch) {
            searched_[t.index] = true;
          } else {
            --running_;
            status_[t.index] = ok ? Status::kDone : Status::kFaulted;
            if (!ok) fault_at_ = std::min(fault_at_, t.index);
          }
          if (!abort_) advance(plan, replay, release);
        }
        cv_.notify_all();
      }
    } catch (...) {
      // A precondition violation leaves the call: the other workers stop
      // at their next claim instead of waiting on this one's task.
      {
        util::MutexLock lock(mu_);
        abort_ = true;
      }
      cv_.notify_all();
      throw;
    }
  }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  struct Task {
    enum Kind { kWait, kStop, kSearch, kFrame } kind = kWait;
    std::size_t index = 0;  ///< the run (kSearch) or frame (kFrame)
    bool copy = false;      ///< kFrame: a repeat's copy
  };

  /// The next task: the lowest planned frame whose re-derivation (or
  /// copy, once its predecessor is done) is ready, below any pending
  /// fault; else the next run's search while a slot is free.
  Task claim() HEBS_REQUIRES(mu_) {
    if (abort_) return {Task::kStop, 0, false};
    const std::size_t ready_end = std::min(planned_, fault_at_);
    for (std::size_t i = final_; i < ready_end; ++i) {
      const Status s = status_[i];
      if (s == Status::kReady ||
          (s == Status::kCopy && status_[i - 1] == Status::kDone)) {
        status_[i] = Status::kRunning;
        ++running_;
        return {Task::kFrame, i, s == Status::kCopy};
      }
    }
    if (next_run_ < runs() && next_run_ - released_ < slots_) {
      return {Task::kSearch, next_run_++, false};
    }
    return {final_ == frames_ ? Task::kStop : Task::kWait, 0, false};
  }

  /// Plans the frames the searched prefix now covers, in clip order;
  /// moves the final prefix on, releasing each run it passes; and, once
  /// the final prefix reaches a faulted frame and no frame task is in
  /// flight, replays from it.  Planning stops while a fault waits: the
  /// frames after it would be planned on history its reset discards.
  template <typename Plan, typename Replay, typename Release>
  void advance(Plan& plan, Replay& replay, Release& release)
      HEBS_REQUIRES(mu_) {
    for (;;) {
      while (fault_at_ == kNone && planned_ < frames_ &&
             searched_[run_of_[planned_]]) {
        status_[planned_] = plan(planned_);
        ++planned_;
      }
      while (final_ < planned_ && status_[final_] == Status::kDone) {
        if (++final_ == end(released_)) release(released_++);
      }
      if (final_ == planned_ || status_[final_] != Status::kFaulted ||
          running_ != 0) {
        return;
      }
      replay(final_, planned_);
      std::fill(status_.begin() + static_cast<std::ptrdiff_t>(final_),
                status_.begin() + static_cast<std::ptrdiff_t>(planned_),
                Status::kDone);
      fault_at_ = kNone;
    }
  }

  const std::vector<std::size_t> bounds_;
  const std::size_t slots_;
  const std::size_t frames_;
  std::vector<std::size_t> run_of_;  ///< frame → run; fixed once built

  util::Mutex mu_;
  util::CondVar cv_;
  std::vector<Status> status_ HEBS_GUARDED_BY(mu_);
  std::vector<bool> searched_ HEBS_GUARDED_BY(mu_);  ///< per run
  std::size_t next_run_ HEBS_GUARDED_BY(mu_) = 0;  ///< runs claimed
  std::size_t released_ HEBS_GUARDED_BY(mu_) = 0;  ///< runs released
  std::size_t planned_ HEBS_GUARDED_BY(mu_) = 0;   ///< frames planned
  std::size_t final_ HEBS_GUARDED_BY(mu_) = 0;     ///< frames final
  /// The lowest frame whose task faulted and waits for the replay.
  std::size_t fault_at_ HEBS_GUARDED_BY(mu_) = kNone;
  std::size_t running_ HEBS_GUARDED_BY(mu_) = 0;  ///< frame tasks out
  bool abort_ HEBS_GUARDED_BY(mu_) = false;
};

}  // namespace

PipelineEngine::PipelineEngine(EngineOptions opts,
                               hebs::power::LcdSubsystemPower power_model)
    : opts_(std::move(opts)),
      model_(std::move(power_model)),
      pool_(opts_.num_threads),
      lanes_(pool_, member_pools(opts_, pool_)) {
  slot_.pool = make_pool(opts_);
}

template <typename Body>
void PipelineEngine::with_worker_slots(std::size_t count, Body&& body) {
  const auto run = [&body](std::span<WorkerSlot> slots) {
    try {
      body(slots);
    } catch (...) {
      // Only a precondition violation leaves a call by exception, and it
      // may leave any context mid-update: none serves a later call.
      for (WorkerSlot& s : slots) s.ctx.reset();
      throw;
    }
  };
  if (workers_mu_.try_lock()) {
    util::MutexLock lock(workers_mu_, std::adopt_lock);
    while (workers_.size() < count) {
      workers_.emplace_back();
      workers_.back().pool = make_pool(opts_);
    }
    run(std::span<WorkerSlot>(workers_).first(count));
    return;
  }
  // Another batch or stream call holds the slots: run on call-local ones
  // rather than queue, so concurrent callers of one engine still run in
  // parallel.
  std::vector<WorkerSlot> local(count);
  for (WorkerSlot& s : local) s.pool = make_pool(opts_);
  run(local);
}

/// Decides every image on the pool, each worker rebinding the
/// FrameContext of its worker slot and drawing from the slot's
/// recycling buffer pool; a single image runs inline on the engine's
/// single-frame slot instead.  A frame's body is `policy.decide` followed
/// by `post.render`; results land at their frame's index, so output
/// order never depends on scheduling.
///
/// Speculative probes (DESIGN.md §11): a frame's search posts its rounds
/// on the engine's probe lanes, served by whichever pool workers idle —
/// the whole pool beside a single image, a batch's workers once their
/// own frames are decided.  Decisions are the serial ones either way.
///
/// Containment (contain_frame): a frame whose body throws or blows the
/// frame deadline lands the identity fallback at its index, and
/// `post.degrade` its identity output, instead of failing the batch; the
/// slot's context is discarded — its memo state may be mid-update, and
/// no later frame may read poisoned caches.  The next frame there (in
/// this call or a later one) starts from a fresh context, so post-fault
/// frames are bit-identical to a cold run.
template <typename Image, typename Post>
std::vector<core::HebsResult> PipelineEngine::run_batch(
    std::span<const Image> images, const Policy& policy, double d_max_percent,
    Post&& post, std::vector<FrameFault>* faults) {
  policy.prepare();
  if (faults != nullptr) {
    faults->clear();
    faults->resize(images.size());
  }
  std::vector<core::HebsResult> results(images.size());
  // Lanes only where a search may speculate: at least two effective
  // workers, no fault point armed, frames above the speculation floor.
  const bool speculate =
      ProbeLanes::available(pool_) &&
      std::any_of(images.begin(), images.end(), [](const Image& img) {
        return img.size() >= ProbeLanes::kMinPixels;
      });
  ProbeLanes* const lanes = speculate ? &lanes_ : nullptr;
  const auto run_frame = [&](WorkerSlot& slot, std::size_t i) {
    util::PoolScope scope(slot.pool.get());
    contain_frame(
        opts_.frame_deadline_us, faults, i, "search",
        [&] {
          FrameContext& ctx = context_for(slot.ctx, opts_.hebs, model_);
          ctx.set_probe_lanes(lanes);
          ctx.rebind(images[i]);
          results[i] = policy.decide(ctx, d_max_percent);
          // Stream calls reuse the slot's context and never speculate.
          ctx.set_probe_lanes(nullptr);
          post.render(i, results[i].point);
        },
        [&] { slot.ctx.reset(); },
        [&] {
          results[i] = identity_fallback(images[i]);
          post.degrade(i);
        });
  };
  if (images.size() == 1) {
    // Single frame: frame-level fan-out cannot help, so run inline on
    // the calling thread.
    if (slot_mu_.try_lock()) {
      util::MutexLock lock(slot_mu_, std::adopt_lock);
      run_frame(slot_, 0);
    } else {
      // Another caller holds the slot: run on a one-off slot rather
      // than queue, so concurrent callers of one engine still run in
      // parallel.
      WorkerSlot one_off;
      one_off.pool = make_pool(opts_);
      run_frame(one_off, 0);
    }
    return results;
  }
  // Slot k decides frames k, k + W, k + 2W, … in order, so which
  // frames a slot's pool serves never depends on scheduling: a repeated
  // call recycles every block its predecessor used.  A worker serves
  // rounds only once no slot is left to claim, so no slot waits on a
  // serving worker.
  const std::size_t width = std::min<std::size_t>(
      static_cast<std::size_t>(pool_.thread_count()), images.size());
  with_worker_slots(width, [&](std::span<WorkerSlot> slots) {
    pool_.parallel_for(width, [&](std::size_t k, int) {
      for (std::size_t i = k; i < images.size(); i += width) {
        run_frame(slots[k], i);
      }
    });
  });
  return results;
}

std::vector<core::HebsResult> PipelineEngine::process_batch(
    std::span<const hebs::image::GrayImage> images, const Policy& policy,
    double d_max_percent, std::vector<FrameFault>* faults) {
  return run_batch(images, policy, d_max_percent, GrayPost{}, faults);
}

std::vector<core::HebsResult> PipelineEngine::process_batch(
    std::span<const hebs::image::GrayImage16> images, const Policy& policy,
    double d_max_percent, std::vector<FrameFault>* faults) {
  return run_batch(images, policy, d_max_percent, GrayPost{}, faults);
}

std::vector<core::HebsResult> PipelineEngine::process_batch(
    std::span<const hebs::image::GrayImage> images, double d_max_percent,
    std::vector<FrameFault>* faults) {
  return process_batch(images, ExactPolicy(), d_max_percent, faults);
}

template <typename Post>
std::vector<core::FrameDecision> PipelineEngine::run_stream(
    std::span<const hebs::image::GrayImage> frames,
    core::VideoBacklightController& controller, Post&& post,
    std::vector<FrameFault>* faults) {
  const core::VideoOptions& vopts = controller.options();
  if (faults != nullptr) {
    faults->clear();
    faults->resize(frames.size());
  }

  // The clip flows through one pipeline (DESIGN.md §9, "Stream
  // pipeline"): the per-run searches run on the pool; the controller
  // plans the applied β values in frame order (the scalar recurrence —
  // the only truly ordered work), each as soon as the searches before
  // it are done; and each planned frame's re-derivation, followed by its
  // post-stage render, runs on the pool as soon as it is planned.  The
  // controller's state advances exactly as serial processing would.
  // Every worker takes its next task from a StreamSchedule: a ready
  // re-derivation first, else the next run's search while one of the
  // `slots` worker slots is free.
  //
  // A run is a source frame plus the frames after it that are
  // byte-identical to their predecessor (the duplicates), formed on the
  // calling thread before any search.  A run takes one search lane: its
  // duplicates inherit the source's raw result bit for bit (the search
  // is a deterministic function of the pixels, DESIGN.md §9) and
  // re-derive on the source's context, concurrently, through its
  // memo-free reads.  Which frames are duplicates depends only on clip
  // position, so reuse and the decisions it yields are the same at
  // every thread count.
  //
  // Run r runs on the engine's worker slot r % slots — its FrameContext
  // and recycling BufferPool persist across calls — and owns, for this
  // call, the coherence state of the runs it searches (temporal mode;
  // with one worker that is every source of the clip), so every clip
  // starts cold.  A search is warm-started only from its clip
  // predecessor's, which is the slot's previous search only at one
  // worker: a seed from further back can verify a different bracket
  // where measured distortion is non-monotone.  Peak memory stays at
  // `slots` cached contexts, however long a run is.
  const auto threads = static_cast<std::size_t>(pool_.thread_count());
  const std::size_t slots = std::max<std::size_t>(
      1, std::min(frames.size(), threads == 1 ? 1 : 2 * threads));
  const bool seeded = slots == 1;
  // Byte-identical reuse is temporal level 1; with temporal reuse off
  // every frame is searched.
  std::vector<std::size_t> bounds{0};
  for (std::size_t i = 1; i < frames.size(); ++i) {
    if (!opts_.temporal_reuse || !(frames[i] == frames[i - 1])) {
      bounds.push_back(i);
    }
  }
  if (!frames.empty()) bounds.push_back(frames.size());
  StreamSchedule schedule(std::move(bounds), slots);

  // A slot's state for this call.  `source` is the frame of the slot's
  // run whose search produced `raw`; the frames before it degraded in
  // the search (source == the run's end when all of them did).
  struct Run {
    TemporalReuse reuse;
    core::HebsResult raw;
    std::size_t source = 0;
    explicit Run(bool temporal_on) : reuse(temporal_on) {}
  };

  // Per-frame state, written by the task that owns the frame (its
  // search, then its re-derivation) or the replay, and read by the plan,
  // the replay and the release once the schedule records that task
  // done.  `degraded`: the frame carries the identity fallback (search
  // or re-derivation fault); `rederive_fault`: the fault hit the
  // re-derivation, so its slot is quarantined when the run releases it.
  struct FrameState {
    bool degraded = false;
    bool rederive_fault = false;
  };
  std::vector<FrameState> state(frames.size());
  std::vector<core::FrameDecision> decisions(frames.size());

  // The degraded frame's output: the identity fallback, planned as a
  // stream discontinuity.  Copying the pooled fallback must not re-fire
  // a persistent injected allocation fault.
  const auto degraded_decision = [&](std::size_t i) {
    util::fault::SuppressScope no_refire;
    post.degrade(i);
    return controller.apply_degraded(identity_fallback(frames[i]));
  };

  with_worker_slots(slots, [&](std::span<WorkerSlot> workers) {
    std::vector<Run> runs;
    runs.reserve(slots);
    for (std::size_t k = 0; k < slots; ++k) {
      runs.emplace_back(opts_.temporal_reuse);
    }

    // Quarantine of a slot whose frame faulted: its context's memo state
    // and its temporal chain may be poisoned (mid-update when the fault
    // unwound), so both are discarded — the slot's next search runs the
    // cold path on a fresh context, exactly as a cold run started there
    // would.
    const auto quarantine = [&](std::size_t k) {
      workers[k].ctx.reset();
      runs[k].reuse.reset();
    };

    // One frame's search on slot k; false when it degraded.
    const auto search_frame = [&](std::size_t k, std::size_t i) {
      Run& s = runs[k];
      return contain_frame(
          opts_.frame_deadline_us, faults, i, "stream search",
          [&] {
            FrameContext& ctx = context_for(workers[k].ctx, vopts.hebs,
                                            controller.power_model());
            // TemporalReuse handles both modes: disabled, it degrades to
            // rebind + run_exact (the cold path).
            s.raw = s.reuse.process(ctx, frames[i], vopts.d_max_percent,
                                    seeded);
            // The re-derivations read the frame caches concurrently;
            // none may be built lazily under them.
            ctx.warm_probe_caches();
          },
          [&] { quarantine(k); }, [&] { state[i].degraded = true; });
    };

    // A fault in frame i's re-derivation, post-stage or repeat copy: the
    // frame degrades, and its slot is quarantined once its run is final
    // (the replay may still need the context).
    const auto rederive_contained = [&](std::size_t i, auto&& work) {
      FrameState& f = state[i];
      return contain_faults(
          faults, i, "flicker re-derivation", work,
          [&f] { f.rederive_fault = true; }, [&f] { f.degraded = true; });
    };

    // Run r's search.  Contexts stay alive into the re-derivations,
    // which reuse their caches.
    const auto search = [&](std::size_t r) {
      const std::size_t k = r % slots;
      Run& s = runs[k];
      util::PoolScope scope(workers[k].pool.get());
      // A degraded frame is no reuse source: the next frame of the run
      // is searched as an ordinary frame on the fresh context, as a cold
      // run started after the reset would search it.
      s.source = schedule.first(r);
      while (s.source < schedule.end(r) && !search_frame(k, s.source)) {
        ++s.source;
      }
    };

    // Frame i's applied-β re-derivation and post-stage, or — `copy`, a
    // repeat — its predecessor's outputs, already final; false when that
    // faulted.
    const auto rederive = [&](std::size_t i, bool copy) {
      const std::size_t k = schedule.slot_of_frame(i);
      util::PoolScope scope(workers[k].pool.get());
      obs::ScopedSpan post_span(obs::Span::kFlickerPost,
                                static_cast<std::int32_t>(i));
      if (copy) {
        return rederive_contained(i, [&] {
          decisions[i].point = decisions[i - 1].point;
          decisions[i].evaluation = decisions[i - 1].evaluation;
          post.copy(i);
        });
      }
      return rederive_contained(i, [&] {
        // Writes nothing into the context, so a run's frames share it.
        controller.rederive(*workers[k].ctx, runs[k].raw, decisions[i]);
        post.render(i, decisions[i].point);
      });
    };

    // The ordered plan of frame i (under the schedule's lock, in frame
    // order): its scene cut and β step.  A frame degraded in the search
    // resets the controller (a stream discontinuity) instead of advancing
    // it.  A duplicate plans on its source's histogram — the same counts
    // its own would have.  A repeat is a duplicate planned at its
    // predecessor's β whose input bytes equal its predecessor's: its
    // re-derivation and post-stage, deterministic functions of (input,
    // raw result, β), would reproduce the predecessor's bits, so it
    // copies them instead.
    using Status = StreamSchedule::Status;
    const auto plan = [&](std::size_t i) {
      if (state[i].degraded) {
        decisions[i] = degraded_decision(i);
        return Status::kDone;
      }
      const std::size_t k = schedule.slot_of_frame(i);
      const Run& s = runs[k];
      if (i != s.source) {
        // The duplicate's temporal level-1 record: a frame span around
        // its (instant) reuse, as a searched frame's span wraps its
        // search.
        obs::ScopedSpan frame_span(obs::Span::kFrame,
                                   static_cast<std::int32_t>(i));
        obs::ScopedSpan reuse_span(obs::Span::kTemporalReuse, 2);
        obs::add(obs::Counter::kTemporalFrames);
        obs::add(obs::Counter::kTemporalByteIdentical);
      }
      decisions[i] = controller.plan_flicker(workers[k].ctx->histogram(),
                                             s.raw.point.beta);
      // Frames [source, end) of a run are all undegraded here, and
      // planned in one pass.
      const bool repeat = i != s.source &&
                          decisions[i].beta == decisions[i - 1].beta &&
                          post.same_input(i);
      return repeat ? Status::kCopy : Status::kReady;
    };

    // The replay after a re-derivation fault at frame `first`: it
    // degrades and resets the controller; the frames planned after it,
    // [first + 1, end), were planned on the history that reset discards,
    // so they are re-planned, re-derived and rendered in order from the
    // reset controller (serially, under the schedule's lock: the path is
    // rare), exactly as a cold run started after the fault computes
    // them.  No frame task is in flight meanwhile, and their runs still
    // hold their slots.
    const auto replay = [&](std::size_t first, std::size_t end) {
      for (std::size_t i = first; i < end; ++i) {
        if (!state[i].degraded) {
          const std::size_t k = schedule.slot_of_frame(i);
          util::PoolScope scope(workers[k].pool.get());
          obs::ScopedSpan post_span(obs::Span::kFlickerPost,
                                    static_cast<std::int32_t>(i));
          rederive_contained(i, [&] {
            decisions[i] =
                controller.apply_flicker_control(*workers[k].ctx, runs[k].raw);
            post.render(i, decisions[i].point);
          });
        }
        if (state[i].degraded) decisions[i] = degraded_decision(i);
      }
    };

    // Run r is final: a slot whose frame faulted in the re-derivation
    // restarts cold, like one faulted in the search — only now, since the
    // replay re-derived the rest of its run on its context.
    const auto release = [&](std::size_t r) {
      for (std::size_t i = schedule.first(r); i < schedule.end(r); ++i) {
        if (state[i].rederive_fault) {
          quarantine(r % slots);
          return;
        }
      }
    };

    pool_.parallel_for(threads, [&](std::size_t, int) {
      schedule.work(search, rederive, plan, replay, release);
    });
  });
  return decisions;
}

std::vector<core::FrameDecision> PipelineEngine::process_stream(
    std::span<const hebs::image::GrayImage> frames,
    core::VideoBacklightController& controller,
    std::vector<FrameFault>* faults) {
  return run_stream(frames, controller, GrayPost{}, faults);
}

std::vector<core::FrameDecision> PipelineEngine::process_stream(
    std::span<const hebs::image::GrayImage> frames,
    const core::VideoOptions& opts, std::vector<FrameFault>* faults) {
  core::VideoBacklightController controller(opts, model_);
  return process_stream(frames, controller, faults);
}

std::vector<ColorBatchResult> PipelineEngine::process_batch_color(
    std::span<const hebs::image::RgbImage> images, const Policy& policy,
    double d_max_percent, core::ColorMode mode,
    std::vector<FrameFault>* faults) {
  const auto lumas = extract_lumas(pool_, images);
  ColorPost post{images, lumas, mode,
                 std::vector<ColorFrameOutput>(images.size())};
  auto decisions = run_batch(std::span<const hebs::image::GrayImage>(lumas),
                             policy, d_max_percent, post, faults);
  std::vector<ColorBatchResult> out(images.size());
  for (std::size_t i = 0; i < images.size(); ++i) {
    out[i] = {std::move(decisions[i]), std::move(post.out[i])};
  }
  return out;
}

std::vector<ColorBatchResult> PipelineEngine::process_batch_color(
    std::span<const hebs::image::RgbImage> images, double d_max_percent,
    core::ColorMode mode, std::vector<FrameFault>* faults) {
  return process_batch_color(images, ExactPolicy(), d_max_percent, mode,
                             faults);
}

std::vector<ColorStreamResult> PipelineEngine::process_stream_color(
    std::span<const hebs::image::RgbImage> frames,
    const core::VideoOptions& opts, core::ColorMode mode,
    std::vector<FrameFault>* faults) {
  // The stream decides, and dedupes, on each frame's BT.601 luma, which
  // the run formation compares on the calling thread before any search
  // — so every luma is extracted up front.
  const auto lumas = extract_lumas(pool_, frames);
  ColorPost post{frames, lumas, mode,
                 std::vector<ColorFrameOutput>(frames.size())};
  core::VideoBacklightController controller(opts, model_);
  auto decisions = run_stream(
      std::span<const hebs::image::GrayImage>(lumas), controller, post,
      faults);
  std::vector<ColorStreamResult> out(frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    out[i] = {std::move(decisions[i]), std::move(post.out[i])};
  }
  return out;
}

}  // namespace hebs::pipeline
