#include "pipeline/engine.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "obs/counters.h"
#include "obs/trace.h"
#include "pipeline/temporal.h"
#include "util/error.h"
#include "util/faultpoint.h"
#include "util/pool.h"

namespace hebs::pipeline {

namespace {

std::unique_ptr<util::BufferPool> make_pool(const EngineOptions& opts) {
  if (!opts.use_buffer_pool) return nullptr;  // null scope = plain heap
  return std::make_unique<util::BufferPool>(
      util::PoolOptions{opts.pool_max_retained_bytes, opts.pool_max_bytes});
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

// ---- post-stages (DESIGN.md §9, "Stream rounds"; §10) -----------------
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

}  // namespace

PipelineEngine::PipelineEngine(EngineOptions opts,
                               hebs::power::LcdSubsystemPower power_model)
    : opts_(std::move(opts)),
      model_(std::move(power_model)),
      pool_(opts_.num_threads) {
  slot_.pool = make_pool(opts_);
  lanes_ = std::make_unique<ProbeLanes>(
      pool_, opts_.use_buffer_pool,
      util::PoolOptions{opts_.pool_max_retained_bytes, opts_.pool_max_bytes});
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
  const auto run_frame = [&](WorkerSlot& slot, std::size_t i,
                             ProbeLanes* lanes) {
    util::PoolScope scope(slot.pool.get());
    contain_frame(
        opts_.frame_deadline_us, faults, i, "search",
        [&] {
          FrameContext& ctx = context_for(slot.ctx, opts_.hebs, model_);
          ctx.set_probe_lanes(lanes);
          ctx.rebind(images[i]);
          results[i] = policy.decide(ctx, d_max_percent);
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
    // the calling thread; the slot's search may borrow idle workers for
    // speculative probes (never blocking on a busy pool).
    if (slot_mu_.try_lock()) {
      util::MutexLock lock(slot_mu_, std::adopt_lock);
      run_frame(slot_, 0, lanes_.get());
    } else {
      // Another caller holds the slot: run on a one-off slot rather
      // than queue, so concurrent callers of one engine still run in
      // parallel.
      WorkerSlot one_off;
      one_off.pool = make_pool(opts_);
      run_frame(one_off, 0, nullptr);
    }
    return results;
  }
  // Slot k decides frames k, k + W, k + 2W, … in order, so which
  // frames a slot's pool serves never depends on scheduling: a repeated
  // call recycles every block its predecessor used.
  const std::size_t width = std::min<std::size_t>(
      static_cast<std::size_t>(pool_.thread_count()), images.size());
  with_worker_slots(width, [&](std::span<WorkerSlot> slots) {
    pool_.parallel_for(width, [&](std::size_t k, int) {
      for (std::size_t i = k; i < images.size(); i += width) {
        run_frame(slots[k], i, nullptr);
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

  // The clip is processed in rounds, each in four steps: the per-frame
  // searches run on the pool; the controller plans the round's applied
  // β values in frame order on the calling thread (the scalar
  // recurrence — the only truly ordered work); the applied-β
  // re-derivations, each followed by its frame's post-stage render, run
  // on the pool, one task per frame; and the decisions land by frame
  // index.  The controller's state advances exactly as serial
  // processing would.
  //
  // A round holds `slots` *runs*: a source frame plus the frames after
  // it that are byte-identical to their predecessor (the duplicates).
  // Runs are formed on the calling thread before the round and never
  // cross a round boundary, so the first frame of a round is always a
  // source.  A run takes one search lane: its duplicates inherit the
  // source's raw result bit for bit (the search is a deterministic
  // function of the pixels, DESIGN.md §9) and re-derive on the source's
  // context, concurrently, through its memo-free reads.  Which frames
  // are duplicates depends only on clip position, so reuse and the
  // decisions it yields are the same at every thread count.
  //
  // Slot k runs on the engine's worker slot k — its FrameContext and
  // recycling BufferPool persist across calls — and owns, for this call,
  // the coherence state of the runs it searches (temporal mode; with one
  // worker that is every source of the clip), so every clip starts
  // cold.  A search is warm-started only from its clip predecessor's: a
  // seed from further back can verify a different bracket where
  // measured distortion is non-monotone, and which frame a slot searched
  // last depends on the worker count.  Peak memory stays at `slots`
  // cached contexts, however long a run is.
  const auto threads = static_cast<std::size_t>(pool_.thread_count());
  const std::size_t slots = std::max<std::size_t>(
      1, std::min(frames.size(), threads == 1 ? 1 : 2 * threads));
  // Byte-identical reuse is temporal level 1; with temporal reuse off
  // every frame is searched.
  const bool dedupe = opts_.temporal_reuse;

  // A slot's state for this call.
  struct Run {
    TemporalReuse reuse;
    core::HebsResult raw;
    // The slot's run in the current round: frames [first, end), each
    // byte-identical to the one before.  `source` is the frame whose
    // search produced `raw`; the frames before it degraded in the
    // search (source == end when all of them did).  `chained`: the
    // slot's previous run ended at `first`, so its search may seed
    // this one (always at one worker).
    std::size_t first = 0;
    std::size_t source = 0;
    std::size_t end = 0;
    bool chained = false;
    // The delta threshold keeps its one default.
    explicit Run(bool temporal_on)
        : reuse(TemporalOptions{.enabled = temporal_on}) {}
  };

  // Per-frame round state.  `degraded`: the frame carries the identity
  // fallback (search or re-derivation fault); `rederive_fault`: the
  // fault hit the re-derivation (its slot is quarantined after the
  // round's replay); `repeat`: a duplicate planned at its predecessor's
  // β whose input bytes equal its predecessor's — its re-derivation and
  // post-stage, deterministic functions of (input, raw result, β),
  // would reproduce the predecessor's bits, so it copies them instead.
  // Written by the frame's worker (or the plan), read on the calling
  // thread after the step's barrier.
  struct FrameState {
    std::size_t slot = 0;
    bool degraded = false;
    bool rederive_fault = false;
    bool repeat = false;
  };
  std::vector<FrameState> state(frames.size());

  std::vector<core::FrameDecision> decisions;
  decisions.reserve(frames.size());

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

    // Quarantine of a slot whose frame faulted in the search: its
    // context's memo state and its temporal chain may be poisoned
    // (mid-update when the fault unwound), so both are discarded — the
    // slot's next search runs the cold path on a fresh context, exactly
    // as a cold run started there would.
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
                                    s.chained);
            // The re-derivations read the frame caches concurrently;
            // none may be built lazily under them.
            ctx.warm_probe_caches();
          },
          [&] { quarantine(k); }, [&] { state[i].degraded = true; });
    };

    // A fault in frame i's re-derivation, post-stage or repeat copy:
    // the frame degrades, and its slot is quarantined once the round's
    // replay no longer needs its context.
    const auto rederive_contained = [&](std::size_t i, auto&& work) {
      FrameState& f = state[i];
      return contain_faults(
          faults, i, "flicker re-derivation", work,
          [&f] { f.rederive_fault = true; }, [&f] { f.degraded = true; });
    };

    // One callable per step for the whole clip (constructing a
    // std::function per round would put an allocation back into the
    // steady state).
    std::size_t begin = 0;
    const std::function<void(std::size_t, int)> search_round =
        [&](std::size_t k, int) {
          Run& s = runs[k];
          util::PoolScope scope(workers[k].pool.get());
          // A degraded frame is no reuse source: the next frame of the
          // run is searched as an ordinary frame on the fresh context,
          // as a cold run started after the reset would search it.
          s.source = s.first;
          while (s.source < s.end && !search_frame(k, s.source)) ++s.source;
        };

    const std::function<void(std::size_t, int)> rederive_round =
        [&](std::size_t j, int) {
          const std::size_t i = begin + j;
          const FrameState& f = state[i];
          // Degraded: planned as a discontinuity already; repeat: copied
          // after the step.
          if (f.degraded || f.repeat) return;
          const WorkerSlot& w = workers[f.slot];
          util::PoolScope scope(w.pool.get());
          obs::ScopedSpan post_span(obs::Span::kFlickerPost,
                                    static_cast<std::int32_t>(i));
          rederive_contained(i, [&] {
            // Writes nothing into the context, so a run's frames share
            // it.
            controller.rederive(*w.ctx, runs[f.slot].raw, decisions[i]);
            post.render(i, decisions[i].point);
          });
        };

    for (std::size_t end = 0; begin < frames.size(); begin = end) {
      // 0. Form the round's runs: `slots` sources, each with the frames
      // after it that equal their predecessor.
      std::size_t count = 0;
      end = begin;
      while (count < slots && end < frames.size()) {
        Run& s = runs[count];
        s.chained = s.end == end;
        s.first = end;
        do {
          state[end] = FrameState{count, false, false, false};
          ++end;
        } while (dedupe && end < frames.size() &&
                 frames[end] == frames[end - 1]);
        s.end = end;
        ++count;
      }

      // 1. The per-run exact HEBS search.  Contexts stay alive into the
      // re-derivation, which reuses their caches.
      pool_.parallel_for(count, search_round);

      // 2. The ordered plan: scene cuts and the β recurrence, in frame
      // order.  A frame degraded in the search resets the controller (a
      // stream discontinuity) instead of advancing it.  A duplicate
      // plans on its source's histogram — the same counts its own would
      // have.
      for (std::size_t i = begin; i < end; ++i) {
        if (state[i].degraded) {
          decisions.push_back(degraded_decision(i));
          continue;
        }
        const Run& s = runs[state[i].slot];
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
        decisions.push_back(controller.plan_flicker(
            workers[state[i].slot].ctx->exact_histogram(),
            s.raw.point.beta));
        // Frames [source, end) of a run are all undegraded here.
        state[i].repeat = i != s.source &&
                          decisions[i].beta == decisions[i - 1].beta &&
                          post.same_input(i);
      }

      // 3. The applied-β re-derivations and post-stages, one task per
      // frame.
      pool_.parallel_for(end - begin, rederive_round);

      // 4. Emit: the outputs already sit at their frame index, but for
      // the repeats, copied here in frame order (each from a predecessor
      // already final).  A re-derivation fault — the copy counts as the
      // repeat's re-derivation — stops the copies: the first frame whose
      // re-derivation faulted degrades and resets the controller; the
      // frames after it were planned on the history that reset discards,
      // so they are re-planned, re-derived and rendered in order from the
      // reset controller (serially: the path is rare), exactly as a cold
      // run started after the fault computes them.
      std::size_t i = begin;
      for (; i < end && !state[i].rederive_fault; ++i) {
        if (!state[i].repeat) continue;
        util::PoolScope scope(workers[state[i].slot].pool.get());
        obs::ScopedSpan post_span(obs::Span::kFlickerPost,
                                  static_cast<std::int32_t>(i));
        if (!rederive_contained(i, [&] {
              decisions[i].point = decisions[i - 1].point;
              decisions[i].evaluation = decisions[i - 1].evaluation;
              post.copy(i);
            })) {
          break;
        }
      }
      for (; i < end; ++i) {
        const FrameState& f = state[i];
        if (!f.degraded) {
          const WorkerSlot& w = workers[f.slot];
          util::PoolScope scope(w.pool.get());
          obs::ScopedSpan post_span(obs::Span::kFlickerPost,
                                    static_cast<std::int32_t>(i));
          rederive_contained(i, [&] {
            decisions[i] =
                controller.apply_flicker_control(*w.ctx, runs[f.slot].raw);
            post.render(i, decisions[i].point);
          });
        }
        if (f.degraded) decisions[i] = degraded_decision(i);
      }
      // A slot whose frame faulted in the re-derivation restarts cold,
      // like one faulted in the search.  Only now: the rest of its run
      // replayed on its context above.
      for (i = begin; i < end; ++i) {
        if (state[i].rederive_fault) quarantine(state[i].slot);
      }
    }
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
  // the run formation compares on the calling thread before a round's
  // searches — so every luma is extracted up front.
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
