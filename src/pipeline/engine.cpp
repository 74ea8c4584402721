#include "pipeline/engine.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
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
/// distortion) at full backlight (zero saving).  Power reports stay
/// zero: power accounting is not available for a frame whose pipeline
/// never completed.  Runs under a SuppressScope so a persistent
/// injected fault (e.g. pool-alloc:count=0) cannot re-fire inside its
/// own containment handler.
core::HebsResult identity_fallback(const hebs::image::GrayImage& frame) {
  util::fault::SuppressScope no_refire;
  core::HebsResult r;
  r.point = core::identity_operating_point();
  r.lambda = r.point.luminance_transform;
  r.target = {0, hebs::image::kMaxPixel};
  r.evaluation.point = r.point;
  r.evaluation.transformed = frame;  // identity: displayed == input
  return r;
}

/// Deep-pixel twin of identity_fallback, on the frame's own lattice.
core::HebsResult identity_fallback(const hebs::image::GrayImage16& frame) {
  util::fault::SuppressScope no_refire;
  core::HebsResult r;
  r.point = core::identity_operating_point();
  r.lambda = r.point.luminance_transform;
  r.target = {0, frame.max_pixel()};
  r.evaluation.point = r.point;
  r.evaluation.transformed16 = frame;  // identity: displayed == input
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

/// Byte equality of two frames: same size, then memcmp.
bool same_bytes(std::span<const std::uint8_t> a,
                std::span<const std::uint8_t> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size()) == 0;
}

bool same_bytes(const hebs::image::GrayImage& a,
                const hebs::image::GrayImage& b) {
  return a.width() == b.width() && a.height() == b.height() &&
         same_bytes(a.pixels(), b.pixels());
}

bool same_bytes(const hebs::image::RgbImage& a,
                const hebs::image::RgbImage& b) {
  return a.width() == b.width() && a.height() == b.height() &&
         same_bytes(a.data(), b.data());
}

using DeadlineClock = std::chrono::steady_clock;

bool deadline_blown(const EngineOptions& opts,
                    DeadlineClock::time_point start) {
  if (opts.frame_deadline_us <= 0) return false;
  return std::chrono::duration_cast<std::chrono::microseconds>(
             DeadlineClock::now() - start)
             .count() > opts.frame_deadline_us;
}

}  // namespace

PipelineEngine::PipelineEngine(EngineOptions opts,
                               hebs::power::LcdSubsystemPower power_model)
    : opts_(std::move(opts)),
      model_(std::move(power_model)),
      pool_(opts_.num_threads) {
  slot_.pool = make_pool(opts_);
  slot_.lanes = std::make_unique<ProbeLanes>(
      pool_, opts_.use_buffer_pool,
      util::PoolOptions{opts_.pool_max_retained_bytes, opts_.pool_max_bytes});
}

/// Runs `per_frame` for every image on the pool, each worker reusing one
/// rebound FrameContext drawing from its own recycling buffer pool; a
/// single image runs inline on the engine's persistent slot instead.
/// Results land at their frame's index, so output order never depends
/// on scheduling.
///
/// Containment: a frame whose work throws (or blows the frame deadline)
/// lands `fallback(i)` at its index instead of failing the batch, and
/// the worker's (or slot's) context is discarded — its memo state may be
/// mid-update, and no later frame may read poisoned caches.  The next
/// frame there starts from a fresh context, so post-fault frames are
/// bit-identical to a cold run.
template <typename Result, typename Image, typename PerFrame,
          typename Fallback>
std::vector<Result> PipelineEngine::map_frames(
    std::span<const Image> images, PerFrame&& per_frame, Fallback&& fallback,
    std::vector<FrameFault>* faults) {
  if (faults != nullptr) {
    faults->clear();
    faults->resize(images.size());
  }
  std::vector<Result> results(images.size());
  // The per-frame containment body, shared by the inline single-frame
  // path and the fan-out.  The SuppressScope around the fallback keeps
  // a persistent injected fault from re-firing inside the handler.
  const auto run_contained = [&](std::unique_ptr<FrameContext>& ctx,
                                 std::size_t i, ProbeLanes* lanes) {
    const auto start = DeadlineClock::now();
    try {
      util::fault::maybe_fail(util::fault::Point::kWorkerTask);
      if (!ctx) ctx = std::make_unique<FrameContext>(opts_.hebs, model_);
      ctx->set_probe_lanes(lanes);
      ctx->rebind(images[i]);
      results[i] = per_frame(*ctx, i);
    } catch (const util::InvalidArgument&) {
      // Precondition violations are caller bugs, not runtime faults:
      // degrading would hide them, so they propagate out of the batch
      // (the pool rethrows the first one after the barrier).  The
      // context may be mid-update all the same, so it goes too.
      ctx.reset();
      throw;
    } catch (const std::exception& e) {
      ctx.reset();  // quarantine
      util::fault::SuppressScope no_refire;
      results[i] = fallback(i);
      record_fault(faults, i, is_io_error(e),
                   fault_message("search", i, e.what()));
      return;
    }
    if (deadline_blown(opts_, start)) {
      obs::add(obs::Counter::kDeadlineMiss);
      util::fault::SuppressScope no_refire;
      results[i] = fallback(i);
      record_fault(faults, i, /*io=*/false,
                   deadline_message("search", i, opts_.frame_deadline_us),
                   /*deadline=*/true);
    }
  };
  if (images.size() == 1) {
    // Single frame: frame-level fan-out cannot help, so run inline on
    // the calling thread; the slot's search may borrow idle workers for
    // speculative probes (never blocking on a busy pool).
    const auto run_inline = [&](std::unique_ptr<FrameContext>& ctx,
                                util::BufferPool* buffers,
                                ProbeLanes* lanes) {
      util::PoolScope scope(buffers);
      obs::ScopedSpan frame_span(obs::Span::kFrame, 0);
      run_contained(ctx, 0, lanes);
    };
    if (slot_mu_.try_lock()) {
      // The persistent slot: back-to-back calls recycle one context and
      // one pool instead of building both.
      util::MutexLock lock(slot_mu_, std::adopt_lock);
      run_inline(slot_.ctx, slot_.pool.get(), slot_.lanes.get());
    } else {
      // Another caller holds the slot: run on a one-off pool and
      // context rather than queue, so concurrent callers of one engine
      // still run in parallel.  The context is declared after its pool,
      // so it releases its pooled caches first.
      const auto buffers = make_pool(opts_);
      std::unique_ptr<FrameContext> ctx;
      run_inline(ctx, buffers.get(), nullptr);
    }
    return results;
  }
  const auto workers = static_cast<std::size_t>(pool_.thread_count());
  std::vector<std::unique_ptr<FrameContext>> contexts(workers);
  std::vector<std::unique_ptr<util::BufferPool>> pools(workers);
  pool_.parallel_for(images.size(), [&](std::size_t i, int worker) {
    const auto w = static_cast<std::size_t>(worker);
    if (!pools[w]) pools[w] = make_pool(opts_);
    util::PoolScope scope(pools[w].get());
    obs::ScopedSpan frame_span(obs::Span::kFrame,
                               static_cast<std::int32_t>(i));
    run_contained(contexts[w], i, nullptr);
  });
  // Contexts must release their pooled caches before the pools detach
  // (detached blocks go back to the heap instead of recycling — only a
  // lifetime nicety here, but it keeps pool accounting exact).
  contexts.clear();
  return results;
}

std::vector<core::HebsResult> PipelineEngine::process_batch(
    std::span<const hebs::image::GrayImage> images, const Policy& policy,
    double d_max_percent, std::vector<FrameFault>* faults) {
  policy.prepare();
  return map_frames<core::HebsResult>(
      images,
      [&policy, d_max_percent](FrameContext& ctx, std::size_t) {
        return policy.decide(ctx, d_max_percent);
      },
      [&images](std::size_t i) { return identity_fallback(images[i]); },
      faults);
}

std::vector<core::HebsResult> PipelineEngine::process_batch(
    std::span<const hebs::image::GrayImage16> images, const Policy& policy,
    double d_max_percent, std::vector<FrameFault>* faults) {
  policy.prepare();
  return map_frames<core::HebsResult>(
      images,
      [&policy, d_max_percent](FrameContext& ctx, std::size_t) {
        return policy.decide(ctx, d_max_percent);
      },
      [&images](std::size_t i) { return identity_fallback(images[i]); },
      faults);
}

std::vector<core::HebsResult> PipelineEngine::process_batch(
    std::span<const hebs::image::GrayImage> images, double d_max_percent,
    std::vector<FrameFault>* faults) {
  return process_batch(images, ExactPolicy(), d_max_percent, faults);
}

std::vector<core::FrameDecision> PipelineEngine::process_stream(
    std::span<const hebs::image::GrayImage> frames,
    core::VideoBacklightController& controller,
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
  // re-derivations run on the pool, one task per frame; and the
  // decisions land by frame index.  The controller's state advances
  // exactly as serial processing would.
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
  // Each slot owns a persistent FrameContext, a recycling BufferPool,
  // and — temporal mode — the coherence state of the runs it searches
  // (with one worker that is every source of the clip).  A search is
  // warm-started only from its clip predecessor's: a seed from further
  // back can verify a different bracket where measured distortion is
  // non-monotone, and which frame a slot searched last depends on the
  // worker count.  Peak memory stays at `slots` cached contexts,
  // however long a run is.
  const auto threads = static_cast<std::size_t>(pool_.thread_count());
  const std::size_t slots = std::max<std::size_t>(
      1, std::min(frames.size(), threads == 1 ? 1 : 2 * threads));
  // Byte-identical reuse is temporal level 1; with temporal reuse off
  // every frame is searched.
  const bool dedupe = opts_.temporal_reuse;

  struct Slot {
    std::unique_ptr<util::BufferPool> pool;
    std::unique_ptr<FrameContext> ctx;
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
    Slot(const EngineOptions& opts, bool temporal_on)
        : pool(make_pool(opts)), reuse(slot_reuse_options(temporal_on)) {}

    static TemporalOptions slot_reuse_options(bool temporal_on) {
      TemporalOptions t;  // delta threshold keeps its one default
      t.enabled = temporal_on;
      return t;
    }
  };
  std::vector<Slot> slot_states;
  slot_states.reserve(slots);
  for (std::size_t k = 0; k < slots; ++k) {
    slot_states.emplace_back(opts_, opts_.temporal_reuse);
  }

  // Per-frame round state.  `degraded`: the frame carries the identity
  // fallback (search or re-derivation fault); `rederive_fault`: the
  // fault hit the re-derivation; `repeat`: a duplicate planned at its
  // predecessor's β — its re-derivation, a deterministic function of
  // (pixels, raw result, β), would reproduce the predecessor's bits, so
  // it copies them instead.  Written by the frame's worker (or the
  // plan), read on the calling thread after the step's barrier.
  struct FrameState {
    std::size_t slot = 0;
    bool degraded = false;
    bool rederive_fault = false;
    bool repeat = false;
  };
  std::vector<FrameState> state(frames.size());

  std::vector<core::FrameDecision> decisions;
  decisions.reserve(frames.size());

  // Containment of a frame faulted in the search: its context's memo
  // state and its temporal chain may be poisoned (mid-update when the
  // fault unwound), so both are discarded — the slot's next search
  // runs the cold path on a fresh context, exactly as a cold run
  // started there would — and the frame carries the identity fallback.
  const auto contain = [&](Slot& s, std::size_t i, bool io,
                           std::string message, bool deadline = false) {
    s.ctx.reset();
    s.reuse.reset();
    state[i].degraded = true;
    record_fault(faults, i, io, std::move(message), deadline);
  };

  // One frame's search on its slot; false when it was contained.
  const auto search_frame = [&](Slot& s, std::size_t i) {
    obs::ScopedSpan frame_span(obs::Span::kFrame,
                               static_cast<std::int32_t>(i));
    const auto start = DeadlineClock::now();
    try {
      util::fault::maybe_fail(util::fault::Point::kWorkerTask);
      if (!s.ctx) {
        s.ctx = std::make_unique<FrameContext>(vopts.hebs,
                                               controller.power_model());
      }
      // TemporalReuse handles both modes: disabled, it degrades to
      // rebind + run_exact (the cold path).
      s.raw = s.reuse.process(*s.ctx, frames[i], vopts.d_max_percent,
                              s.chained);
      // The re-derivations read the frame caches concurrently; none
      // may be built lazily under them.
      s.ctx->warm_probe_caches();
    } catch (const util::InvalidArgument&) {
      throw;  // caller bug, not a runtime fault — see map_frames
    } catch (const std::exception& e) {
      contain(s, i, is_io_error(e),
              fault_message("stream search", i, e.what()));
      return false;
    }
    if (deadline_blown(opts_, start)) {
      obs::add(obs::Counter::kDeadlineMiss);
      // The computed state is valid, merely late — but the emitted
      // decision is the fallback and the controller treats it as a
      // discontinuity, so the slot restarts cold too (uniform
      // degradation contract: one recovery story for every fault).
      contain(s, i, /*io=*/false,
              deadline_message("stream search", i, opts_.frame_deadline_us),
              /*deadline=*/true);
      return false;
    }
    return true;
  };

  // The degraded frame's decision: the identity fallback, planned as a
  // stream discontinuity.  Copying the pooled fallback must not re-fire
  // a persistent injected allocation fault.
  const auto degraded_decision = [&](std::size_t i) {
    util::fault::SuppressScope no_refire;
    return controller.apply_degraded(identity_fallback(frames[i]));
  };

  // One callable per step for the whole clip (constructing a
  // std::function per round would put an allocation back into the
  // steady state).
  std::size_t begin = 0;
  const std::function<void(std::size_t, int)> search_round =
      [&](std::size_t k, int) {
        Slot& s = slot_states[k];
        util::PoolScope scope(s.pool.get());
        // A degraded frame is no reuse source: the next frame of the
        // run is searched as an ordinary frame on the fresh context, as
        // a cold run started after the reset would search it.
        s.source = s.first;
        while (s.source < s.end && !search_frame(s, s.source)) ++s.source;
      };

  const std::function<void(std::size_t, int)> rederive_round =
      [&](std::size_t j, int) {
        const std::size_t i = begin + j;
        FrameState& f = state[i];
        // Degraded: planned as a discontinuity already; repeat: copied
        // after the step.
        if (f.degraded || f.repeat) return;
        const Slot& s = slot_states[f.slot];
        util::PoolScope scope(s.pool.get());
        obs::ScopedSpan post_span(obs::Span::kFlickerPost,
                                  static_cast<std::int32_t>(i));
        try {
          // Writes nothing into the context, so a run's frames share it.
          controller.rederive(*s.ctx, s.raw, decisions[i]);
        } catch (const util::InvalidArgument&) {
          throw;  // caller bug, not a runtime fault — see map_frames
        } catch (const std::exception& e) {
          f.degraded = true;
          f.rederive_fault = true;
          record_fault(faults, i, is_io_error(e),
                       fault_message("flicker re-derivation", i, e.what()));
        }
      };

  for (std::size_t end = 0; begin < frames.size(); begin = end) {
    // 0. Form the round's runs: `slots` sources, each with the frames
    // after it that equal their predecessor.
    std::size_t count = 0;
    end = begin;
    while (count < slots && end < frames.size()) {
      Slot& s = slot_states[count];
      s.chained = s.end == end;
      s.first = end;
      do {
        state[end] = FrameState{count, false, false, false};
        ++end;
      } while (dedupe && end < frames.size() &&
               same_bytes(frames[end], frames[end - 1]));
      s.end = end;
      ++count;
    }

    // 1. The per-run exact HEBS search.  Contexts stay alive into the
    // re-derivation, which reuses their caches.
    pool_.parallel_for(count, search_round);

    // 2. The ordered plan: scene cuts and the β recurrence, in frame
    // order.  A frame degraded in the search resets the controller (a
    // stream discontinuity) instead of advancing it.  A duplicate plans
    // on its source's histogram — the same counts its own would have.
    for (std::size_t i = begin; i < end; ++i) {
      if (state[i].degraded) {
        decisions.push_back(degraded_decision(i));
        continue;
      }
      const Slot& s = slot_states[state[i].slot];
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
      decisions.push_back(controller.plan_flicker(s.ctx->exact_histogram(),
                                                  s.raw.point.beta));
      // Frames [source, end) of a run are all undegraded here.
      state[i].repeat =
          i != s.source && decisions[i].beta == decisions[i - 1].beta;
    }

    // 3. The applied-β re-derivations, one task per frame.
    pool_.parallel_for(end - begin, rederive_round);

    // 4. Emit: the decisions already sit at their frame index, but for
    // the repeats, copied here in frame order (each from a predecessor
    // already final).  A re-derivation fault — the copy counts as the
    // repeat's re-derivation — stops the copies: the first frame whose
    // re-derivation faulted degrades and resets the controller; the
    // frames after it were planned on the history that reset discards,
    // so they are re-planned and re-derived in order from the reset
    // controller (serially: the path is rare), exactly as a cold run
    // started after the fault computes them.
    std::size_t i = begin;
    for (; i < end && !state[i].rederive_fault; ++i) {
      FrameState& f = state[i];
      if (!f.repeat) continue;
      util::PoolScope scope(slot_states[f.slot].pool.get());
      obs::ScopedSpan post_span(obs::Span::kFlickerPost,
                                static_cast<std::int32_t>(i));
      try {
        decisions[i].point = decisions[i - 1].point;
        decisions[i].evaluation = decisions[i - 1].evaluation;
      } catch (const std::exception& e) {
        f.degraded = true;
        f.rederive_fault = true;
        record_fault(faults, i, is_io_error(e),
                     fault_message("flicker re-derivation", i, e.what()));
        break;
      }
    }
    for (; i < end; ++i) {
      FrameState& f = state[i];
      if (!f.degraded) {
        const Slot& s = slot_states[f.slot];
        util::PoolScope scope(s.pool.get());
        obs::ScopedSpan post_span(obs::Span::kFlickerPost,
                                  static_cast<std::int32_t>(i));
        try {
          decisions[i] = controller.apply_flicker_control(*s.ctx, s.raw);
        } catch (const util::InvalidArgument&) {
          throw;  // caller bug, not a runtime fault — see map_frames
        } catch (const std::exception& e) {
          f.degraded = true;
          f.rederive_fault = true;
          record_fault(faults, i, is_io_error(e),
                       fault_message("flicker re-derivation", i, e.what()));
        }
      }
      if (f.degraded) decisions[i] = degraded_decision(i);
    }
    // A slot whose frame faulted in the re-derivation restarts cold,
    // like one faulted in the search.  Only now: the rest of its run
    // replayed on its context above.
    for (i = begin; i < end; ++i) {
      if (!state[i].rederive_fault) continue;
      Slot& s = slot_states[state[i].slot];
      s.ctx.reset();
      s.reuse.reset();
    }
  }
  // Release pooled caches before their pools detach (see map_frames).
  slot_states.clear();
  return decisions;
}

std::vector<core::FrameDecision> PipelineEngine::process_stream(
    std::span<const hebs::image::GrayImage> frames,
    const core::VideoOptions& opts, std::vector<FrameFault>* faults) {
  core::VideoBacklightController controller(opts, model_);
  return process_stream(frames, controller, faults);
}

namespace {

/// The post-decision color stage (core::render_color) shaped into the
/// engine's per-frame output type.
ColorFrameOutput run_color_stage(const hebs::image::RgbImage& rgb,
                                 const hebs::image::GrayImage& luma,
                                 const core::OperatingPoint& point,
                                 core::ColorMode mode) {
  obs::ScopedSpan span(obs::Span::kColorRender);
  core::ColorRendering rendering = core::render_color(rgb, luma, point, mode);
  return {std::move(rendering.displayed), rendering.hue_error};
}

std::vector<hebs::image::GrayImage> materialize_lumas(
    std::span<const hebs::image::RgbImage> images) {
  std::vector<hebs::image::GrayImage> lumas;
  lumas.reserve(images.size());
  for (const auto& img : images) lumas.push_back(img.to_luma());
  return lumas;
}

bool same_point(const core::OperatingPoint& a, const core::OperatingPoint& b) {
  return a.beta == b.beta &&
         a.luminance_transform.points() == b.luminance_transform.points();
}

}  // namespace

std::vector<ColorBatchResult> PipelineEngine::process_batch_color(
    std::span<const hebs::image::RgbImage> images, const Policy& policy,
    double d_max_percent, core::ColorMode mode,
    std::vector<FrameFault>* faults) {
  policy.prepare();
  // Luma extraction is ordered-independent but cheap (one dispatched
  // kernel sweep per frame); done up front so the lumas outlive every
  // context binding.
  const auto lumas = materialize_lumas(images);
  return map_frames<ColorBatchResult>(
      std::span<const hebs::image::GrayImage>(lumas),
      [&images, &lumas, &policy, d_max_percent, mode](FrameContext& ctx,
                                                      std::size_t i) {
        ColorBatchResult r;
        r.luma = policy.decide(ctx, d_max_percent);
        r.color = run_color_stage(images[i], lumas[i], r.luma.point, mode);
        return r;
      },
      [&images, &lumas](std::size_t i) {
        // Degraded color frame: identity decision, and the displayed
        // raster is the unmodified input (β = 1 + identity LUT changes
        // no pixel, so the chromaticity drift is exactly zero).
        ColorBatchResult r;
        r.luma = identity_fallback(lumas[i]);
        r.color.displayed = images[i];
        r.color.hue_error = 0.0;
        return r;
      },
      faults);
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
  const auto lumas = materialize_lumas(frames);
  // Containment records are needed locally even when the caller passed
  // no sink: the color stage below must know which decisions carry the
  // identity fallback (their slot rendering is the unmodified input)
  // and which previous frames are ineligible as reuse sources.
  std::vector<FrameFault> stream_faults;
  auto decisions = process_stream(lumas, opts, &stream_faults);

  // Ordered color post-stage.  Rendering is a deterministic function of
  // (frame bytes, applied point, mode), so when both match the previous
  // frame the previous rendering is reused wholesale — the color
  // counterpart of the luma side's unchanged-frame fast path, and the
  // reason a static RGB clip pays one memcpy instead of the per-pixel
  // transform + chroma measurement per frame.
  // No pool scope here: the stage's only allocations are the output
  // rasters, which all escape into `out` — nothing would ever recycle.
  std::vector<ColorStreamResult> out;
  out.reserve(decisions.size());
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    ColorStreamResult r;
    r.decision = std::move(decisions[i]);
    if (stream_faults[i].degraded) {
      // The stream already emitted the identity decision for this
      // frame; its rendering is the unmodified input (β = 1 + identity
      // LUT change no pixel → zero chromaticity drift), no per-pixel
      // work and no chance of a second fault in the color stage.
      r.color.displayed = frames[i];
      r.color.hue_error = 0.0;
      out.push_back(std::move(r));
      continue;
    }
    const bool reuse = opts.temporal_reuse && i > 0 &&
                       !stream_faults[i - 1].degraded &&
                       same_point(r.decision.point, out.back().decision.point) &&
                       same_bytes(frames[i], frames[i - 1]);
    if (reuse) {
      r.color.displayed = out.back().color.displayed;
      r.color.hue_error = out.back().color.hue_error;
    } else {
      try {
        r.color = run_color_stage(frames[i], lumas[i], r.decision.point, mode);
      } catch (const util::InvalidArgument&) {
        throw;  // caller bug, not a runtime fault — see map_frames
      } catch (const std::exception& e) {
        // Color-stage containment: the whole frame degrades to the
        // identity fallback — decision and rendering stay consistent
        // (displaying the untouched raster at the computed β < 1 would
        // dim the frame, which is a visible artifact, not a fallback).
        // The stage is stateless per frame, so nothing needs quarantine.
        util::fault::SuppressScope no_refire;
        const core::HebsResult fb = identity_fallback(lumas[i]);
        r.decision.raw_beta = fb.point.beta;
        r.decision.beta = fb.point.beta;
        r.decision.scene_cut = false;
        r.decision.point = fb.point;
        r.decision.evaluation = fb.evaluation;
        r.color.displayed = frames[i];
        r.color.hue_error = 0.0;
        record_fault(&stream_faults, i, is_io_error(e),
                     fault_message("color render", i, e.what()));
      }
    }
    out.push_back(std::move(r));
  }
  if (faults != nullptr) *faults = std::move(stream_faults);
  return out;
}

}  // namespace hebs::pipeline
