// Shared per-frame state for the staged HEBS pipeline.
//
// A FrameContext binds one input frame to one set of pipeline options
// and one power model, and memoizes every frame-derived intermediate the
// stages need: the image histogram, the reference luminance raster and
// its distortion-evaluator caches, the reference power draw, per-target
// GHE curves, and complete per-range pipeline results.  hebs_exact's
// bisection probes a dozen ranges on the same frame; with a context each
// probe pays only the truly range-dependent work (GHE/PLC on 256-entry
// curves plus the test-side half of the distortion metric) instead of
// recomputing the frame-side products from scratch.
//
// Every memoized value is the output of exactly the computation the
// serial unbatched path performs, so cached and uncached flows are
// bit-identical — the invariant the engine's batch/stream modes (and
// their tests) rely on.
//
// A context is not thread-safe; the engine gives each worker its own and
// rebind()s it between frames (per-worker context reuse).  The one
// exception is the speculative probe lanes of the engine's single-frame
// slot, which run the memo-free probe entry points below concurrently
// with each other (never with a memo write).
#pragma once

#include <array>
#include <map>
#include <optional>
#include <span>
#include <utility>

#include "core/hebs.h"
#include "histogram/histogram.h"
#include "image/image.h"
#include "power/lcd_power.h"
#include "quality/distortion.h"
#include "transform/pwl.h"
#include "util/pool.h"

namespace hebs::pipeline {

class ProbeLanes;

/// One memo-free range probe (FrameContext::probe_range): the effective
/// target, its exact GHE curve and the lean pipeline result there —
/// everything the memo insert needs, so adopting a probe leaves the
/// memos exactly as running it would have.  Lives in the context's
/// speculation slots, whose storage persists across frames.
struct RangeProbe {
  /// Computed and waiting for the serial walk (a throwing probe, an
  /// adopted one and an unused slot are all not pending).
  bool pending = false;
  core::GheTarget target;
  hebs::transform::PwlCurve ghe;
  core::HebsResult result;
};

class FrameContext {
 public:
  /// Unbound context; rebind() must be called before use.
  FrameContext(core::HebsOptions opts, hebs::power::LcdSubsystemPower model);

  FrameContext(const hebs::image::GrayImage& image, core::HebsOptions opts,
               hebs::power::LcdSubsystemPower model);

  /// Deep-pixel binding: the context runs the same stages on the
  /// frame's own level lattice (image.levels() bins).
  FrameContext(const hebs::image::GrayImage16& image, core::HebsOptions opts,
               hebs::power::LcdSubsystemPower model);

  // Not copyable: by_range_ holds pointers into by_target_'s nodes, so a
  // copy would alias (and later dangle into) the source's memo.  Moves
  // are fine — map nodes are stable across moves.
  FrameContext(const FrameContext&) = delete;
  FrameContext& operator=(const FrameContext&) = delete;
  FrameContext(FrameContext&&) = default;
  FrameContext& operator=(FrameContext&&) = default;

  /// Points the context at a new frame and clears every frame-derived
  /// cache.  The image is NOT copied; the caller keeps it alive for the
  /// lifetime of the binding.  When the calling thread has a BufferPool
  /// installed, the dropped caches recycle through it instead of hitting
  /// the heap — rebind() recycles, it does not free.
  void rebind(const hebs::image::GrayImage& image);

  /// Deep-pixel rebind (same contract; the context's level count
  /// becomes image.levels()).
  void rebind(const hebs::image::GrayImage16& image);

  /// Seeds the exact-histogram cache after rebind().  `hist` must equal
  /// Histogram::from_image(image) — the temporal fast path maintains it
  /// incrementally from the previous frame's histogram (integer counts,
  /// so the incremental update is exact) and hands it over here to skip
  /// the full recount.
  void set_exact_histogram(hebs::histogram::Histogram hist);

  bool bound() const noexcept {
    return image_ != nullptr || image16_ != nullptr;
  }
  /// True when the bound frame is a deep-pixel (GrayImage16) raster.
  bool bound16() const noexcept { return image16_ != nullptr; }
  const hebs::image::GrayImage& image() const;
  const hebs::image::GrayImage16& image16() const;

  /// Level count of the bound frame (256 for 8-bit bindings) and its
  /// largest representable level — the depth parameter every stage
  /// reads instead of the baked-in kLevels/kMaxPixel.
  int levels() const noexcept { return levels_; }
  int max_pixel() const noexcept { return levels_ - 1; }

  const core::HebsOptions& options() const noexcept { return opts_; }
  const hebs::power::LcdSubsystemPower& power_model() const noexcept {
    return model_;
  }

  /// The exact image histogram every stage reads (built on first use,
  /// or seeded with set_exact_histogram).
  const hebs::histogram::Histogram& histogram() const;

  /// The same histogram under its older name, kept for its one
  /// remaining caller, the benchmark's layer probes
  /// (hebsbench/src/layers.cpp); the library calls histogram().
  const hebs::histogram::Histogram& exact_histogram() const {
    return histogram();
  }

  /// Distortion evaluator with the reference-side metric caches built.
  const hebs::quality::DistortionEvaluator& evaluator() const;

  /// Power draw of the unmodified frame at full backlight.
  const hebs::power::PowerBreakdown& reference_power() const;

  /// Exact GHE transformation for a target range (memoized per target).
  const hebs::transform::PwlCurve& ghe(const core::GheTarget& target) const;

  /// Full five-stage pipeline result at a fixed dynamic range, memoized
  /// per range (and per effective target, so ranges that clamp to the
  /// same target share one computation).
  const core::HebsResult& at_range(int range) const;

  /// The memoized result without materializing its transformed raster —
  /// for callers that only read curves/scalars (e.g. the video
  /// controller re-deriving Λ for an applied β).
  const core::HebsResult& at_range_lean(int range) const;

  /// Measured distortion at a range — what a search probe needs.  Uses
  /// the same memo as at_range but never materializes the probe's 8-bit
  /// transformed raster, so bisecting over many ranges stores only
  /// curves and scalars per target, not a frame-sized image each.
  double distortion_at_range(int range) const;

  /// at_range_lean that writes no memo: the memoized entry when the
  /// range (or its effective target) was already run, otherwise a
  /// probe_range run into `scratch`, whose result is returned.  The
  /// same values and hit/miss counts as at_range_lean.  Const and safe
  /// to run on several threads at once, on distinct scratches, after
  /// warm_probe_caches(), provided no memo-writing call runs meanwhile
  /// — the stream re-derives a duplicate run's frames concurrently on
  /// their source's context this way (DESIGN.md §9).
  const core::HebsResult& range_lean_shared(int range,
                                            RangeProbe& scratch) const;

  /// distortion_at_range that, on a memo miss, adopts the pending entry
  /// of `speculated` with the range's target instead of running the
  /// pipeline (the entry stops pending).  Counters and memo contents
  /// come out exactly as the plain call's.
  double distortion_at_range(int range,
                             std::span<RangeProbe> speculated) const;

  /// True when at_range(range) is answered by the memo (the range or
  /// its effective target was already run).
  bool range_memoized(int range) const;

  // --- Speculative probes (DESIGN.md §11) ------------------------------
  //
  // The engine's persistent single-frame slot lends the context idle
  // workers; the search then evaluates the probes its serial walk may
  // ask for next concurrently, through the memo-free entry points below
  // (probe_range here, evaluate_lean for β).  Only the calling thread
  // writes memos, and only when the walk asks for a result.

  /// The lanes lent to this context (null: the search runs serially).
  ProbeLanes* probe_lanes() const noexcept { return lanes_; }
  void set_probe_lanes(ProbeLanes* lanes) noexcept { lanes_ = lanes; }

  /// Builds every frame cache a memo-free probe reads (histogram,
  /// evaluator, reference power) — call before the first concurrent
  /// probe, so no lane ever runs a lazy build.
  void warm_probe_caches() const;

  /// The lean pipeline result at `range` computed without reading or
  /// writing any memo, copied into `out` (out.pending set on success;
  /// the copy reuses out's storage, so the probe's own allocations are
  /// all released when it returns).  Const and safe to run on several
  /// threads at once, on distinct `out`s, after warm_probe_caches(),
  /// provided no memo-writing call runs meanwhile.
  void probe_range(int range, RangeProbe& out) const;

  /// The ring of range results a speculating search keeps (kept across
  /// frames for its storage; only the search that fills an entry reads
  /// it, and its `pending` flags say which entries are live).
  static constexpr std::size_t kSpeculationSlots = 12;
  std::span<RangeProbe> speculation_slots() const { return spec_slots_; }

  /// Measures an operating point on this frame, reusing the cached
  /// reference-side work.  Bit-identical to
  /// core::evaluate_operating_point on the same inputs.
  core::EvaluatedPoint evaluate(const core::OperatingPoint& point) const;

  /// Like evaluate(), but leaves evaluation.transformed empty — the
  /// memoized stage pipeline uses this for probes and materializes the
  /// raster lazily (materialize_transformed) on first full access.
  core::EvaluatedPoint evaluate_lean(const core::OperatingPoint& point) const;

  /// Fills result.evaluation.transformed (ψ(F) quantized to 8 bits) if
  /// it is still empty.  Deterministic from result.point, so a lazily
  /// materialized raster is byte-identical to an eagerly computed one.
  void materialize_transformed(core::HebsResult& result) const;

  /// Same for a bare evaluation (filled from evaluation.point).
  void materialize_transformed(core::EvaluatedPoint& evaluation) const;

  // --- Coarse (proxy) probes -------------------------------------------
  //
  // Guidance values for the coarse-to-fine search (DESIGN.md §11),
  // measured on a decimated proxy of the frame, so they are cheap but
  // approximate.  They steer WHERE the exact search probes and never
  // feed a result — bit-identity of the search output does not depend
  // on them.  nullopt when the frame is too small for a usable proxy
  // (the search then skips straight to its exact fallback).

  /// Approximate pipeline distortion at a dynamic range: exact target
  /// and Φ (shared memos), Λ≈Φ (PLC skipped), β from the target, then
  /// the proxy measurement.  Memoized per effective target.
  std::optional<double> approx_distortion_at_range(int range) const;

 private:
  /// Shared body of evaluate/evaluate_lean: measures the point given
  /// its already-sampled per-level displayed luminance.
  core::EvaluatedPoint evaluate_levels(
      const core::OperatingPoint& point,
      const hebs::transform::FloatLut& lum) const;

  /// Decimated proxy of the bound frame plus its own distortion
  /// evaluator (reference caches on the proxy), built lazily on the
  /// first coarse probe.
  struct ApproxState {
    bool usable = false;
    hebs::image::GrayImage proxy;
    hebs::image::GrayImage16 proxy16;  ///< used for deep-pixel bindings
    std::optional<hebs::quality::DistortionEvaluator> evaluator;
  };
  const ApproxState& approx() const;

  /// Clears every frame-derived cache (shared by both rebind depths).
  void clear_caches();

  const hebs::image::GrayImage* image_ = nullptr;
  const hebs::image::GrayImage16* image16_ = nullptr;
  int levels_ = hebs::image::kLevels;
  core::HebsOptions opts_;
  hebs::power::LcdSubsystemPower model_;

  ProbeLanes* lanes_ = nullptr;
  mutable std::array<RangeProbe, kSpeculationSlots> spec_slots_;
  mutable std::optional<hebs::histogram::Histogram> hist_;
  mutable std::optional<hebs::quality::DistortionEvaluator> evaluator_;
  mutable std::optional<hebs::power::PowerBreakdown> reference_power_;
  // Pool-backed maps: rebind()'s clear() returns the nodes to the
  // worker's BufferPool and the next frame's probes reacquire them.
  mutable hebs::util::PoolMap<std::pair<int, int>, hebs::transform::PwlCurve>
      ghe_;
  mutable hebs::util::PoolMap<std::pair<int, int>, core::HebsResult>
      by_target_;
  mutable hebs::util::PoolMap<int, core::HebsResult*> by_range_;
  mutable std::optional<ApproxState> approx_;
  mutable hebs::util::PoolMap<std::pair<int, int>, double> approx_by_target_;
};

}  // namespace hebs::pipeline
