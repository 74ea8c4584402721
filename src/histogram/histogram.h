// Image histogram and cumulative-distribution machinery.
//
// The paper's GHE formulation (Eqs. 4-7) works on the marginal histogram
// h(x) and the cumulative histogram H(x) of pixel values.  This class
// owns the per-bin counts and provides the statistics every other
// module needs (CDF lookups, percentiles, dynamic range, entropy).
//
// Depth model: the bin count is a runtime property (bins()) set by the
// frame the histogram was built from — 256 for the paper's 8-bit path,
// 1024/65536 for deep-pixel frames.  Every statistic iterates bins()
// entries; at 256 bins the arithmetic is exactly what the old
// fixed-array implementation produced, which is what keeps the u8
// pipeline bit-identical.  kBins remains the 8-bit constant for the
// u8-only callers (LHE, fixed-point GHE LUT).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "image/image.h"
#include "util/pool.h"

namespace hebs::histogram {

/// An N-bin histogram of pixel values (N = 256 unless built from a
/// deep-pixel frame).
class Histogram {
 public:
  /// The 8-bit bin count; the default for histograms not built from a
  /// deep-pixel image.
  static constexpr int kBins = hebs::image::kLevels;

  /// All-zero 256-bin histogram.
  Histogram() : Histogram(kBins) {}

  /// All-zero histogram of `bins` bins (bins in [2, 65536]).
  explicit Histogram(int bins);

  /// Number of bins (== the level count of the source frame).
  int bins() const noexcept { return bins_; }

  /// Builds the histogram of an 8-bit grayscale image (256 bins).
  static Histogram from_image(const hebs::image::GrayImage& img);

  /// Builds the histogram of a deep-pixel image (img.levels() bins).
  static Histogram from_image(const hebs::image::GrayImage16& img);

  /// Incremental update for temporally coherent frames: refreshes this
  /// histogram — which must be the histogram of `prev` — into the
  /// histogram of `cur` by walking both rasters and touching only the
  /// differing pixels (word-wise compares skip equal runs).  Counts are
  /// integers, so the result is exactly from_image(cur).  Returns true
  /// on success with `*changed_out` (nullable) set to the number of
  /// differing pixels (0 ⇒ the frames are byte-identical); returns
  /// false, leaving the histogram untouched, when more than
  /// `max_changed` pixels differ and a full recount is cheaper.  8-bit
  /// only: video, the one delta-refresh user, runs on 8-bit sessions.
  bool refresh_from_delta(const hebs::image::GrayImage& prev,
                          const hebs::image::GrayImage& cur,
                          std::size_t max_changed,
                          std::size_t* changed_out = nullptr);

  /// Builds from explicit per-bin counts (one bin per entry; size must
  /// be in [2, 65536]).
  static Histogram from_counts(std::span<const std::uint64_t> counts);

  /// Count in one bin; `level` must be in [0, bins()).
  std::uint64_t count(int level) const;

  /// Adds `n` samples at `level`.
  void add(int level, std::uint64_t n = 1);

  /// Total number of samples (N in the paper).
  std::uint64_t total() const noexcept { return total_; }

  bool empty() const noexcept { return total_ == 0; }

  /// Marginal probability of a level: h(x)/N. Zero for an empty histogram.
  double pdf(int level) const;

  /// Normalized cumulative distribution H(x)/N over levels <= `level`.
  /// Zero for an empty histogram.
  double cdf(int level) const;

  /// Raw cumulative counts, one entry per level.  Pool-backed so the
  /// per-target GHE solve (which calls this every probe) recycles the
  /// worker's BufferPool instead of the heap.
  hebs::util::PoolVector<std::uint64_t> cumulative_counts() const;

  /// Mean pixel level.
  double mean() const;

  /// Population variance of pixel levels.
  double variance() const;

  /// Shannon entropy of the level distribution, in bits.
  double entropy_bits() const;

  /// Lowest populated level, or -1 when empty.
  int min_level() const noexcept;

  /// Highest populated level, or -1 when empty.
  int max_level() const noexcept;

  /// max_level - min_level (0 for empty or single-level histograms).
  int dynamic_range() const noexcept;

  /// Smallest level whose CDF reaches p (p in [0,1]). Requires non-empty.
  int percentile_level(double p) const;

  /// Underlying counts.
  std::span<const std::uint64_t> counts() const noexcept { return counts_; }

  bool operator==(const Histogram& other) const = default;

 private:
  int bins_ = kBins;
  hebs::util::PoolVector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace hebs::histogram
