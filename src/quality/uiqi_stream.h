// Row-streamed UIQI over the HVS front end: the evaluator's hot path.
//
// A full-raster evaluation materializes the test raster, both blur
// passes, three integral tables and a q array — seven frame-sized
// rasters written and read back per probe.  Hardware computes such a
// measure in one pass over line buffers, and so does this module.  For
// each input row y, top to bottom:
//
//   1. the row source yields the front-end row (per-level lightness
//      table applied, or the per-pixel front end);
//   2. blur_row_f64 writes it into a ring of 2r+1 horizontally blurred
//      rows, and blur_col_f64 produces blurred row y - r from that ring
//      (border rows are repeated ring pointers; r = 0 skips the blur);
//   3. blurred rows are collected in groups of four, and
//      window_sums_pair_f64 steps the b, b·b and a·b integral tables by
//      one group (four table rows, one per AVX2 lane) into a ring of
//      block+4 rows — window row wy needs only table rows wy and
//      wy + block;
//   4. uiqi_q_row_f64 turns each completed window row of the group into
//      q values against the cached reference moments;
//   5. the q values are added to one serial accumulator in row-major
//      order.
//
// Every step is the same kernel, on the same values, in the same order
// as the full-raster path (hvs_transform, then PairStats and the
// per-window loop of uiqi_from_stats), so the result is bit-identical
// to it on every backend (tests/test_distortion_identity.cpp).  The
// working set is about (2r+1) + 4 + 3·(block+4) rows instead of seven
// frames.  The reference side is built by the same stream, once per
// evaluator.
#pragma once

#include <span>

#include "quality/uiqi.h"
#include "util/pool.h"

namespace hebs::quality {

/// Supplies the rows of a front-end raster in top-to-bottom order.
class RowSource {
 public:
  /// Row y (width values): a pointer into existing storage, or
  /// `scratch` (width values) after filling it.
  virtual const double* row(int y, double* scratch) const = 0;

 protected:
  ~RowSource() = default;
};

/// Reference half of the streamed UIQI: the mean and (clamped) variance
/// of the front-end reference over every stride-1 BxB window — exactly
/// the a-side arithmetic of PairStats::window(), so the q values built
/// on top are bit-identical.
class RefWindowMoments {
 public:
  /// Streams `source` (width x height, front end already applied)
  /// through the blur `taps` (empty: none).  When `raster` is non-null
  /// it receives the blurred reference (width x height values).
  /// Requires block >= 2 and a raster at least one block on each side.
  RefWindowMoments(const RowSource& source, int width, int height,
                   std::span<const double> taps, int block, double* raster);

  int width() const noexcept { return width_; }
  int height() const noexcept { return height_; }
  int block() const noexcept { return block_; }
  int windows_x() const noexcept { return wx_; }

  /// Row `wy` of the per-window means / variances (windows_x entries).
  const double* mean_row(int wy) const noexcept {
    return mean_.data() + static_cast<std::size_t>(wy) * wx_;
  }
  const double* var_row(int wy) const noexcept {
    return var_.data() + static_cast<std::size_t>(wy) * wx_;
  }

 private:
  int width_;
  int height_;
  int block_;
  int wx_;
  hebs::util::PoolVector<double> mean_;
  hebs::util::PoolVector<double> var_;
};

/// Mean UIQI over the window grid of `opts` (block size as `ref`, any
/// stride) between the blurred reference `a` (ref.width() x
/// ref.height()) and the test rows of `test` streamed through `taps`.
double uiqi_streamed(const RefWindowMoments& ref, const double* a,
                     const RowSource& test, std::span<const double> taps,
                     const UiqiOptions& opts);

}  // namespace hebs::quality
