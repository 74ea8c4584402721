#include "quality/uiqi_stream.h"

#include <algorithm>

#include "kernels/kernels.h"
#include "util/error.h"

namespace hebs::quality {

namespace {

using hebs::kernels::kWindowSumRows;

/// Streams the rows of `source` through the separable blur `taps` and
/// calls sink(y0, count, rows) for consecutive groups of blurred rows
/// y0 .. y0+count-1 (count <= kWindowSumRows, every group full but the
/// last), top to bottom; rows[j] is blurred row y0 + j.  With a non-null
/// `raster` (width x height) the blurred rows are written there and stay
/// valid; otherwise they live in a group of line buffers.  Input row j
/// lands in ring slot j % (2r+1) after its horizontal pass; output row y
/// needs input rows y-r .. y+r (border-clamped), all of which are still
/// in the ring once row min(y+r, height-1) is in.
template <typename Sink>
void for_each_blurred_group(const hebs::kernels::KernelSet& kernels,
                            const RowSource& source, int width, int height,
                            std::span<const double> taps, double* raster,
                            Sink&& sink) {
  const auto w = static_cast<std::size_t>(width);
  hebs::util::PoolVector<double> lines(raster == nullptr ? kWindowSumRows * w
                                                         : 0);
  const auto out_row = [&](int y) {
    return raster == nullptr
               ? lines.data() + static_cast<std::size_t>(y % kWindowSumRows) * w
               : raster + static_cast<std::size_t>(y) * w;
  };
  const double* group[kWindowSumRows];
  const auto emit = [&](int y, const double* row) {
    group[y % kWindowSumRows] = row;
    if (y % kWindowSumRows == kWindowSumRows - 1 || y == height - 1) {
      const int y0 = y - y % kWindowSumRows;
      sink(y0, y - y0 + 1, static_cast<const double* const*>(group));
    }
  };
  if (taps.empty()) {
    for (int y = 0; y < height; ++y) {
      const double* row = source.row(y, out_row(y));
      if (raster != nullptr && row != out_row(y)) {
        std::copy(row, row + w, out_row(y));
      }
      emit(y, row);
    }
    return;
  }
  const int radius = static_cast<int>(taps.size() / 2);
  const int span = 2 * radius + 1;
  hebs::util::PoolVector<double> ring(static_cast<std::size_t>(span) * w);
  hebs::util::PoolVector<double> in(w);
  hebs::util::PoolVector<const double*> rows(static_cast<std::size_t>(span));
  const auto slot = [&](int j) {
    return ring.data() + static_cast<std::size_t>(j % span) * w;
  };
  int next_in = 0;
  for (int y = 0; y < height; ++y) {
    for (const int last = std::min(y + radius, height - 1); next_in <= last;
         ++next_in) {
      kernels.blur_row_f64(source.row(next_in, in.data()), slot(next_in),
                           width, taps.data(), radius);
    }
    for (int k = 0; k < span; ++k) {
      rows[static_cast<std::size_t>(k)] =
          slot(std::clamp(y + k - radius, 0, height - 1));
    }
    double* out = out_row(y);
    kernels.blur_col_f64(rows.data(), width, taps.data(), radius, out);
    emit(y, out);
  }
}

/// A ring of block+kWindowSumRows integral-table rows for `tables`
/// tables of width+1 entries (a zero left column, like IntegralImage's
/// layout).  Table row t sits in slot t % (block+kWindowSumRows); row 0
/// is all zeros.  A group of blurred rows y0 .. y0+3 writes table rows
/// y0+1 .. y0+4 and its window rows read back to row y0+1-block, so the
/// ring holds every row one group touches.
class IntegralRing {
 public:
  IntegralRing(int width, int block, int tables)
      : stride_(static_cast<std::size_t>(width) + 1),
        slots_(block + kWindowSumRows),
        cells_(stride_ * static_cast<std::size_t>(slots_)),
        data_(cells_ * static_cast<std::size_t>(tables), 0.0) {}

  /// Row t of table `table`, column 0 (the zero column).
  double* row(int table, int t) noexcept {
    return data_.data() + static_cast<std::size_t>(table) * cells_ +
           static_cast<std::size_t>(t % slots_) * stride_;
  }

  /// Column 1 of table rows y0+1 .. y0+count (a window-sum group's
  /// outputs) into out[0..count).
  void outputs(int table, int y0, int count, double** out) noexcept {
    for (int j = 0; j < count; ++j) out[j] = row(table, y0 + 1 + j) + 1;
  }

 private:
  std::size_t stride_;
  int slots_;
  std::size_t cells_;
  hebs::util::PoolVector<double> data_;
};

}  // namespace

RefWindowMoments::RefWindowMoments(const RowSource& source, int width,
                                   int height, std::span<const double> taps,
                                   int block, double* raster)
    : width_(width),
      height_(height),
      block_(block),
      wx_(width - block + 1) {
  HEBS_REQUIRE(block >= 2 && width >= block && height >= block,
               "image smaller than the moment window");
  const int wy = height - block + 1;
  mean_.resize(static_cast<std::size_t>(wx_) * static_cast<std::size_t>(wy));
  var_.resize(mean_.size());
  const auto& kernels = hebs::kernels::active();
  IntegralRing sums(width, block, 2);
  const double n = static_cast<double>(block) * block;
  // rect / n as rect * (1/n) where that is exact (the kernel layer's
  // exact-reciprocal rule): the same doubles, without the divisions.
  const bool exact = hebs::kernels::exact_reciprocal(n);
  const double inv_n = 1.0 / n;
  const auto per_px = [exact, inv_n, n](double rect) {
    return exact ? rect * inv_n : rect / n;
  };
  double* out_s[kWindowSumRows];
  double* out_ss[kWindowSumRows];
  for_each_blurred_group(
      kernels, source, width, height, taps, raster,
      [&](int y0, int count, const double* const* a) {
        sums.outputs(0, y0, count, out_s);
        sums.outputs(1, y0, count, out_ss);
        kernels.window_sums_single_f64(a, count,
                                       static_cast<std::size_t>(width),
                                       sums.row(0, y0) + 1,
                                       sums.row(1, y0) + 1, out_s, out_ss);
        for (int y = std::max(y0, block - 1); y < y0 + count; ++y) {
          const int wrow = y + 1 - block;
          const double* s_top = sums.row(0, wrow);
          const double* s_bot = sums.row(0, y + 1);
          const double* ss_top = sums.row(1, wrow);
          const double* ss_bot = sums.row(1, y + 1);
          double* mrow = mean_.data() + static_cast<std::size_t>(wrow) * wx_;
          double* vrow = var_.data() + static_cast<std::size_t>(wrow) * wx_;
          for (int x = 0; x < wx_; ++x) {
            // IntegralImage::rect_sum's term order, then
            // PairStats::window()'s a-side moments, clamp included.
            const double mean_a = per_px(s_bot[x + block] - s_bot[x] -
                                         s_top[x + block] + s_top[x]);
            double var_a = per_px(ss_bot[x + block] - ss_bot[x] -
                                  ss_top[x + block] + ss_top[x]) -
                           mean_a * mean_a;
            if (var_a < 0.0) var_a = 0.0;
            mrow[x] = mean_a;
            vrow[x] = var_a;
          }
        }
      });
}

double uiqi_streamed(const RefWindowMoments& ref, const double* a,
                     const RowSource& test, std::span<const double> taps,
                     const UiqiOptions& opts) {
  HEBS_REQUIRE(opts.block_size == ref.block() && opts.stride >= 1,
               "UIQI options do not match the reference moments");
  const int width = ref.width();
  const int block = ref.block();
  const int wx = ref.windows_x();
  const auto& kernels = hebs::kernels::active();
  IntegralRing sums(width, block, 3);  // b, b·b, a·b
  hebs::util::PoolVector<double> q(static_cast<std::size_t>(wx));
  const double n = static_cast<double>(block) * block;
  double acc = 0.0;
  std::size_t windows = 0;
  const double* a_rows[kWindowSumRows];
  double* out_b[kWindowSumRows];
  double* out_bb[kWindowSumRows];
  double* out_ab[kWindowSumRows];
  for_each_blurred_group(
      kernels, test, width, ref.height(), taps, nullptr,
      [&](int y0, int count, const double* const* b) {
        for (int j = 0; j < count; ++j) {
          a_rows[j] = a + static_cast<std::size_t>(y0 + j) * width;
        }
        sums.outputs(0, y0, count, out_b);
        sums.outputs(1, y0, count, out_bb);
        sums.outputs(2, y0, count, out_ab);
        kernels.window_sums_pair_f64(
            a_rows, b, count, static_cast<std::size_t>(width),
            sums.row(0, y0) + 1, sums.row(1, y0) + 1, sums.row(2, y0) + 1,
            out_b, out_bb, out_ab);
        for (int y = std::max(y0, block - 1); y < y0 + count; ++y) {
          const int wrow = y + 1 - block;
          if (wrow % opts.stride != 0) continue;
          kernels.uiqi_q_row_f64(
              ref.mean_row(wrow), ref.var_row(wrow), sums.row(0, wrow),
              sums.row(0, y + 1), sums.row(1, wrow), sums.row(1, y + 1),
              sums.row(2, wrow), sums.row(2, y + 1),
              static_cast<std::size_t>(wx), block, n, q.data());
          // The one serial accumulation, in the row-major window order of
          // uiqi_from_stats' loop.
          for (int x = 0; x < wx; x += opts.stride) {
            acc += q[static_cast<std::size_t>(x)];
            ++windows;
          }
        }
      });
  return acc / static_cast<double>(windows);
}

}  // namespace hebs::quality
