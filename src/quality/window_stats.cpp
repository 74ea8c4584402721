#include "quality/window_stats.h"

#include <algorithm>

#include "kernels/kernels.h"
#include "util/error.h"

namespace hebs::quality {

// All tables here follow the integral-image recurrence
//   table[y+1][x+1] = table[y][x+1] + (v[y][0] + ... + v[y][x])
// with the running row sum accumulated left to right.  The row step is
// the kernel layer's prefix_row_f64 loop or its window_sums_* rows,
// whose contract pins exactly that scalar accumulation order, so every
// table is bit-identical to the pre-kernel implementation on every
// backend.

namespace {

std::size_t table_stride(int width) {
  return static_cast<std::size_t>(width) + 1;
}

std::size_t table_cells(int width, int height) {
  return table_stride(width) * (static_cast<std::size_t>(height) + 1);
}

}  // namespace

IntegralImage::IntegralImage(std::span<const double> values, int width,
                             int height)
    : width_(width), height_(height) {
  HEBS_REQUIRE(width > 0 && height > 0, "integral image needs a raster");
  HEBS_REQUIRE(values.size() ==
                   static_cast<std::size_t>(width) * static_cast<std::size_t>(height),
               "raster size mismatch");
  const std::size_t stride = table_stride(width);
  table_.assign(table_cells(width, height), 0.0);
  for (int y = 0; y < height; ++y) {
    hebs::kernels::prefix_row_f64(
        values.data() + static_cast<std::size_t>(y) * width,
        table_.data() + static_cast<std::size_t>(y) * stride + 1,
        table_.data() + (static_cast<std::size_t>(y) + 1) * stride + 1,
        static_cast<std::size_t>(width));
  }
}

IntegralImage IntegralImage::of_squares(std::span<const double> values,
                                        int width, int height) {
  HEBS_REQUIRE(values.size() == static_cast<std::size_t>(width) *
                                    static_cast<std::size_t>(height),
               "raster size mismatch");
  IntegralImage out(width, height);
  const std::size_t stride = table_stride(width);
  out.table_.assign(table_cells(width, height), 0.0);
  hebs::util::PoolVector<double> scratch(static_cast<std::size_t>(width));
  for (int y = 0; y < height; ++y) {
    const double* row = values.data() + static_cast<std::size_t>(y) * width;
    hebs::kernels::mul_f64(row, row, scratch.data(), scratch.size());
    hebs::kernels::prefix_row_f64(
        scratch.data(),
        out.table_.data() + static_cast<std::size_t>(y) * stride + 1,
        out.table_.data() + (static_cast<std::size_t>(y) + 1) * stride + 1,
        static_cast<std::size_t>(width));
  }
  return out;
}

IntegralImage IntegralImage::of_products(std::span<const double> a,
                                         std::span<const double> b, int width,
                                         int height) {
  HEBS_REQUIRE(a.size() == b.size(), "paired rasters must match");
  HEBS_REQUIRE(a.size() == static_cast<std::size_t>(width) *
                               static_cast<std::size_t>(height),
               "raster size mismatch");
  IntegralImage out(width, height);
  const std::size_t stride = table_stride(width);
  out.table_.assign(table_cells(width, height), 0.0);
  hebs::util::PoolVector<double> scratch(static_cast<std::size_t>(width));
  for (int y = 0; y < height; ++y) {
    hebs::kernels::mul_f64(a.data() + static_cast<std::size_t>(y) * width,
                           b.data() + static_cast<std::size_t>(y) * width,
                           scratch.data(), scratch.size());
    hebs::kernels::prefix_row_f64(
        scratch.data(),
        out.table_.data() + static_cast<std::size_t>(y) * stride + 1,
        out.table_.data() + (static_cast<std::size_t>(y) + 1) * stride + 1,
        static_cast<std::size_t>(width));
  }
  return out;
}

double IntegralImage::rect_sum(int x0, int y0, int x1, int y1) const noexcept {
  const std::size_t stride = static_cast<std::size_t>(width_) + 1;
  const auto at = [this, stride](int x, int y) {
    return table_[static_cast<std::size_t>(y) * stride + x];
  };
  return at(x1 + 1, y1 + 1) - at(x0, y1 + 1) - at(x1 + 1, y0) + at(x0, y0);
}

PairStats::PairStats(std::span<const double> a, std::span<const double> b,
                     int width, int height)
    : sum_a_(a, width, height),
      sum_aa_(IntegralImage::of_squares(a, width, height)),
      sum_b_(width, height),
      sum_bb_(width, height),
      sum_ab_(width, height) {
  HEBS_REQUIRE(a.size() == b.size(), "paired rasters must match");
  // The b, b*b and a*b tables in one fused sweep per group of rows.
  const std::size_t stride = table_stride(width);
  auto& table_b = sum_b_.table_;
  auto& table_bb = sum_bb_.table_;
  auto& table_ab = sum_ab_.table_;
  table_b.assign(table_cells(width, height), 0.0);
  table_bb.assign(table_cells(width, height), 0.0);
  table_ab.assign(table_cells(width, height), 0.0);
  const auto& kernels = hebs::kernels::active();
  const auto row_at = [width](std::span<const double> v, int y) {
    return v.data() + static_cast<std::size_t>(y) * width;
  };
  constexpr int kGroup = hebs::kernels::kWindowSumRows;
  for (int y0 = 0; y0 < height; y0 += kGroup) {
    const int count = std::min(kGroup, height - y0);
    const double* a_rows[kGroup];
    const double* b_rows[kGroup];
    double* out_b[kGroup];
    double* out_bb[kGroup];
    double* out_ab[kGroup];
    for (int j = 0; j < count; ++j) {
      a_rows[j] = row_at(a, y0 + j);
      b_rows[j] = row_at(b, y0 + j);
      const std::size_t out = static_cast<std::size_t>(y0 + j + 1) * stride + 1;
      out_b[j] = table_b.data() + out;
      out_bb[j] = table_bb.data() + out;
      out_ab[j] = table_ab.data() + out;
    }
    const std::size_t above = static_cast<std::size_t>(y0) * stride + 1;
    kernels.window_sums_pair_f64(a_rows, b_rows, count,
                                 static_cast<std::size_t>(width),
                                 table_b.data() + above,
                                 table_bb.data() + above,
                                 table_ab.data() + above, out_b, out_bb,
                                 out_ab);
  }
}

WindowMoments PairStats::window(int x, int y, int block) const noexcept {
  const int x1 = x + block - 1;
  const int y1 = y + block - 1;
  const double n = static_cast<double>(block) * block;
  WindowMoments m;
  m.mean_a = sum_a_.rect_sum(x, y, x1, y1) / n;
  m.mean_b = sum_b_.rect_sum(x, y, x1, y1) / n;
  m.var_a = sum_aa_.rect_sum(x, y, x1, y1) / n - m.mean_a * m.mean_a;
  m.var_b = sum_bb_.rect_sum(x, y, x1, y1) / n - m.mean_b * m.mean_b;
  m.cov_ab = sum_ab_.rect_sum(x, y, x1, y1) / n - m.mean_a * m.mean_b;
  // Clamp tiny negative variances caused by floating-point cancellation.
  if (m.var_a < 0.0) m.var_a = 0.0;
  if (m.var_b < 0.0) m.var_b = 0.0;
  return m;
}

}  // namespace hebs::quality
