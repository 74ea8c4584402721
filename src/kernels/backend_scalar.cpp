// The scalar backend: the reference KernelSet every other backend is
// measured and parity-tested against.  Always compiled, always
// supported.
#include "kernels/kernels.h"

#include <cmath>

#include "kernels/kernels_ref.h"

namespace hebs::kernels {

// The reference rows' one definition each (kernels_ref.h says why they
// are not inline).
namespace ref {

void histogram_u8(const std::uint8_t* src, std::size_t n,
                  std::uint64_t* counts) {
  for (std::size_t i = 0; i < n; ++i) ++counts[src[i]];
}

void lut_apply_u8(const std::uint8_t* src, std::size_t n,
                  const std::uint8_t* lut, std::uint8_t* dst) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = lut[src[i]];
}

void lut_apply_rgb8(const std::uint8_t* rgb, std::size_t n_pixels,
                    const std::uint8_t* lut, std::uint8_t* dst) {
  lut_apply_u8(rgb, 3 * n_pixels, lut, dst);
}

void luma_bt601_rgb8(const std::uint8_t* rgb, std::size_t n,
                     std::uint8_t* dst) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = luma_bt601_one(rgb[3 * i + 0], rgb[3 * i + 1], rgb[3 * i + 2]);
  }
}

std::uint64_t sum_u8(const std::uint8_t* src, std::size_t n) {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) acc += src[i];
  return acc;
}

void lut_apply_u16(const std::uint16_t* src, std::size_t n,
                   const std::uint16_t* lut, std::uint16_t* dst) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = lut[src[i]];
}

std::uint64_t sum_u16(const std::uint16_t* src, std::size_t n) {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) acc += src[i];
  return acc;
}

void blur_row_f64(const double* src, double* dst, int w,
                  const double* taps, int radius) {
  // Interior pixels need no clamping; the split keeps the hot loop
  // branch-free (taps accumulate in the same order in all three
  // regions, so the values are identical either way).
  const int x_lo = std::min(radius, w);
  const int x_hi = std::max(x_lo, w - radius);
  for (int x = 0; x < x_lo; ++x) dst[x] = blur_row_one(src, w, x, taps, radius);
  for (int x = x_lo; x < x_hi; ++x) {
    double acc = 0.0;
    const double* in = src + x - radius;
    for (int k = 0; k <= 2 * radius; ++k) acc += taps[k] * in[k];
    dst[x] = acc;
  }
  for (int x = x_hi; x < w; ++x) dst[x] = blur_row_one(src, w, x, taps, radius);
}

void blur_col_f64(const double* const* rows, int w, const double* taps,
                  int radius, double* out_row) {
  for (int x = 0; x < w; ++x) out_row[x] = blur_col_one(rows, x, taps, radius);
}

void window_sums_single_f64(const double* const* v, int rows,
                            std::size_t n, const double* above_s,
                            const double* above_ss,
                            double* const* out_s,
                            double* const* out_ss) {
  for (int r = 0; r < rows; ++r) {
    window_sums_single_span(v[r], 0, n, 0.0, 0.0, above_s, above_ss,
                            out_s[r], out_ss[r]);
    above_s = out_s[r];
    above_ss = out_ss[r];
  }
}

void window_sums_pair_f64(const double* const* a,
                          const double* const* b, int rows,
                          std::size_t n, const double* above_b,
                          const double* above_bb,
                          const double* above_ab, double* const* out_b,
                          double* const* out_bb,
                          double* const* out_ab) {
  for (int r = 0; r < rows; ++r) {
    window_sums_pair_span(a[r], b[r], 0, n, 0.0, 0.0, 0.0, above_b, above_bb,
                          above_ab, out_b[r], out_bb[r], out_ab[r]);
    above_b = out_b[r];
    above_bb = out_bb[r];
    above_ab = out_ab[r];
  }
}

void uiqi_q_row_f64(const double* mean_a, const double* var_a,
                    const double* b_top, const double* b_bot,
                    const double* bb_top, const double* bb_bot,
                    const double* ab_top, const double* ab_bot,
                    std::size_t n_win, int block, double n_px,
                    double* q_out) {
  const auto b = static_cast<std::size_t>(block);
  for (std::size_t x = 0; x < n_win; ++x) {
    // Same term order as IntegralImage::rect_sum.
    const double rect_b = b_bot[x + b] - b_bot[x] - b_top[x + b] + b_top[x];
    const double rect_bb =
        bb_bot[x + b] - bb_bot[x] - bb_top[x + b] + bb_top[x];
    const double rect_ab =
        ab_bot[x + b] - ab_bot[x] - ab_top[x + b] + ab_top[x];
    q_out[x] = uiqi_q_one(rect_b, rect_bb, rect_ab, mean_a[x], var_a[x], n_px);
  }
}

double plc_scan_f64(const PlcScanArgs* args, std::size_t* out_j) {
  const PlcScanArgs& a = *args;
  // Seed the scan (usually near the optimum, so the bound below is
  // tight from the start).  The selection rule — strictly smaller
  // value, or equal value at a smaller j — makes the result independent
  // of the seed: it is always the lowest-j argmin, exactly what a plain
  // ascending scan with strict `<` produces.
  std::size_t row_parent = a.j_seed;
  double row_best = a.prev[row_parent] + plc_chord_err(a, row_parent);
  for (std::size_t j = a.j_begin; j < a.i; ++j) {
    // candidate = prev[j] + chord(j, i) >= prev[j]: when prev[j]
    // already loses, skip the chord evaluation (and its division).
    // Equality can win only through a zero-error chord at j <
    // row_parent (the tie rule), so j >= row_parent is prunable at
    // equality too.
    if (a.prev[j] > row_best ||
        (a.prev[j] == row_best && j >= row_parent)) {
      continue;
    }
    const double candidate = a.prev[j] + plc_chord_err(a, j);
    if (candidate < row_best ||
        (candidate == row_best && j < row_parent)) {
      row_best = candidate;
      row_parent = j;
    }
  }
  *out_j = row_parent;
  return row_best;
}

}  // namespace ref

const KernelSet* kernelset_scalar() {
  static const KernelSet set = {
      "scalar",
      "portable reference loops (the bit-exactness baseline)",
      &ref::histogram_u8,
      &ref::lut_apply_u8,
      &ref::lut_apply_rgb8,
      &ref::luma_bt601_rgb8,
      &ref::sum_u8,
      &ref::lut_apply_u16,
      &ref::sum_u16,
      &ref::blur_row_f64,
      &ref::blur_col_f64,
      &ref::window_sums_single_f64,
      &ref::window_sums_pair_f64,
      &ref::uiqi_q_row_f64,
      &ref::plc_scan_f64,
  };
  return &set;
}

void histogram_u16(const std::uint16_t* src, std::size_t n,
                   std::uint64_t* counts) {
  for (std::size_t i = 0; i < n; ++i) ++counts[src[i]];
}

void lut_apply_f64(const std::uint8_t* src, std::size_t n, const double* lut,
                   double* dst) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = lut[src[i]];
}

void mul_f64(const double* a, const double* b, double* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] * b[i];
}

void saxpy_f64(double a, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = y[i] + a * x[i];
}

double sum_f64(const double* v, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += v[i];
  return acc;
}

void prefix_row_f64(const double* v, const double* above, double* out,
                    std::size_t n) {
  double row = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    row += v[i];
    out[i] = above[i] + row;
  }
}

bool exact_reciprocal(double n) {
  int e = 0;
  return std::isfinite(n) && std::frexp(n, &e) == 0.5 && e > -1000 &&
         e < 1000;
}

}  // namespace hebs::kernels
