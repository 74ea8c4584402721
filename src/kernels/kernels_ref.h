// Scalar reference implementations of every kernel.
//
// These loops are the semantic definition of the subsystem: every SIMD
// backend must reproduce their output bit-for-bit (see kernels.h for
// the contract).  They are also reused by the vector backends for
// border and tail lanes, so a backend never re-implements the scalar
// arithmetic twice.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "kernels/kernels.h"

namespace hebs::kernels::ref {

inline void histogram_u8(const std::uint8_t* src, std::size_t n,
                         std::uint64_t* counts) {
  for (std::size_t i = 0; i < n; ++i) ++counts[src[i]];
}

inline void lut_apply_u8(const std::uint8_t* src, std::size_t n,
                         const std::uint8_t* lut, std::uint8_t* dst) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = lut[src[i]];
}

inline void lut_apply_rgb8(const std::uint8_t* rgb, std::size_t n_pixels,
                           const std::uint8_t* lut, std::uint8_t* dst) {
  lut_apply_u8(rgb, 3 * n_pixels, lut, dst);
}

/// Same arithmetic as image::RgbImage::to_luma has always used:
/// double products summed left to right, round-half-away, clamp.
inline std::uint8_t luma_bt601_one(std::uint8_t r, std::uint8_t g,
                                   std::uint8_t b) {
  const double luma = 0.299 * r + 0.587 * g + 0.114 * b;
  const double rounded = std::round(luma);
  const double clamped = rounded < 0.0 ? 0.0 : (rounded > 255.0 ? 255.0
                                                                : rounded);
  return static_cast<std::uint8_t>(clamped);
}

inline void luma_bt601_rgb8(const std::uint8_t* rgb, std::size_t n,
                            std::uint8_t* dst) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = luma_bt601_one(rgb[3 * i + 0], rgb[3 * i + 1], rgb[3 * i + 2]);
  }
}

inline std::uint64_t sum_u8(const std::uint8_t* src, std::size_t n) {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) acc += src[i];
  return acc;
}

inline void histogram_u16(const std::uint16_t* src, std::size_t n,
                          std::uint64_t* counts) {
  for (std::size_t i = 0; i < n; ++i) ++counts[src[i]];
}

inline void lut_apply_u16(const std::uint16_t* src, std::size_t n,
                          const std::uint16_t* lut, std::uint16_t* dst) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = lut[src[i]];
}

inline std::uint64_t sum_u16(const std::uint16_t* src, std::size_t n) {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) acc += src[i];
  return acc;
}

inline void lut_apply_f64(const std::uint8_t* src, std::size_t n,
                          const double* lut, double* dst) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = lut[src[i]];
}

inline void mul_f64(const double* a, const double* b, double* dst,
                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] * b[i];
}

inline void saxpy_f64(double a, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = y[i] + a * x[i];
}

/// One clamped-border output pixel of the horizontal blur.
inline double blur_row_one(const double* src, int w, int x,
                           const double* taps, int radius) {
  double acc = 0.0;
  for (int k = 0; k <= 2 * radius; ++k) {
    const int xx = std::clamp(x + k - radius, 0, w - 1);
    acc += taps[k] * src[xx];
  }
  return acc;
}

inline void blur_row_f64(const double* src, double* dst, int w,
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

/// One output pixel of the vertical blur (the tail lanes of the vector
/// backends).
inline double blur_col_one(const double* const* rows, int x,
                           const double* taps, int radius) {
  double acc = 0.0;
  for (int k = 0; k <= 2 * radius; ++k) acc += taps[k] * rows[k][x];
  return acc;
}

inline void blur_col_f64(const double* const* rows, int w, const double* taps,
                         int radius, double* out_row) {
  for (int x = 0; x < w; ++x) out_row[x] = blur_col_one(rows, x, taps, radius);
}

inline double sum_f64(const double* v, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += v[i];
  return acc;
}

inline void prefix_row_f64(const double* v, const double* above, double* out,
                           std::size_t n) {
  double row = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    row += v[i];
    out[i] = above[i] + row;
  }
}

/// Columns [i, n) of one single-raster window-sum row, continuing the
/// running sums rs / rss (0 and 0 from column 0).  The vector backends
/// finish their row lanes with it.
inline void window_sums_single_span(const double* v, std::size_t i,
                                    std::size_t n, double rs, double rss,
                                    const double* above_s,
                                    const double* above_ss, double* out_s,
                                    double* out_ss) {
  for (; i < n; ++i) {
    const double x = v[i];
    rs += x;
    out_s[i] = above_s[i] + rs;
    rss += x * x;
    out_ss[i] = above_ss[i] + rss;
  }
}

inline void window_sums_single_f64(const double* const* v, int rows,
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

/// One UIQI window quality index from its rectangle sums and the cached
/// reference moments — the exact per-window arithmetic of
/// quality::uiqi_from_stats (WindowMoments' means/variances/covariance
/// followed by the q formula with its two degenerate-denominator
/// special cases).
inline double uiqi_q_one(double rect_b, double rect_bb, double rect_ab,
                         double mean_a, double var_a, double n_px) {
  const double mean_b = rect_b / n_px;
  double var_b = rect_bb / n_px - mean_b * mean_b;
  const double cov_ab = rect_ab / n_px - mean_a * mean_b;
  // Clamp tiny negative variances caused by floating-point cancellation
  // (mean_a/var_a arrive pre-clamped from the reference-side cache).
  if (var_b < 0.0) var_b = 0.0;
  const double mean_prod = mean_a * mean_b;
  const double denom1 = mean_a * mean_a + mean_b * mean_b;
  const double denom2 = var_a + var_b;
  double q = 1.0;  // both denominators zero: identical flat windows
  if (denom1 * denom2 > 0.0) {
    q = 4.0 * cov_ab * mean_prod / (denom1 * denom2);
  } else if (denom1 > 0.0) {
    q = 2.0 * mean_prod / denom1;
  }
  return q;
}

inline void uiqi_q_row_f64(const double* mean_a, const double* var_a,
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

/// Squared error of the chord p_j -> p_i over points j..i, from the
/// prefix sums: for an interior point p_k the error is
/// (y_k - y_j) - s (x_k - x_j) with s the chord slope, and the summed
/// square expands into range sums of y, y², x, x², xy.
inline double plc_chord_err(const PlcScanArgs& a, std::size_t j) {
  const double pjx = a.px[j];
  const double pjy = a.py[j];
  const double s = (a.piy - pjy) / (a.pix - pjx);
  // Range sums over k in [j, i].
  const double n = static_cast<double>(a.i - j + 1);
  const double sum_x = a.sxi - a.sx[j];
  const double sum_y = a.syi - a.sy[j];
  const double sum_xx = a.sxxi - a.sxx[j];
  const double sum_yy = a.syyi - a.syy[j];
  const double sum_xy = a.sxyi - a.sxy[j];
  // Sum over k of ((y_k - y_j) - s (x_k - x_j))^2
  //  = Σ dy²  - 2 s Σ dx dy + s² Σ dx²
  const double sum_dyy = sum_yy - 2.0 * pjy * sum_y + n * pjy * pjy;
  const double sum_dxx = sum_xx - 2.0 * pjx * sum_x + n * pjx * pjx;
  const double sum_dxy =
      sum_xy - pjx * sum_y - pjy * sum_x + n * pjx * pjy;
  const double err = sum_dyy - 2.0 * s * sum_dxy + s * s * sum_dxx;
  return err > 0.0 ? err : 0.0;  // guard fp cancellation
}

inline double plc_scan_f64(const PlcScanArgs* args, std::size_t* out_j) {
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

/// Columns [i, n) of one pair window-sum row, continuing the running
/// sums rb / rbb / rab (all 0 from column 0).
inline void window_sums_pair_span(const double* a, const double* b,
                                  std::size_t i, std::size_t n, double rb,
                                  double rbb, double rab,
                                  const double* above_b,
                                  const double* above_bb,
                                  const double* above_ab, double* out_b,
                                  double* out_bb, double* out_ab) {
  for (; i < n; ++i) {
    const double xb = b[i];
    rb += xb;
    out_b[i] = above_b[i] + rb;
    rbb += xb * xb;
    out_bb[i] = above_bb[i] + rbb;
    rab += a[i] * xb;
    out_ab[i] = above_ab[i] + rab;
  }
}

inline void window_sums_pair_f64(const double* const* a,
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

}  // namespace hebs::kernels::ref
