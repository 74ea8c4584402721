// Scalar reference implementations of every kernel.
//
// These loops are the semantic definition of the subsystem: every SIMD
// backend must reproduce their output bit-for-bit (see kernels.h for
// the contract).  They are also reused by the vector backends for
// border and tail lanes, so a backend never re-implements the scalar
// arithmetic twice.
//
// Linkage keeps every copy on its own ISA.  The vector backends compile
// with -mavx2 / -msse4.2, so an inline function they emit out of line
// becomes a weak symbol built for that ISA, and the linker may pick it
// for baseline callers too.  Hence:
//   * the rows (one per KernelSet entry) are only declared here, with
//     one out-of-line definition in backend_scalar.cpp at the baseline
//     ISA; a vector backend takes their address or calls them for its
//     tails;
//   * the per-element helpers the vector loops inline are `static`:
//     each TU compiles its own private copy for its own ISA.
// The ctest hebs_kernel_ref_symbols checks that no vector-ISA object
// defines an external ref:: symbol.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "kernels/kernels.h"

namespace hebs::kernels::ref {

// ---- per-element helpers (internal linkage) ----------------------------

/// Same arithmetic as image::RgbImage::to_luma has always used:
/// double products summed left to right, round-half-away, clamp.
static inline std::uint8_t luma_bt601_one(std::uint8_t r, std::uint8_t g,
                                          std::uint8_t b) {
  const double luma = 0.299 * r + 0.587 * g + 0.114 * b;
  const double rounded = std::round(luma);
  const double clamped = rounded < 0.0 ? 0.0 : (rounded > 255.0 ? 255.0
                                                                : rounded);
  return static_cast<std::uint8_t>(clamped);
}

/// One clamped-border output pixel of the horizontal blur.
static inline double blur_row_one(const double* src, int w, int x,
                                  const double* taps, int radius) {
  double acc = 0.0;
  for (int k = 0; k <= 2 * radius; ++k) {
    const int xx = std::clamp(x + k - radius, 0, w - 1);
    acc += taps[k] * src[xx];
  }
  return acc;
}

/// One output pixel of the vertical blur (the tail lanes of the vector
/// backends).
static inline double blur_col_one(const double* const* rows, int x,
                                  const double* taps, int radius) {
  double acc = 0.0;
  for (int k = 0; k <= 2 * radius; ++k) acc += taps[k] * rows[k][x];
  return acc;
}

/// Columns [i, n) of one single-raster window-sum row, continuing the
/// running sums rs / rss (0 and 0 from column 0).  The vector backends
/// finish their row lanes with it.
static inline void window_sums_single_span(const double* v, std::size_t i,
                                           std::size_t n, double rs,
                                           double rss, const double* above_s,
                                           const double* above_ss,
                                           double* out_s, double* out_ss) {
  for (; i < n; ++i) {
    const double x = v[i];
    rs += x;
    out_s[i] = above_s[i] + rs;
    rss += x * x;
    out_ss[i] = above_ss[i] + rss;
  }
}

/// One UIQI window quality index from its rectangle sums and the cached
/// reference moments — the exact per-window arithmetic of
/// quality::uiqi_from_stats (WindowMoments' means/variances/covariance
/// followed by the q formula with its two degenerate-denominator
/// special cases).
static inline double uiqi_q_one(double rect_b, double rect_bb, double rect_ab,
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

/// Squared error of the chord p_j -> p_i over points j..i, from the
/// prefix sums: for an interior point p_k the error is
/// (y_k - y_j) - s (x_k - x_j) with s the chord slope, and the summed
/// square expands into range sums of y, y², x, x², xy.
static inline double plc_chord_err(const PlcScanArgs& a, std::size_t j) {
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

/// Columns [i, n) of one pair window-sum row, continuing the running
/// sums rb / rbb / rab (all 0 from column 0).
static inline void window_sums_pair_span(const double* a, const double* b,
                                         std::size_t i, std::size_t n,
                                         double rb, double rbb, double rab,
                                         const double* above_b,
                                         const double* above_bb,
                                         const double* above_ab,
                                         double* out_b, double* out_bb,
                                         double* out_ab) {
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

// ---- rows (defined in backend_scalar.cpp) -------------------------------

void histogram_u8(const std::uint8_t* src, std::size_t n,
                  std::uint64_t* counts);

void lut_apply_u8(const std::uint8_t* src, std::size_t n,
                  const std::uint8_t* lut, std::uint8_t* dst);

void lut_apply_rgb8(const std::uint8_t* rgb, std::size_t n_pixels,
                    const std::uint8_t* lut, std::uint8_t* dst);

void luma_bt601_rgb8(const std::uint8_t* rgb, std::size_t n,
                     std::uint8_t* dst);

std::uint64_t sum_u8(const std::uint8_t* src, std::size_t n);

void lut_apply_u16(const std::uint16_t* src, std::size_t n,
                   const std::uint16_t* lut, std::uint16_t* dst);

std::uint64_t sum_u16(const std::uint16_t* src, std::size_t n);

void blur_row_f64(const double* src, double* dst, int w,
                  const double* taps, int radius);

void blur_col_f64(const double* const* rows, int w, const double* taps,
                  int radius, double* out_row);

void window_sums_single_f64(const double* const* v, int rows,
                            std::size_t n, const double* above_s,
                            const double* above_ss,
                            double* const* out_s,
                            double* const* out_ss);

void window_sums_pair_f64(const double* const* a,
                          const double* const* b, int rows,
                          std::size_t n, const double* above_b,
                          const double* above_bb,
                          const double* above_ab, double* const* out_b,
                          double* const* out_bb,
                          double* const* out_ab);

void uiqi_q_row_f64(const double* mean_a, const double* var_a,
                    const double* b_top, const double* b_bot,
                    const double* bb_top, const double* bb_bot,
                    const double* ab_top, const double* ab_bot,
                    std::size_t n_win, int block, double n_px,
                    double* q_out);

double plc_scan_f64(const PlcScanArgs* args, std::size_t* out_j);

}  // namespace hebs::kernels::ref
