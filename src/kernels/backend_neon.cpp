// NEON (AArch64 AdvSIMD) backend: 128-bit lanes, 2 doubles per op.
//
// AdvSIMD is architecturally mandatory on AArch64, so this backend is
// always supported where it is compiled.  Float kernels issue the same
// IEEE mul/add sequence per element as the scalar reference (vmul/vadd,
// never vfma), and FRINTA implements exactly std::round's
// ties-away-from-zero, so outputs are bit-identical to scalar.
#if defined(HEBS_KERNELS_ENABLE_NEON) && defined(__aarch64__)

#include <arm_neon.h>

#include "kernels/kernels.h"
#include "kernels/kernels_ref.h"
#include "kernels/kernels_tuned.h"

namespace hebs::kernels {

namespace {

void histogram_u8_neon(const std::uint8_t* src, std::size_t n,
                       std::uint64_t* counts) {
  tuned::histogram_u8_runs<16>(src, n, counts, [](const std::uint8_t* p) {
    const uint8x16_t v = vld1q_u8(p);
    const std::uint8_t lo = vminvq_u8(v);
    const std::uint8_t hi = vmaxvq_u8(v);
    return lo == hi ? static_cast<int>(lo) : -1;
  });
}

// Uniformity probe over 16 u16 samples (two 128-bit vectors): the
// sample value when all sixteen equal p[0], else -1.
int uniform16_neon(const std::uint16_t* p) {
  const uint16x8_t a = vld1q_u16(p);
  const uint16x8_t b = vld1q_u16(p + 8);
  const uint16x8_t mn = vminq_u16(a, b);
  const uint16x8_t mx = vmaxq_u16(a, b);
  const std::uint16_t lo = vminvq_u16(mn);
  const std::uint16_t hi = vmaxvq_u16(mx);
  return lo == hi ? static_cast<int>(lo) : -1;
}

void lut_apply_u16_neon(const std::uint16_t* src, std::size_t n,
                        const std::uint16_t* lut, std::uint16_t* dst) {
  tuned::lut_apply_u16_blocks<16>(
      src, n, lut, dst, &uniform16_neon,
      [](std::uint16_t* out, std::uint16_t value) {
        const uint16x8_t v = vdupq_n_u16(value);
        vst1q_u16(out, v);
        vst1q_u16(out + 8, v);
      });
}

std::uint64_t sum_u16_neon(const std::uint16_t* src, std::size_t n) {
  std::uint64_t total = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    total += vaddlvq_u16(vld1q_u16(src + i));
  }
  return total + ref::sum_u16(src + i, n - i);
}

void luma_bt601_rgb8_neon(const std::uint8_t* rgb, std::size_t n,
                          std::uint8_t* dst) {
  const float64x2_t cr = vdupq_n_f64(0.299);
  const float64x2_t cg = vdupq_n_f64(0.587);
  const float64x2_t cb = vdupq_n_f64(0.114);
  const float64x2_t lo = vdupq_n_f64(0.0);
  const float64x2_t hi = vdupq_n_f64(255.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const std::uint8_t* p = rgb + 3 * i;
    const float64x2_t r = vsetq_lane_f64(
        static_cast<double>(p[3]),
        vdupq_n_f64(static_cast<double>(p[0])), 1);
    const float64x2_t g = vsetq_lane_f64(
        static_cast<double>(p[4]),
        vdupq_n_f64(static_cast<double>(p[1])), 1);
    const float64x2_t b = vsetq_lane_f64(
        static_cast<double>(p[5]),
        vdupq_n_f64(static_cast<double>(p[2])), 1);
    // ((0.299 r) + (0.587 g)) + (0.114 b), the scalar association.
    float64x2_t l =
        vaddq_f64(vaddq_f64(vmulq_f64(r, cr), vmulq_f64(g, cg)),
                  vmulq_f64(b, cb));
    l = vrndaq_f64(l);  // FRINTA: ties away from zero == std::round
    l = vminq_f64(vmaxq_f64(l, lo), hi);
    dst[i] = static_cast<std::uint8_t>(vgetq_lane_f64(l, 0));
    dst[i + 1] = static_cast<std::uint8_t>(vgetq_lane_f64(l, 1));
  }
  if (i < n) ref::luma_bt601_rgb8(rgb + 3 * i, n - i, dst + i);
}

std::uint64_t sum_u8_neon(const std::uint8_t* src, std::size_t n) {
  std::uint64_t total = 0;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    total += vaddlvq_u8(vld1q_u8(src + i));
  }
  return total + ref::sum_u8(src + i, n - i);
}

void blur_row_f64_neon(const double* src, double* dst, int w,
                       const double* taps, int radius) {
  const int x_lo = std::min(radius, w);
  const int x_hi = std::max(x_lo, w - radius);
  for (int x = 0; x < x_lo; ++x) {
    dst[x] = ref::blur_row_one(src, w, x, taps, radius);
  }
  int x = x_lo;
  for (; x + 2 <= x_hi; x += 2) {
    float64x2_t acc = vdupq_n_f64(0.0);
    const double* in = src + x - radius;
    for (int k = 0; k <= 2 * radius; ++k) {
      acc = vaddq_f64(acc, vmulq_f64(vdupq_n_f64(taps[k]),
                                     vld1q_f64(in + k)));
    }
    vst1q_f64(dst + x, acc);
  }
  for (; x < x_hi; ++x) {
    double acc = 0.0;
    const double* in = src + x - radius;
    for (int k = 0; k <= 2 * radius; ++k) acc += taps[k] * in[k];
    dst[x] = acc;
  }
  for (x = x_hi; x < w; ++x) {
    dst[x] = ref::blur_row_one(src, w, x, taps, radius);
  }
}

void blur_col_f64_neon(const double* const* rows, int w, const double* taps,
                       int radius, double* out_row) {
  int x = 0;
  for (; x + 2 <= w; x += 2) {
    float64x2_t acc = vdupq_n_f64(0.0);
    for (int k = 0; k <= 2 * radius; ++k) {
      acc = vaddq_f64(acc,
                      vmulq_f64(vdupq_n_f64(taps[k]), vld1q_f64(rows[k] + x)));
    }
    vst1q_f64(out_row + x, acc);
  }
  for (; x < w; ++x) out_row[x] = ref::blur_col_one(rows, x, taps, radius);
}

}  // namespace

const KernelSet* kernelset_neon() {
  static const KernelSet set = {
      "neon",
      "AArch64 AdvSIMD: 128-bit lanes, FRINTA rounding, ADDLV byte sums",
      &histogram_u8_neon,
      &ref::lut_apply_u8,
      &ref::lut_apply_rgb8,
      &luma_bt601_rgb8_neon,
      &sum_u8_neon,
      &lut_apply_u16_neon,
      &sum_u16_neon,
      &blur_row_f64_neon,
      &blur_col_f64_neon,
      &ref::sum_f64,
      &ref::prefix_row_f64,
      // Row lanes want one table row per lane (four on AVX2); no
      // two-row NEON variant has been measured, so reference loops.
      &ref::window_sums_single_f64,
      &ref::window_sums_pair_f64,
      // Two-double q lanes / DP lanes don't amortize the blend and
      // horizontal-fold overhead (same call as SSE4.2); reference loops.
      &ref::uiqi_q_row_f64,
      &ref::plc_scan_f64,
  };
  return &set;
}

}  // namespace hebs::kernels

#endif  // HEBS_KERNELS_ENABLE_NEON && __aarch64__
