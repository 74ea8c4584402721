// SSE4.2 backend: 128-bit lanes (2 doubles / 16 bytes per op).
//
// This TU is compiled with -msse4.2 while the rest of the library stays
// at the baseline ISA; it must therefore contain no code reachable
// without a runtime dispatch through kernels::active().  Float kernels
// issue the same IEEE mul/add sequence per element as the scalar
// reference (intrinsics are never contracted into FMA), so outputs are
// bit-identical.  The blurs broadcast their taps once per call and run
// four independent two-double output vectors per step.
#if defined(HEBS_KERNELS_ENABLE_SSE42) && defined(__SSE4_2__)

#include <nmmintrin.h>

#include "kernels/kernels.h"
#include "kernels/kernels_ref.h"
#include "kernels/kernels_tuned.h"

namespace hebs::kernels {

namespace {

void histogram_u8_sse42(const std::uint8_t* src, std::size_t n,
                        std::uint64_t* counts) {
  tuned::histogram_u8_runs<16>(src, n, counts, [](const std::uint8_t* p) {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    const __m128i first = _mm_set1_epi8(static_cast<char>(p[0]));
    const int mask = _mm_movemask_epi8(_mm_cmpeq_epi8(v, first));
    return mask == 0xFFFF ? static_cast<int>(p[0]) : -1;
  });
}

// Uniformity probe over 16 u16 samples (two 128-bit vectors): the
// sample value when all sixteen equal p[0], else -1.
int uniform16_sse42(const std::uint16_t* p) {
  const __m128i first = _mm_set1_epi16(static_cast<short>(p[0]));
  const __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 8));
  const __m128i eq =
      _mm_and_si128(_mm_cmpeq_epi16(a, first), _mm_cmpeq_epi16(b, first));
  return _mm_movemask_epi8(eq) == 0xFFFF ? static_cast<int>(p[0]) : -1;
}

void lut_apply_u16_sse42(const std::uint16_t* src, std::size_t n,
                         const std::uint16_t* lut, std::uint16_t* dst) {
  tuned::lut_apply_u16_blocks<16>(
      src, n, lut, dst, &uniform16_sse42,
      [](std::uint16_t* out, std::uint16_t value) {
        const __m128i v = _mm_set1_epi16(static_cast<short>(value));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(out), v);
        _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 8), v);
      });
}

std::uint64_t sum_u16_sse42(const std::uint16_t* src, std::size_t n) {
  const __m128i zero = _mm_setzero_si128();
  std::uint64_t total = 0;
  std::size_t i = 0;
  const std::size_t vec_end = n - n % 8;
  while (i < vec_end) {
    // 32-bit lane accumulators: each iteration adds at most 2 * 65535
    // per lane, so draining every 2^14 iterations stays far below 2^32.
    const std::size_t stop = std::min(vec_end, i + std::size_t{16384} * 8);
    __m128i acc = _mm_setzero_si128();
    for (; i < stop; i += 8) {
      const __m128i v =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
      acc = _mm_add_epi32(acc, _mm_unpacklo_epi16(v, zero));
      acc = _mm_add_epi32(acc, _mm_unpackhi_epi16(v, zero));
    }
    alignas(16) std::uint32_t lanes[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(lanes), acc);
    total += std::uint64_t{lanes[0]} + lanes[1] + lanes[2] + lanes[3];
  }
  return total + ref::sum_u16(src + i, n - i);
}

void luma_bt601_rgb8_sse42(const std::uint8_t* rgb, std::size_t n,
                           std::uint8_t* dst) {
  const __m128d cr = _mm_set1_pd(0.299);
  const __m128d cg = _mm_set1_pd(0.587);
  const __m128d cb = _mm_set1_pd(0.114);
  const __m128d half = _mm_set1_pd(0.5);
  const __m128d lo = _mm_setzero_pd();
  const __m128d hi = _mm_set1_pd(255.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const std::uint8_t* p = rgb + 3 * i;
    const __m128d r = _mm_setr_pd(p[0], p[3]);
    const __m128d g = _mm_setr_pd(p[1], p[4]);
    const __m128d b = _mm_setr_pd(p[2], p[5]);
    // ((0.299 r) + (0.587 g)) + (0.114 b), the scalar association.
    __m128d l = _mm_add_pd(_mm_add_pd(_mm_mul_pd(r, cr), _mm_mul_pd(g, cg)),
                           _mm_mul_pd(b, cb));
    // round-half-away == floor(x + 0.5) for every BT.601 luma value
    // (proven exhaustively over all 2^24 RGB inputs in the parity test).
    l = _mm_floor_pd(_mm_add_pd(l, half));
    l = _mm_min_pd(_mm_max_pd(l, lo), hi);
    const __m128i q = _mm_cvtpd_epi32(l);  // values integral: exact
    dst[i] = static_cast<std::uint8_t>(_mm_cvtsi128_si32(q));
    dst[i + 1] = static_cast<std::uint8_t>(_mm_extract_epi32(q, 1));
  }
  if (i < n) ref::luma_bt601_rgb8(rgb + 3 * i, n - i, dst + i);
}

std::uint64_t sum_u8_sse42(const std::uint8_t* src, std::size_t n) {
  const __m128i zero = _mm_setzero_si128();
  __m128i acc = _mm_setzero_si128();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    acc = _mm_add_epi64(acc, _mm_sad_epu8(v, zero));
  }
  std::uint64_t total = static_cast<std::uint64_t>(_mm_extract_epi64(acc, 0)) +
                        static_cast<std::uint64_t>(_mm_extract_epi64(acc, 1));
  return total + ref::sum_u8(src + i, n - i);
}

// Blur taps broadcast once per call: up to this many (radius 8).
// Longer filters take the one-vector loop.
constexpr int kMaxBroadcastTaps = 17;

/// Eight outputs per call, as four independent tap chains (same
/// per-lane sequence as the scalar reference: taps added in k order
/// from 0.0).  `in(k)` is the input pointer of tap k for output 0.
template <typename In>
inline void blur8_sse42(const __m128d* taps, int n_taps, In&& in,
                        double* out) {
  __m128d acc0 = _mm_setzero_pd();
  __m128d acc1 = _mm_setzero_pd();
  __m128d acc2 = _mm_setzero_pd();
  __m128d acc3 = _mm_setzero_pd();
  for (int k = 0; k < n_taps; ++k) {
    const double* p = in(k);
    const __m128d t = taps[k];
    acc0 = _mm_add_pd(acc0, _mm_mul_pd(t, _mm_loadu_pd(p)));
    acc1 = _mm_add_pd(acc1, _mm_mul_pd(t, _mm_loadu_pd(p + 2)));
    acc2 = _mm_add_pd(acc2, _mm_mul_pd(t, _mm_loadu_pd(p + 4)));
    acc3 = _mm_add_pd(acc3, _mm_mul_pd(t, _mm_loadu_pd(p + 6)));
  }
  _mm_storeu_pd(out, acc0);
  _mm_storeu_pd(out + 2, acc1);
  _mm_storeu_pd(out + 4, acc2);
  _mm_storeu_pd(out + 6, acc3);
}

void blur_row_f64_sse42(const double* src, double* dst, int w,
                        const double* taps, int radius) {
  const int x_lo = std::min(radius, w);
  const int x_hi = std::max(x_lo, w - radius);
  const int n_taps = 2 * radius + 1;
  for (int x = 0; x < x_lo; ++x) {
    dst[x] = ref::blur_row_one(src, w, x, taps, radius);
  }
  int x = x_lo;
  if (n_taps <= kMaxBroadcastTaps) {
    __m128d vt[kMaxBroadcastTaps];
    for (int k = 0; k < n_taps; ++k) vt[k] = _mm_set1_pd(taps[k]);
    for (; x + 8 <= x_hi; x += 8) {
      const double* in = src + x - radius;
      blur8_sse42(vt, n_taps, [in](int k) { return in + k; }, dst + x);
    }
  }
  for (; x + 2 <= x_hi; x += 2) {
    __m128d acc = _mm_setzero_pd();
    const double* in = src + x - radius;
    for (int k = 0; k < n_taps; ++k) {
      acc = _mm_add_pd(acc, _mm_mul_pd(_mm_set1_pd(taps[k]),
                                       _mm_loadu_pd(in + k)));
    }
    _mm_storeu_pd(dst + x, acc);
  }
  for (; x < x_hi; ++x) {
    double acc = 0.0;
    const double* in = src + x - radius;
    for (int k = 0; k < n_taps; ++k) acc += taps[k] * in[k];
    dst[x] = acc;
  }
  for (x = x_hi; x < w; ++x) {
    dst[x] = ref::blur_row_one(src, w, x, taps, radius);
  }
}

void blur_col_f64_sse42(const double* const* rows, int w,
                        const double* taps, int radius, double* out_row) {
  const int n_taps = 2 * radius + 1;
  int x = 0;
  if (n_taps <= kMaxBroadcastTaps) {
    __m128d vt[kMaxBroadcastTaps];
    for (int k = 0; k < n_taps; ++k) vt[k] = _mm_set1_pd(taps[k]);
    for (; x + 8 <= w; x += 8) {
      blur8_sse42(vt, n_taps, [rows, x](int k) { return rows[k] + x; },
                  out_row + x);
    }
  }
  for (; x + 2 <= w; x += 2) {
    __m128d acc = _mm_setzero_pd();
    for (int k = 0; k < n_taps; ++k) {
      acc = _mm_add_pd(acc, _mm_mul_pd(_mm_set1_pd(taps[k]),
                                       _mm_loadu_pd(rows[k] + x)));
    }
    _mm_storeu_pd(out_row + x, acc);
  }
  for (; x < w; ++x) out_row[x] = ref::blur_col_one(rows, x, taps, radius);
}

}  // namespace

const KernelSet* kernelset_sse42() {
  static const KernelSet set = {
      "sse42",
      "SSE4.2: 128-bit float lanes, SAD byte sums, sub-table histograms",
      &histogram_u8_sse42,
      &ref::lut_apply_u8,
      &ref::lut_apply_rgb8,
      &luma_bt601_rgb8_sse42,
      &sum_u8_sse42,
      &lut_apply_u16_sse42,
      &sum_u16_sse42,
      &blur_row_f64_sse42,
      &blur_col_f64_sse42,
      &ref::sum_f64,
      &ref::prefix_row_f64,
      // Row lanes (kernels.h) want one table row per lane; the groups
      // are sized for AVX2's four, and a two-row SSE4.2 variant has not
      // been measured, so the window sums stay on the reference loops.
      &ref::window_sums_single_f64,
      &ref::window_sums_pair_f64,
      // 128-bit lanes fit two doubles: the q-row and DP-scan bodies are
      // division/branch-heavy, and at 2-wide the blend overhead eats the
      // win (the AVX2 4-wide versions are where the payoff starts), so
      // both stay on the reference loops.
      &ref::uiqi_q_row_f64,
      &ref::plc_scan_f64,
  };
  return &set;
}

}  // namespace hebs::kernels

#endif  // HEBS_KERNELS_ENABLE_SSE42 && __SSE4_2__
