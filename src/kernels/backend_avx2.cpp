// AVX2 backend: 256-bit lanes (4 doubles / 32 bytes per op).
//
// Compiled with -mavx2 in its own TU; reachable only through
// kernels::active() after runtime CPUID detection.  Techniques:
//   * histogram: eight independent sub-tables plus a 32-byte
//     uniform-run shortcut (breaks the same-bin store-to-load
//     dependency chains; integer, bit-exact);
//   * 8-bit LUT: 16-way VPSHUFB decomposition with block-local range
//     pruning — the 256-entry table splits into sixteen 16-byte chunks
//     selected by each byte's high nibble, and a 128-pixel block only
//     visits the chunks its byte min/max admits (locally smooth content
//     usually needs one or two);
//   * luma: 4 pixels per iteration in double lanes, same mul/add
//     association as the scalar reference (no FMA contraction);
//   * byte sums: VPSADBW against zero;
//   * blurs: taps broadcast once per call, four independent output
//     vectors per step (each output still adds its taps in k order);
//   * integral rows: four table rows in the four lanes (the row-lane
//     rule), 4x4 transposes in and out;
//   * UIQI q row: exact-reciprocal rect scaling when block^2 is a power
//     of two, and the fallback division only where a lane needs it.
#if defined(HEBS_KERNELS_ENABLE_AVX2) && defined(__AVX2__)

#include <immintrin.h>

#include <cstring>
#include <limits>

#include "kernels/kernels.h"
#include "kernels/kernels_ref.h"
#include "kernels/kernels_tuned.h"

namespace hebs::kernels {

namespace {

void histogram_u8_avx2(const std::uint8_t* src, std::size_t n,
                       std::uint64_t* counts) {
  tuned::histogram_u8_runs<32>(src, n, counts, [](const std::uint8_t* p) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    const __m256i first = _mm256_set1_epi8(static_cast<char>(p[0]));
    const int mask = _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, first));
    return mask == -1 ? static_cast<int>(p[0]) : -1;
  });
}

// Uniformity probe over 16 u16 samples (one 256-bit vector): the
// sample value when all sixteen equal p[0], else -1.
int uniform16_avx2(const std::uint16_t* p) {
  const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  const __m256i first = _mm256_set1_epi16(static_cast<short>(p[0]));
  const int mask = _mm256_movemask_epi8(_mm256_cmpeq_epi16(v, first));
  return mask == -1 ? static_cast<int>(p[0]) : -1;
}

void lut_apply_u16_avx2(const std::uint16_t* src, std::size_t n,
                        const std::uint16_t* lut, std::uint16_t* dst) {
  tuned::lut_apply_u16_blocks<16>(
      src, n, lut, dst, &uniform16_avx2,
      [](std::uint16_t* out, std::uint16_t value) {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                            _mm256_set1_epi16(static_cast<short>(value)));
      });
}

std::uint64_t sum_u16_avx2(const std::uint16_t* src, std::size_t n) {
  const __m256i zero = _mm256_setzero_si256();
  std::uint64_t total = 0;
  std::size_t i = 0;
  const std::size_t vec_end = n - n % 16;
  while (i < vec_end) {
    // 32-bit lane accumulators: each iteration adds at most 2 * 65535
    // per lane, so draining every 2^14 iterations stays far below 2^32.
    const std::size_t stop = std::min(vec_end, i + std::size_t{16384} * 16);
    __m256i acc = _mm256_setzero_si256();
    for (; i < stop; i += 16) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
      acc = _mm256_add_epi32(acc, _mm256_unpacklo_epi16(v, zero));
      acc = _mm256_add_epi32(acc, _mm256_unpackhi_epi16(v, zero));
    }
    alignas(32) std::uint32_t lanes[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
    for (const std::uint32_t lane : lanes) total += lane;
  }
  return total + ref::sum_u16(src + i, n - i);
}

/// Smallest/largest byte across four 256-bit vectors, via lane folds.
inline void minmax_epu8_4(__m256i v0, __m256i v1, __m256i v2, __m256i v3,
                          int* out_min, int* out_max) {
  const __m256i mn256 =
      _mm256_min_epu8(_mm256_min_epu8(v0, v1), _mm256_min_epu8(v2, v3));
  const __m256i mx256 =
      _mm256_max_epu8(_mm256_max_epu8(v0, v1), _mm256_max_epu8(v2, v3));
  __m128i mn = _mm_min_epu8(_mm256_castsi256_si128(mn256),
                            _mm256_extracti128_si256(mn256, 1));
  __m128i mx = _mm_max_epu8(_mm256_castsi256_si128(mx256),
                            _mm256_extracti128_si256(mx256, 1));
  mn = _mm_min_epu8(mn, _mm_srli_si128(mn, 8));
  mn = _mm_min_epu8(mn, _mm_srli_si128(mn, 4));
  mn = _mm_min_epu8(mn, _mm_srli_si128(mn, 2));
  mn = _mm_min_epu8(mn, _mm_srli_si128(mn, 1));
  mx = _mm_max_epu8(mx, _mm_srli_si128(mx, 8));
  mx = _mm_max_epu8(mx, _mm_srli_si128(mx, 4));
  mx = _mm_max_epu8(mx, _mm_srli_si128(mx, 2));
  mx = _mm_max_epu8(mx, _mm_srli_si128(mx, 1));
  *out_min = _mm_cvtsi128_si32(mn) & 0xFF;
  *out_max = _mm_cvtsi128_si32(mx) & 0xFF;
}

void lut_apply_u8_avx2(const std::uint8_t* src, std::size_t n,
                       const std::uint8_t* lut, std::uint8_t* dst) {
  if (n < 128) {
    ref::lut_apply_u8(src, n, lut, dst);
    return;
  }
  // 16-way VPSHUFB decomposition with block-local range pruning: the
  // 256-entry table splits into sixteen 16-byte chunks selected by each
  // byte's high nibble.  Image content is locally smooth, so a 128-px
  // block usually spans only a few high nibbles — the block's byte
  // min/max bounds which chunk selects can match, and the rest are
  // skipped.  Each byte matches exactly one chunk, so the blend order
  // is irrelevant and the result equals the scalar lookup exactly.
  __m256i chunks[16];
  for (int j = 0; j < 16; ++j) {
    chunks[j] = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(lut + 16 * j)));
  }
  const __m256i nibble = _mm256_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 128 <= n; i += 128) {
    __m256i vs[4];
    for (int q = 0; q < 4; ++q) {
      vs[q] = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(src + i + 32 * q));
    }
    int mn = 0;
    int mx = 0;
    minmax_epu8_4(vs[0], vs[1], vs[2], vs[3], &mn, &mx);
    const int jlo = mn >> 4;
    const int jhi = mx >> 4;
    for (int q = 0; q < 4; ++q) {
      const __m256i lo = _mm256_and_si256(vs[q], nibble);
      const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(vs[q], 4), nibble);
      __m256i acc = _mm256_shuffle_epi8(chunks[jlo], lo);
      for (int j = jlo + 1; j <= jhi; ++j) {
        const __m256i mask =
            _mm256_cmpeq_epi8(hi, _mm256_set1_epi8(static_cast<char>(j)));
        acc = _mm256_blendv_epi8(acc, _mm256_shuffle_epi8(chunks[j], lo),
                                 mask);
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 32 * q), acc);
    }
  }
  if (i < n) ref::lut_apply_u8(src + i, n - i, lut, dst + i);
}

// The interleaved color raster is bytes through the same shared table,
// so the rgb8 entry rides the range-pruned VPSHUFB path directly (a
// sub-pixel byte and a gray byte look identical to the LUT).
void lut_apply_rgb8_avx2(const std::uint8_t* rgb, std::size_t n_pixels,
                         const std::uint8_t* lut, std::uint8_t* dst) {
  lut_apply_u8_avx2(rgb, 3 * n_pixels, lut, dst);
}

void luma_bt601_rgb8_avx2(const std::uint8_t* rgb, std::size_t n,
                          std::uint8_t* dst) {
  const __m256d cr = _mm256_set1_pd(0.299);
  const __m256d cg = _mm256_set1_pd(0.587);
  const __m256d cb = _mm256_set1_pd(0.114);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d lo = _mm256_setzero_pd();
  const __m256d hi = _mm256_set1_pd(255.0);
  const __m128i pack =
      _mm_setr_epi8(0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
                    -1);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const std::uint8_t* p = rgb + 3 * i;
    const __m256d r = _mm256_setr_pd(p[0], p[3], p[6], p[9]);
    const __m256d g = _mm256_setr_pd(p[1], p[4], p[7], p[10]);
    const __m256d b = _mm256_setr_pd(p[2], p[5], p[8], p[11]);
    __m256d l = _mm256_add_pd(
        _mm256_add_pd(_mm256_mul_pd(r, cr), _mm256_mul_pd(g, cg)),
        _mm256_mul_pd(b, cb));
    // floor(x + 0.5) == round-half-away over the whole BT.601 domain
    // (verified exhaustively in the parity test).
    l = _mm256_floor_pd(_mm256_add_pd(l, half));
    l = _mm256_min_pd(_mm256_max_pd(l, lo), hi);
    const __m128i q = _mm256_cvtpd_epi32(l);  // values integral: exact
    const int packed = _mm_cvtsi128_si32(_mm_shuffle_epi8(q, pack));
    std::memcpy(dst + i, &packed, 4);
  }
  if (i < n) ref::luma_bt601_rgb8(rgb + 3 * i, n - i, dst + i);
}

std::uint64_t sum_u8_avx2(const std::uint8_t* src, std::size_t n) {
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(v, zero));
  }
  const __m128i lo128 = _mm256_castsi256_si128(acc);
  const __m128i hi128 = _mm256_extracti128_si256(acc, 1);
  std::uint64_t total =
      static_cast<std::uint64_t>(_mm_extract_epi64(lo128, 0)) +
      static_cast<std::uint64_t>(_mm_extract_epi64(lo128, 1)) +
      static_cast<std::uint64_t>(_mm_extract_epi64(hi128, 0)) +
      static_cast<std::uint64_t>(_mm_extract_epi64(hi128, 1));
  return total + ref::sum_u8(src + i, n - i);
}

// Blur taps broadcast once per call: up to this many (radius 8, the
// widest CSF support the HVS front end builds at sigma 2.5).  Longer
// filters take the one-vector loop.
constexpr int kMaxBroadcastTaps = 17;

/// Sixteen outputs per call, as four independent tap chains:
/// out[j*4 .. j*4+3] = sum_k taps[k] * in(k)[j*4 ..], taps added in k
/// order from 0.0 (the scalar sequence, lane by lane).  `in(k)` is the
/// input pointer of tap k for output 0.
template <typename In>
inline void blur16_avx2(const __m256d* taps, int n_taps, In&& in,
                        double* out) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  for (int k = 0; k < n_taps; ++k) {
    const double* p = in(k);
    const __m256d t = taps[k];
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(t, _mm256_loadu_pd(p)));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(t, _mm256_loadu_pd(p + 4)));
    acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(t, _mm256_loadu_pd(p + 8)));
    acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(t, _mm256_loadu_pd(p + 12)));
  }
  _mm256_storeu_pd(out, acc0);
  _mm256_storeu_pd(out + 4, acc1);
  _mm256_storeu_pd(out + 8, acc2);
  _mm256_storeu_pd(out + 12, acc3);
}

void blur_row_f64_avx2(const double* src, double* dst, int w,
                       const double* taps, int radius) {
  const int x_lo = std::min(radius, w);
  const int x_hi = std::max(x_lo, w - radius);
  const int n_taps = 2 * radius + 1;
  for (int x = 0; x < x_lo; ++x) {
    dst[x] = ref::blur_row_one(src, w, x, taps, radius);
  }
  int x = x_lo;
  if (n_taps <= kMaxBroadcastTaps) {
    __m256d vt[kMaxBroadcastTaps];
    for (int k = 0; k < n_taps; ++k) vt[k] = _mm256_set1_pd(taps[k]);
    for (; x + 16 <= x_hi; x += 16) {
      const double* in = src + x - radius;
      blur16_avx2(vt, n_taps, [in](int k) { return in + k; }, dst + x);
    }
  }
  for (; x + 4 <= x_hi; x += 4) {
    __m256d acc = _mm256_setzero_pd();
    const double* in = src + x - radius;
    for (int k = 0; k < n_taps; ++k) {
      acc = _mm256_add_pd(
          acc, _mm256_mul_pd(_mm256_set1_pd(taps[k]), _mm256_loadu_pd(in + k)));
    }
    _mm256_storeu_pd(dst + x, acc);
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

void blur_col_f64_avx2(const double* const* rows, int w, const double* taps,
                       int radius, double* out_row) {
  const int n_taps = 2 * radius + 1;
  int x = 0;
  if (n_taps <= kMaxBroadcastTaps) {
    __m256d vt[kMaxBroadcastTaps];
    for (int k = 0; k < n_taps; ++k) vt[k] = _mm256_set1_pd(taps[k]);
    for (; x + 16 <= w; x += 16) {
      blur16_avx2(vt, n_taps, [rows, x](int k) { return rows[k] + x; },
                  out_row + x);
    }
  }
  for (; x + 4 <= w; x += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (int k = 0; k < n_taps; ++k) {
      acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(taps[k]),
                                             _mm256_loadu_pd(rows[k] + x)));
    }
    _mm256_storeu_pd(out_row + x, acc);
  }
  for (; x < w; ++x) out_row[x] = ref::blur_col_one(rows, x, taps, radius);
}

/// Columns i .. i+3 of four rows, transposed: c[j] holds column i + j,
/// lane r from row p[r].
inline void load_columns4(const double* const* p, std::size_t i,
                          __m256d* c) {
  const auto pair = [p, i](int lo, int hi, std::size_t at) {
    return _mm256_insertf128_pd(
        _mm256_castpd128_pd256(_mm_loadu_pd(p[lo] + i + at)),
        _mm_loadu_pd(p[hi] + i + at), 1);
  };
  const __m256d t0 = pair(0, 2, 0);  // r0[i], r0[i+1], r2[i], r2[i+1]
  const __m256d t1 = pair(1, 3, 0);
  const __m256d t2 = pair(0, 2, 2);
  const __m256d t3 = pair(1, 3, 2);
  c[0] = _mm256_unpacklo_pd(t0, t1);
  c[1] = _mm256_unpackhi_pd(t0, t1);
  c[2] = _mm256_unpacklo_pd(t2, t3);
  c[3] = _mm256_unpackhi_pd(t2, t3);
}

/// The inverse of load_columns4 for one table: run[j] holds the running
/// sums after column i + j (lane r = row r).  Each row's block is added
/// to the row above it, out[r] = out[r-1] + run_r (out[-1] = above),
/// the reference loop's elementwise step.
inline void store_rows4(const __m256d* run, const double* above,
                        double* const* out, std::size_t i) {
  const __m256d u0 = _mm256_unpacklo_pd(run[0], run[1]);
  const __m256d u1 = _mm256_unpackhi_pd(run[0], run[1]);
  const __m256d u2 = _mm256_unpacklo_pd(run[2], run[3]);
  const __m256d u3 = _mm256_unpackhi_pd(run[2], run[3]);
  __m256d o = _mm256_add_pd(_mm256_loadu_pd(above + i),
                            _mm256_permute2f128_pd(u0, u2, 0x20));
  _mm256_storeu_pd(out[0] + i, o);
  o = _mm256_add_pd(o, _mm256_permute2f128_pd(u1, u3, 0x20));
  _mm256_storeu_pd(out[1] + i, o);
  o = _mm256_add_pd(o, _mm256_permute2f128_pd(u0, u2, 0x31));
  _mm256_storeu_pd(out[2] + i, o);
  o = _mm256_add_pd(o, _mm256_permute2f128_pd(u1, u3, 0x31));
  _mm256_storeu_pd(out[3] + i, o);
}

// The window-sum rows run in row lanes: lane r carries row r's running
// sums left to right, so every chain is exactly the scalar chain, and
// only the elementwise above + run step crosses rows.  A group of fewer
// than four rows takes the reference loop.
void window_sums_single_f64_avx2(const double* const* v, int rows,
                                 std::size_t n, const double* above_s,
                                 const double* above_ss,
                                 double* const* out_s,
                                 double* const* out_ss) {
  if (rows != kWindowSumRows) {
    ref::window_sums_single_f64(v, rows, n, above_s, above_ss, out_s, out_ss);
    return;
  }
  __m256d rs = _mm256_setzero_pd();
  __m256d rss = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d c[4];
    __m256d run_s[4];
    __m256d run_ss[4];
    load_columns4(v, i, c);
    for (int j = 0; j < 4; ++j) {
      rs = _mm256_add_pd(rs, c[j]);
      run_s[j] = rs;
      rss = _mm256_add_pd(rss, _mm256_mul_pd(c[j], c[j]));
      run_ss[j] = rss;
    }
    store_rows4(run_s, above_s, out_s, i);
    store_rows4(run_ss, above_ss, out_ss, i);
  }
  alignas(32) double s[4];
  alignas(32) double ss[4];
  _mm256_store_pd(s, rs);
  _mm256_store_pd(ss, rss);
  for (int r = 0; r < 4; ++r) {
    ref::window_sums_single_span(v[r], i, n, s[r], ss[r], above_s, above_ss,
                                 out_s[r], out_ss[r]);
    above_s = out_s[r];
    above_ss = out_ss[r];
  }
}

void window_sums_pair_f64_avx2(const double* const* a, const double* const* b,
                               int rows, std::size_t n, const double* above_b,
                               const double* above_bb, const double* above_ab,
                               double* const* out_b, double* const* out_bb,
                               double* const* out_ab) {
  if (rows != kWindowSumRows) {
    ref::window_sums_pair_f64(a, b, rows, n, above_b, above_bb, above_ab,
                              out_b, out_bb, out_ab);
    return;
  }
  __m256d rb = _mm256_setzero_pd();
  __m256d rbb = _mm256_setzero_pd();
  __m256d rab = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d ca[4];
    __m256d cb[4];
    __m256d run_b[4];
    __m256d run_bb[4];
    __m256d run_ab[4];
    load_columns4(a, i, ca);
    load_columns4(b, i, cb);
    for (int j = 0; j < 4; ++j) {
      rb = _mm256_add_pd(rb, cb[j]);
      run_b[j] = rb;
      rbb = _mm256_add_pd(rbb, _mm256_mul_pd(cb[j], cb[j]));
      run_bb[j] = rbb;
      rab = _mm256_add_pd(rab, _mm256_mul_pd(ca[j], cb[j]));
      run_ab[j] = rab;
    }
    store_rows4(run_b, above_b, out_b, i);
    store_rows4(run_bb, above_bb, out_bb, i);
    store_rows4(run_ab, above_ab, out_ab, i);
  }
  alignas(32) double sb[4];
  alignas(32) double sbb[4];
  alignas(32) double sab[4];
  _mm256_store_pd(sb, rb);
  _mm256_store_pd(sbb, rbb);
  _mm256_store_pd(sab, rab);
  for (int r = 0; r < 4; ++r) {
    ref::window_sums_pair_span(a[r], b[r], i, n, sb[r], sbb[r], sab[r],
                               above_b, above_bb, above_ab, out_b[r],
                               out_bb[r], out_ab[r]);
    above_b = out_b[r];
    above_bb = out_bb[r];
    above_ab = out_ab[r];
  }
}

/// Four windows per iteration.  Every lane performs exactly the scalar
/// reference's IEEE operation sequence (separate mul/add, no FMA); the q
/// branches become masked blends, so the divisions in dead lanes
/// (inf/NaN) are discarded without affecting live lanes.  With
/// kReciprocal the three rect / n_px divisions are rect * (1/n_px)
/// (the exact-reciprocal rule), and the q_mean fallback is computed only
/// for a vector with a lane that takes it.
template <bool kReciprocal>
void uiqi_q_row_body(const double* mean_a, const double* var_a,
                     const double* b_top, const double* b_bot,
                     const double* bb_top, const double* bb_bot,
                     const double* ab_top, const double* ab_bot,
                     std::size_t n_win, std::size_t b, double n_px,
                     double* q_out) {
  const __m256d vn = _mm256_set1_pd(n_px);
  const __m256d vinv = _mm256_set1_pd(1.0 / n_px);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d four = _mm256_set1_pd(4.0);
  const auto per_px = [&](__m256d rect) {
    return kReciprocal ? _mm256_mul_pd(rect, vinv) : _mm256_div_pd(rect, vn);
  };
  for (std::size_t x = 0; x + 4 <= n_win; x += 4) {
    const auto rect = [&](const double* top, const double* bot) {
      // bot[x+b] - bot[x] - top[x+b] + top[x], the rect_sum term order.
      return _mm256_add_pd(
          _mm256_sub_pd(_mm256_sub_pd(_mm256_loadu_pd(bot + x + b),
                                      _mm256_loadu_pd(bot + x)),
                        _mm256_loadu_pd(top + x + b)),
          _mm256_loadu_pd(top + x));
    };
    const __m256d ma = _mm256_loadu_pd(mean_a + x);
    const __m256d va = _mm256_loadu_pd(var_a + x);
    const __m256d mb = per_px(rect(b_top, b_bot));
    __m256d vb =
        _mm256_sub_pd(per_px(rect(bb_top, bb_bot)), _mm256_mul_pd(mb, mb));
    const __m256d cov =
        _mm256_sub_pd(per_px(rect(ab_top, ab_bot)), _mm256_mul_pd(ma, mb));
    // if (var_b < 0) var_b = 0 — a compare/blend, not max_pd, so the
    // -0.0 case keeps the scalar semantics exactly.
    vb = _mm256_blendv_pd(vb, zero, _mm256_cmp_pd(vb, zero, _CMP_LT_OQ));
    const __m256d mean_prod = _mm256_mul_pd(ma, mb);
    const __m256d denom1 =
        _mm256_add_pd(_mm256_mul_pd(ma, ma), _mm256_mul_pd(mb, mb));
    const __m256d denom2 = _mm256_add_pd(va, vb);
    const __m256d d12 = _mm256_mul_pd(denom1, denom2);
    const __m256d live = _mm256_cmp_pd(d12, zero, _CMP_GT_OQ);
    __m256d q = _mm256_div_pd(
        _mm256_mul_pd(_mm256_mul_pd(four, cov), mean_prod), d12);
    if (_mm256_movemask_pd(live) != 0xF) {
      const __m256d q_mean =
          _mm256_div_pd(_mm256_mul_pd(two, mean_prod), denom1);
      q = _mm256_blendv_pd(
          _mm256_blendv_pd(one, q_mean,
                           _mm256_cmp_pd(denom1, zero, _CMP_GT_OQ)),
          q, live);
    }
    _mm256_storeu_pd(q_out + x, q);
  }
}

void uiqi_q_row_f64_avx2(const double* mean_a, const double* var_a,
                         const double* b_top, const double* b_bot,
                         const double* bb_top, const double* bb_bot,
                         const double* ab_top, const double* ab_bot,
                         std::size_t n_win, int block, double n_px,
                         double* q_out) {
  const auto b = static_cast<std::size_t>(block);
  if (exact_reciprocal(n_px)) {
    uiqi_q_row_body<true>(mean_a, var_a, b_top, b_bot, bb_top, bb_bot, ab_top,
                          ab_bot, n_win, b, n_px, q_out);
  } else {
    uiqi_q_row_body<false>(mean_a, var_a, b_top, b_bot, bb_top, bb_bot,
                           ab_top, ab_bot, n_win, b, n_px, q_out);
  }
  const std::size_t x = n_win - n_win % 4;
  if (x < n_win) {
    ref::uiqi_q_row_f64(mean_a + x, var_a + x, b_top + x, b_bot + x,
                        bb_top + x, bb_bot + x, ab_top + x, ab_bot + x,
                        n_win - x, block, n_px, q_out + x);
  }
}

double plc_scan_f64_avx2(const PlcScanArgs* args, std::size_t* out_j) {
  const PlcScanArgs& a = *args;
  if (a.i - a.j_begin < 8) return ref::plc_scan_f64(args, out_j);

  // The scalar seed candidate starts the prune bound; a block whose
  // smallest prev[] strictly exceeds the bound cannot contain the
  // argmin (candidate >= prev, ties at the bound are never pruned), so
  // it is skipped whole.  The bound is a stale-but-safe upper estimate
  // of the running best, refreshed by a horizontal fold every few
  // blocks.
  std::size_t seed_j = a.j_seed;
  const double seed_best = a.prev[seed_j] + ref::plc_chord_err(a, seed_j);
  double bound = seed_best;

  const __m256d vpix = _mm256_set1_pd(a.pix);
  const __m256d vpiy = _mm256_set1_pd(a.piy);
  const __m256d vsxi = _mm256_set1_pd(a.sxi);
  const __m256d vsyi = _mm256_set1_pd(a.syi);
  const __m256d vsxxi = _mm256_set1_pd(a.sxxi);
  const __m256d vsyyi = _mm256_set1_pd(a.syyi);
  const __m256d vsxyi = _mm256_set1_pd(a.sxyi);
  const __m256d vip1 = _mm256_set1_pd(static_cast<double>(a.i + 1));
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d inf =
      _mm256_set1_pd(std::numeric_limits<double>::infinity());

  // Lane l accumulates the lowest-j argmin over its j ≡ l (mod 4)
  // subsequence: within a lane j only grows, so a strict `<` keeps the
  // earliest j automatically.
  __m256d vbest = inf;
  __m256d vbestj = zero;
  const std::size_t jb = a.j_begin;
  __m256d vj = _mm256_setr_pd(
      static_cast<double>(jb), static_cast<double>(jb + 1),
      static_cast<double>(jb + 2), static_cast<double>(jb + 3));
  const __m256d vj_step = _mm256_set1_pd(4.0);

  std::size_t j = jb;
  int blocks_since_refresh = 0;
  for (; j + 4 <= a.i; j += 4, vj = _mm256_add_pd(vj, vj_step)) {
    const __m256d prev = _mm256_loadu_pd(a.prev + j);
    // Block prune: skip when even the smallest prev[] strictly exceeds
    // the (stale >= true best) bound.
    __m128d m01 = _mm_min_pd(_mm256_castpd256_pd128(prev),
                             _mm256_extractf128_pd(prev, 1));
    m01 = _mm_min_sd(m01, _mm_unpackhi_pd(m01, m01));
    if (_mm_cvtsd_f64(m01) > bound) continue;

    const __m256d pjx = _mm256_loadu_pd(a.px + j);
    const __m256d pjy = _mm256_loadu_pd(a.py + j);
    const __m256d s =
        _mm256_div_pd(_mm256_sub_pd(vpiy, pjy), _mm256_sub_pd(vpix, pjx));
    // n = i - j + 1; both operands are exact small integers in double.
    const __m256d n = _mm256_sub_pd(vip1, vj);
    const __m256d sum_x = _mm256_sub_pd(vsxi, _mm256_loadu_pd(a.sx + j));
    const __m256d sum_y = _mm256_sub_pd(vsyi, _mm256_loadu_pd(a.sy + j));
    const __m256d sum_xx = _mm256_sub_pd(vsxxi, _mm256_loadu_pd(a.sxx + j));
    const __m256d sum_yy = _mm256_sub_pd(vsyyi, _mm256_loadu_pd(a.syy + j));
    const __m256d sum_xy = _mm256_sub_pd(vsxyi, _mm256_loadu_pd(a.sxy + j));
    // Identical association to the scalar reference: each `x*y*z`
    // groups as `(x*y)*z`, each `a - b + c` as `(a - b) + c`.
    const __m256d sum_dyy = _mm256_add_pd(
        _mm256_sub_pd(sum_yy,
                      _mm256_mul_pd(_mm256_mul_pd(two, pjy), sum_y)),
        _mm256_mul_pd(_mm256_mul_pd(n, pjy), pjy));
    const __m256d sum_dxx = _mm256_add_pd(
        _mm256_sub_pd(sum_xx,
                      _mm256_mul_pd(_mm256_mul_pd(two, pjx), sum_x)),
        _mm256_mul_pd(_mm256_mul_pd(n, pjx), pjx));
    const __m256d sum_dxy = _mm256_add_pd(
        _mm256_sub_pd(_mm256_sub_pd(sum_xy, _mm256_mul_pd(pjx, sum_y)),
                      _mm256_mul_pd(pjy, sum_x)),
        _mm256_mul_pd(_mm256_mul_pd(n, pjx), pjy));
    __m256d err = _mm256_add_pd(
        _mm256_sub_pd(sum_dyy,
                      _mm256_mul_pd(_mm256_mul_pd(two, s), sum_dxy)),
        _mm256_mul_pd(_mm256_mul_pd(s, s), sum_dxx));
    // err > 0 ? err : 0.0 — masking to +0.0 matches the scalar branch.
    err = _mm256_and_pd(err, _mm256_cmp_pd(err, zero, _CMP_GT_OQ));
    const __m256d cand = _mm256_add_pd(prev, err);
    const __m256d lt = _mm256_cmp_pd(cand, vbest, _CMP_LT_OQ);
    vbest = _mm256_blendv_pd(vbest, cand, lt);
    vbestj = _mm256_blendv_pd(vbestj, vj, lt);

    if (++blocks_since_refresh == 16) {
      blocks_since_refresh = 0;
      __m128d b01 = _mm_min_pd(_mm256_castpd256_pd128(vbest),
                               _mm256_extractf128_pd(vbest, 1));
      b01 = _mm_min_sd(b01, _mm_unpackhi_pd(b01, b01));
      const double lane_min = _mm_cvtsd_f64(b01);
      if (lane_min < bound) bound = lane_min;
    }
  }

  // Fold the lanes (lexicographic min on (value, j) — the global
  // lowest-j argmin), then the seed candidate and the scalar tail.
  double best_v[4];
  double best_j[4];
  _mm256_storeu_pd(best_v, vbest);
  _mm256_storeu_pd(best_j, vbestj);
  double row_best = seed_best;
  std::size_t row_parent = seed_j;
  for (int l = 0; l < 4; ++l) {
    const auto lj = static_cast<std::size_t>(best_j[l]);
    if (best_v[l] < row_best ||
        (best_v[l] == row_best && lj < row_parent)) {
      row_best = best_v[l];
      row_parent = lj;
    }
  }
  for (; j < a.i; ++j) {
    if (a.prev[j] > row_best ||
        (a.prev[j] == row_best && j >= row_parent)) {
      continue;
    }
    const double candidate = a.prev[j] + ref::plc_chord_err(a, j);
    if (candidate < row_best ||
        (candidate == row_best && j < row_parent)) {
      row_best = candidate;
      row_parent = j;
    }
  }
  *out_j = row_parent;
  return row_best;
}

}  // namespace

const KernelSet* kernelset_avx2() {
  static const KernelSet set = {
      "avx2",
      "AVX2: 256-bit lanes, range-pruned VPSHUFB LUT, SAD sums",
      &histogram_u8_avx2,
      &lut_apply_u8_avx2,
      &lut_apply_rgb8_avx2,
      &luma_bt601_rgb8_avx2,
      &sum_u8_avx2,
      &lut_apply_u16_avx2,
      &sum_u16_avx2,
      &blur_row_f64_avx2,
      &blur_col_f64_avx2,
      &ref::sum_f64,
      &ref::prefix_row_f64,
      &window_sums_single_f64_avx2,
      &window_sums_pair_f64_avx2,
      &uiqi_q_row_f64_avx2,
      &plc_scan_f64_avx2,
  };
  return &set;
}

}  // namespace hebs::kernels

#endif  // HEBS_KERNELS_ENABLE_AVX2 && __AVX2__
