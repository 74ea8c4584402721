// ISA-independent tuned building blocks shared by the vector backends.
//
// Histogram accumulation does not map onto pre-AVX-512 SIMD lanes (no
// conflict detection), but its scalar bottleneck is not arithmetic —
// it is the store-to-load dependency between increments of the same
// bin, which smooth image regions hit constantly.  Splitting the
// counts across independent sub-tables breaks those chains; the
// technique needs no vector instructions, so the vector backends share
// this one implementation and the scalar backend keeps the naive loop
// as the reference semantics.  Counts are integers, so any split is
// bit-exact.
#pragma once

#include <cstddef>
#include <cstdint>

#include "kernels/kernels_ref.h"

namespace hebs::kernels::tuned {

/// Histogram with eight 32-bit sub-tables and a uniform-block shortcut.
///
/// * Eight independent increment chains cover the ~6-cycle
///   store-to-load latency even on a constant raster, and 32-bit
///   counters keep all tables inside 8 KiB of L1.  The outer chunk loop
///   drains them to the 64-bit output well before any counter can reach
///   2^32.
/// * `probe(p)` is the backend's SIMD uniformity test over kBlock
///   bytes: the byte value when all kBlock bytes at p are equal, else
///   -1.  Flat regions (dark frames, letterboxing, UI chrome) then cost
///   one compare per block instead of kBlock dependent increments.
/// Counts are integers, so any accumulation split is bit-exact.
template <int kBlock, typename UniformProbe>
inline void histogram_u8_runs(const std::uint8_t* src, std::size_t n,
                              std::uint64_t* counts, UniformProbe&& probe) {
  static_assert(kBlock % 8 == 0);
  // Sub-table bookkeeping only pays off once the 8 KiB of zeroing is
  // amortized; small rasters take the plain loop.
  if (n < 4096) {
    ref::histogram_u8(src, n, counts);
    return;
  }
  constexpr std::size_t kChunk = std::size_t{1} << 30;
  for (std::size_t base = 0; base < n; base += kChunk) {
    const std::size_t len = std::min(kChunk, n - base);
    const std::uint8_t* p = src + base;
    std::uint32_t t[8][256] = {};
    std::size_t i = 0;
    for (; i + kBlock <= len; i += kBlock) {
      const int uniform = probe(p + i);
      if (uniform >= 0) {
        t[0][uniform] += kBlock;
        continue;
      }
      for (std::size_t j = i; j < i + kBlock; j += 8) {
        ++t[0][p[j + 0]];
        ++t[1][p[j + 1]];
        ++t[2][p[j + 2]];
        ++t[3][p[j + 3]];
        ++t[4][p[j + 4]];
        ++t[5][p[j + 5]];
        ++t[6][p[j + 6]];
        ++t[7][p[j + 7]];
      }
    }
    for (; i < len; ++i) ++t[0][p[i]];
    for (int v = 0; v < 256; ++v) {
      std::uint64_t acc = 0;
      for (int j = 0; j < 8; ++j) acc += t[j][v];
      counts[v] += acc;
    }
  }
}

/// Deep-pixel LUT application with a uniform-block shortcut: when all
/// kBlock samples of a block are equal, one table load fans out to the
/// whole block through the backend's `splat(dst, value)`; mixed blocks
/// fall back to per-sample gathers (u16 tables have no in-register
/// shuffle analogue of the byte-LUT VPSHUFB path).  Bit-exact: every
/// output is lut[src[i]] either way.
template <int kBlock, typename UniformProbe, typename Splat>
inline void lut_apply_u16_blocks(const std::uint16_t* src, std::size_t n,
                                 const std::uint16_t* lut,
                                 std::uint16_t* dst, UniformProbe&& probe,
                                 Splat&& splat) {
  std::size_t i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    const int uniform = probe(src + i);
    if (uniform >= 0) {
      splat(dst + i, lut[uniform]);
      continue;
    }
    for (std::size_t j = i; j < i + kBlock; ++j) dst[j] = lut[src[j]];
  }
  for (; i < n; ++i) dst[i] = lut[src[i]];
}

}  // namespace hebs::kernels::tuned
