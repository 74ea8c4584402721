// SIMD kernel subsystem: runtime-dispatched per-pixel primitives.
//
// Every per-pixel inner loop the pipeline runs — histogram accumulation,
// LUT application, BT.601 luma extraction, integral-image window sums,
// Gaussian blur rows/columns, elementwise float ops — is reached through
// a `KernelSet` vtable.  One set per backend (scalar, SSE4.2, AVX2,
// NEON); the backend is chosen once at startup from CPU feature
// detection, overridable through the HEBS_FORCE_BACKEND environment
// variable and SessionConfig::kernel_backend.
//
// Output contract (enforced by the parity fuzz test):
//   * integer kernels are bit-identical across every backend;
//   * float kernels perform the same IEEE-754 operations per element in
//     the same order as the scalar reference, so they are bit-identical
//     too.  Two rules say how a backend may still go wide:
//       - row lanes: a serial accumulation (the running sum of an
//         integral-table row) is never split or reassociated along its
//         chain; a backend may only run several independent chains side
//         by side, one per lane (the window_sums_* rows take a group of
//         up to four table rows for that).  sum_f64 and prefix_row_f64
//         have one chain per call and stay on the reference loop.
//       - exact reciprocal: x / n may become x * (1/n) only when 1/n is
//         exact (n a power of two, see exact_reciprocal); both then
//         round the same real number, so the results are identical.
//     The pipeline's bit-exactness guarantees (engine vs. frozen seed
//     path, percent-mapped vs. uiqi-hvs) depend on this contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace hebs::kernels {

/// Arguments of one PLC dynamic-program row scan (core/plc.cpp).  The
/// px/py/s* pointers are the chord-error point and prefix-sum arrays
/// (prefix arrays have one extra leading zero entry); `prev` is DP row
/// s-1; the scalar fields are the i-side values hoisted out of the j
/// loop (p_i and the prefix sums at i+1).
struct PlcScanArgs {
  const double* px;
  const double* py;
  const double* sx;
  const double* sy;
  const double* sxx;
  const double* syy;
  const double* sxy;
  const double* prev;
  double pix, piy;
  double sxi, syi, sxxi, syyi, sxyi;
  std::size_t i;       ///< chord endpoint (exclusive scan bound)
  std::size_t j_begin; ///< first candidate breakpoint (s-1)
  std::size_t j_seed;  ///< scan seed in [j_begin, i) — a perf hint for
                       ///< the prune bound; the result is seed-independent
};

/// Most table rows one window_sums_* call takes (one per AVX2 lane).
inline constexpr int kWindowSumRows = 4;

/// Dispatch table of the per-pixel hot-path primitives.  All pointers
/// are non-null in every registered set.
struct KernelSet {
  const char* name;         ///< registry key ("scalar", "sse42", ...)
  const char* description;  ///< one-line summary for --list-backends

  // ------------------------------------------------- integer kernels
  /// counts[v] += number of occurrences of v in src[0..n)
  /// (256 bins; counts is accumulated into, not cleared).
  void (*histogram_u8)(const std::uint8_t* src, std::size_t n,
                       std::uint64_t* counts);
  /// dst[i] = lut[src[i]] for a 256-entry 8-bit table.
  void (*lut_apply_u8)(const std::uint8_t* src, std::size_t n,
                       const std::uint8_t* lut, std::uint8_t* dst);
  /// Per-channel LUT application over n interleaved RGB8 pixels: every
  /// sub-pixel byte maps through the same shared 256-entry table
  /// (§2's color path — the backlight is shared, so one curve drives
  /// all three channels).  Semantically lut_apply_u8 over 3n bytes;
  /// kept as its own entry so the color pipeline stage dispatches in
  /// pixels and each backend can route to its widest byte-LUT path.
  void (*lut_apply_rgb8)(const std::uint8_t* rgb, std::size_t n_pixels,
                         const std::uint8_t* lut, std::uint8_t* dst);
  /// ITU-R BT.601 luma of n interleaved RGB8 pixels:
  /// dst[i] = clamp(round(0.299 R + 0.587 G + 0.114 B), 0, 255).
  void (*luma_bt601_rgb8)(const std::uint8_t* rgb, std::size_t n,
                          std::uint8_t* dst);
  /// Sum of n bytes (exact in 64 bits for any raster < 2^56 pixels).
  std::uint64_t (*sum_u8)(const std::uint8_t* src, std::size_t n);

  // -------------------------------------- deep-pixel integer kernels
  // The u16 twins of the per-pixel primitives the depth-generalized
  // pipeline needs (10/16-bit content stored as 16-bit samples).  Same
  // shape as the u8 entries: the caller sizes the lut array to the
  // frame's level count; every sample is < that count by the
  // GrayImage16 invariant.  Pure integer kernels, so backends are
  // trivially bit-identical.  (The u16 histogram is a plain function
  // below: no backend beat the reference loop.)
  /// dst[i] = lut[src[i]] for a caller-sized 16-bit table.
  void (*lut_apply_u16)(const std::uint16_t* src, std::size_t n,
                        const std::uint16_t* lut, std::uint16_t* dst);
  /// Sum of n 16-bit samples (exact in 64 bits for any raster
  /// < 2^48 pixels).
  std::uint64_t (*sum_u16)(const std::uint16_t* src, std::size_t n);

  // ------------------------- float kernels (elementwise, bit-exact)
  /// One horizontal blur row with clamped borders: for every x,
  /// dst[x] = sum_k taps[k] * src[clamp(x + k - radius, 0, w-1)],
  /// taps accumulated in k order (2*radius+1 taps).
  void (*blur_row_f64)(const double* src, double* dst, int w,
                       const double* taps, int radius);
  /// One vertical blur output row from 2*radius+1 input rows:
  /// out_row[x] = sum_k taps[k] * rows[k][x], taps accumulated in k
  /// order.  The caller resolves the border: for output row y of an
  /// h-row raster, rows[k] is input row clamp(y + k - radius, 0, h-1),
  /// so pointers repeat near the edges.  Any row storage works — a full
  /// raster or a ring of line buffers (quality/uiqi_stream.cpp).
  void (*blur_col_f64)(const double* const* rows, int w, const double* taps,
                       int radius, double* out_row);

  // ------------- float kernels (scalar accumulation-order contract)
  /// Left-to-right sum of n doubles.  Backends must keep the scalar
  /// order: callers (image means, power integrals) are compared
  /// bit-exactly across configurations.
  double (*sum_f64)(const double* v, std::size_t n);
  /// Integral-image row step: out[i] = above[i] + (v[0] + ... + v[i]),
  /// the running sum accumulated left to right.
  void (*prefix_row_f64)(const double* v, const double* above, double* out,
                         std::size_t n);
  /// Fused single-raster window-sum rows for a group of `rows`
  /// (1..kWindowSumRows) consecutive raster rows: for row r, the sum and
  /// sum-of-squares integral rows of v[r] (each table's running sum in
  /// scalar order; products v*v are elementwise-exact).  Row r's `above`
  /// row is out_*[r-1]; row 0's is above_*.  The result equals the
  /// reference loop run row by row (the row-lane rule above).
  void (*window_sums_single_f64)(const double* const* v, int rows,
                                 std::size_t n, const double* above_s,
                                 const double* above_ss,
                                 double* const* out_s, double* const* out_ss);
  /// Fused pair window-sum rows, same grouping: the b, b*b and a*b
  /// integral rows of a[r], b[r] in one sweep (for PairStats' covariance
  /// tables and the row-streamed UIQI).
  void (*window_sums_pair_f64)(const double* const* a, const double* const* b,
                               int rows, std::size_t n, const double* above_b,
                               const double* above_bb, const double* above_ab,
                               double* const* out_b, double* const* out_bb,
                               double* const* out_ab);

  // ------------------- float kernels (per-window / per-candidate,
  //                      elementwise bit-exact; see DESIGN.md §8, §11)
  /// One stride-1 row of UIQI window quality indices.  Window x has its
  /// b / b·b / a·b rectangle sums read from the integral-table row pairs
  ///   rect(x) = bot[x + block] - bot[x] - top[x + block] + top[x]
  /// and its reference-side moments from the cached mean_a/var_a arrays
  /// (the reference/test evaluator split).  q_out[x] receives exactly
  /// the per-window value quality::uiqi_from_stats' scalar loop
  /// computes; the caller owns the strictly serial accumulation over
  /// q_out, so the metric keeps the scalar summation order.
  void (*uiqi_q_row_f64)(const double* mean_a, const double* var_a,
                         const double* b_top, const double* b_bot,
                         const double* bb_top, const double* bb_bot,
                         const double* ab_top, const double* ab_bot,
                         std::size_t n_win, int block, double n_px,
                         double* q_out);
  /// Lowest-j argmin of prev[j] + chord_error(j -> i) over
  /// j in [j_begin, i): the PLC DP inner scan.  Returns the best value
  /// and writes the argmin to *out_j.  Candidate values are computed
  /// with the exact scalar chord arithmetic; the selection rule
  /// (strictly smaller value, or equal value at smaller j) makes the
  /// result independent of evaluation order and of which candidates a
  /// backend prunes, so every backend returns identical (value, j).
  double (*plc_scan_f64)(const PlcScanArgs* args, std::size_t* out_j);
};

// ------------------------------------- plain loops (not dispatched)
// Loops no backend beat the scalar reference on (they are memory-bound;
// DESIGN.md §8), so each has one definition instead of a KernelSet
// row.  Out of line in backend_scalar.cpp on purpose: that TU
// is pinned to -ffp-contract=off, and inlining saxpy_f64 into an
// unpinned TU would let AArch64 fuse its multiply-add.

/// counts[v] += number of occurrences of v in src[0..n) (caller-sized
/// bins; counts is accumulated into, not cleared).  Its uniform-block
/// SIMD variant measured slower than this loop (DESIGN.md §8).
void histogram_u16(const std::uint16_t* src, std::size_t n,
                   std::uint64_t* counts);
/// dst[i] = lut[src[i]] for a 256-entry double table.
void lut_apply_f64(const std::uint8_t* src, std::size_t n, const double* lut,
                   double* dst);
/// dst[i] = a[i] * b[i].
void mul_f64(const double* a, const double* b, double* dst, std::size_t n);
/// y[i] = y[i] + a * x[i].
void saxpy_f64(double a, const double* x, double* y, std::size_t n);

/// True when 1/n is exact (n a power of two, far from the exponent
/// range's ends): x * (1/n) then rounds the same real number x / n does,
/// so the two are bit-identical for every x (the exact-reciprocal rule).
/// Out of line in the baseline-ISA TU, so no copy compiled for a vector
/// ISA can be linked into baseline callers.
bool exact_reciprocal(double n);

/// One compiled-in backend plus whether this machine can run it.
struct BackendInfo {
  const KernelSet* set = nullptr;
  bool supported = false;  ///< CPU has the required ISA extensions
};

/// All backends compiled into this build, in preference order
/// (scalar first, widest ISA last).  The scalar backend is always
/// present and always supported.
std::span<const BackendInfo> backends();

/// The compiled-in backend with this name, or nullptr.
const KernelSet* find_backend(std::string_view name);

/// The scalar reference set (always available).
const KernelSet& scalar_kernels();

/// The set every call site dispatches through.  First use selects the
/// widest supported backend, unless HEBS_FORCE_BACKEND names a
/// compiled-in, supported backend (unknown or unsupported names warn on
/// stderr and fall back to auto-detection).
const KernelSet& active();

enum class SetBackendResult {
  kOk,
  kUnknownBackend,      ///< name not compiled into this build
  kUnsupportedBackend,  ///< compiled in, but this CPU lacks the ISA
};

/// Switches the process-global active backend.  Thread-safe; in-flight
/// rasters finish on the set they started with.
SetBackendResult set_backend(std::string_view name);

}  // namespace hebs::kernels
