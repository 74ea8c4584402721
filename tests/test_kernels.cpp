// Backend-parity tests for the SIMD kernel subsystem.
//
// The subsystem's contract (src/kernels/kernels.h) is that every
// registered backend produces output bit-identical to the scalar
// reference: integer kernels exactly, float kernels because they issue
// the same IEEE operations per element in the same order (or are
// pinned to the scalar accumulation order outright).  The fuzz test
// exercises every kernel over ~100 random shapes — odd widths, tail
// lanes shorter than any vector width, flat/clustered/random content —
// and asserts bit-identity, plus a boundary sweep for the BT.601
// rounding identity and a strided-RGB ingestion parity check.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "hebs/advanced/api.h"
#include "hebs/hebs.h"
#include "hebs/advanced/kernels.h"

namespace hebs::kernels {
namespace {

/// Restores the process-global backend when a test switches it.
class BackendGuard {
 public:
  BackendGuard() : saved_(active().name) {}
  ~BackendGuard() { set_backend(saved_); }

 private:
  std::string saved_;
};

std::vector<const KernelSet*> supported_backends() {
  std::vector<const KernelSet*> out;
  for (const BackendInfo& info : backends()) {
    if (info.supported) out.push_back(info.set);
  }
  return out;
}

TEST(KernelRegistry, ScalarAlwaysCompiledAndSupported) {
  ASSERT_FALSE(backends().empty());
  EXPECT_STREQ(backends().front().set->name, "scalar");
  EXPECT_TRUE(backends().front().supported);
  EXPECT_EQ(find_backend("scalar"), &scalar_kernels());
  EXPECT_EQ(find_backend("no-such-backend"), nullptr);
}

TEST(KernelRegistry, PublicRegistryMirrorsBackends) {
  const auto names = hebs::KernelRegistry::names();
  ASSERT_EQ(names.size(), backends().size());
  for (const auto& name : names) {
    EXPECT_TRUE(hebs::KernelRegistry::contains(name));
    EXPECT_NE(find_backend(name), nullptr);
  }
  EXPECT_FALSE(hebs::KernelRegistry::contains("no-such-backend"));
  // The active backend is always one of the registered names.
  EXPECT_NE(find_backend(hebs::KernelRegistry::active()), nullptr);
}

TEST(KernelRegistry, SetBackendRejectsUnknown) {
  const BackendGuard guard;
  EXPECT_EQ(set_backend("no-such-backend"),
            SetBackendResult::kUnknownBackend);
  EXPECT_EQ(set_backend("scalar"), SetBackendResult::kOk);
  EXPECT_EQ(hebs::KernelRegistry::active(), "scalar");
}

TEST(KernelRegistry, SessionConfigSelectsBackend) {
  const BackendGuard guard;
  auto bad = hebs::Session::create(
      hebs::SessionConfig().kernel_backend("no-such-backend"));
  ASSERT_FALSE(bad.has_value());
  EXPECT_EQ(bad.status().code(), hebs::StatusCode::kUnknownBackend);

  auto good =
      hebs::Session::create(hebs::SessionConfig().kernel_backend("scalar"));
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(hebs::KernelRegistry::active(), "scalar");

  // A create that fails after backend validation (here: curve load)
  // must leave the process-global selection untouched.  Request a
  // supported backend other than the active one when this machine has
  // one, so an erroneous switch would be observable.
  const std::string before = hebs::KernelRegistry::active();
  std::string requested = "scalar";
  for (const KernelSet* set : supported_backends()) {
    if (set->name != before) requested = set->name;
  }
  auto failed = hebs::Session::create(
      hebs::SessionConfig()
          .policy("hebs-curve")
          .kernel_backend(requested)
          .curve_path("/nonexistent/curve.csv"));
  ASSERT_FALSE(failed.has_value());
  EXPECT_EQ(failed.status().code(), hebs::StatusCode::kIoError);
  EXPECT_EQ(hebs::KernelRegistry::active(), before);
}

// ------------------------------------------------------------- fuzz

struct FuzzCase {
  int w = 0;
  int h = 0;
  std::vector<std::uint8_t> bytes;   // w*h
  std::vector<std::uint8_t> rgb;     // 3*w*h
  std::vector<double> fa;            // w*h
  std::vector<double> fb;            // w*h
};

/// Random sizes biased toward vector-width edge cases (tails shorter
/// than 2/4/16/32 lanes, odd widths) and content mixing flat runs,
/// few-value clusters and full-range noise.
FuzzCase make_case(std::mt19937& rng) {
  static const int interesting_w[] = {1,  2,  3,  4,  5,  7,  8,  15, 16,
                                      17, 31, 32, 33, 63, 64, 65, 97};
  FuzzCase c;
  if (rng() % 2 == 0) {
    c.w = interesting_w[rng() % (sizeof(interesting_w) / sizeof(int))];
  } else {
    c.w = 1 + static_cast<int>(rng() % 200);
  }
  c.h = 1 + static_cast<int>(rng() % 12);
  const std::size_t n = static_cast<std::size_t>(c.w) * c.h;
  c.bytes.resize(n);
  c.rgb.resize(3 * n);
  c.fa.resize(n);
  c.fb.resize(n);
  const int mode = static_cast<int>(rng() % 4);
  const std::uint8_t flat = static_cast<std::uint8_t>(rng() & 0xFF);
  const std::uint8_t lo = static_cast<std::uint8_t>(rng() & 0x7F);
  for (std::size_t i = 0; i < n; ++i) {
    switch (mode) {
      case 0: c.bytes[i] = flat; break;                               // runs
      case 1: c.bytes[i] = static_cast<std::uint8_t>(lo + (rng() % 3)); break;
      case 2: c.bytes[i] = static_cast<std::uint8_t>((i * 7) & 0xFF); break;
      default: c.bytes[i] = static_cast<std::uint8_t>(rng() & 0xFF); break;
    }
    c.fa[i] = static_cast<double>(rng()) / 4294967295.0;
    c.fb[i] = static_cast<double>(rng()) / 4294967295.0 - 0.5;
  }
  for (std::size_t i = 0; i < 3 * n; ++i) {
    c.rgb[i] = static_cast<std::uint8_t>(rng() & 0xFF);
  }
  return c;
}

template <typename T>
void expect_bytes_eq(const std::vector<T>& got, const std::vector<T>& want,
                     const char* kernel, const KernelSet& set, int w, int h) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(T)), 0)
      << kernel << " diverges from scalar on backend " << set.name << " ("
      << w << "x" << h << ")";
}

/// The 2*radius+1 border-clamped input rows of vertical-blur output row
/// y over a w x h raster (blur_col_f64's caller-side contract).
std::vector<const double*> clamped_rows(const double* src, int w, int h,
                                        int y, int radius) {
  std::vector<const double*> rows;
  for (int k = 0; k <= 2 * radius; ++k) {
    rows.push_back(src + static_cast<std::size_t>(
                             std::clamp(y + k - radius, 0, h - 1)) *
                             w);
  }
  return rows;
}

/// Normalized random taps for a 2*radius+1-tap blur.
std::vector<double> random_taps(std::mt19937& rng, int radius) {
  std::vector<double> taps(static_cast<std::size_t>(2 * radius) + 1);
  double norm = 0.0;
  for (auto& t : taps) {
    t = 0.05 + static_cast<double>(rng() % 1000) / 1000.0;
    norm += t;
  }
  for (auto& t : taps) t /= norm;
  return taps;
}

TEST(KernelParity, FuzzAllBackendsBitIdenticalToScalar) {
  const auto sets = supported_backends();
  ASSERT_FALSE(sets.empty());
  const KernelSet& ref = scalar_kernels();
  std::mt19937 rng(20260726);

  std::uint8_t lut8[256];
  for (int i = 0; i < 256; ++i) {
    lut8[i] = static_cast<std::uint8_t>((i * 191 + 13) & 0xFF);
  }

  for (int iter = 0; iter < 100; ++iter) {
    const FuzzCase c = make_case(rng);
    const std::size_t n = c.bytes.size();
    const int radius = 1 + static_cast<int>(rng() % 4);
    const std::vector<double> taps = random_taps(rng, radius);

    // Scalar reference outputs.
    std::vector<std::uint64_t> counts_ref(256, 7);  // accumulate contract
    ref.histogram_u8(c.bytes.data(), n, counts_ref.data());
    std::vector<std::uint8_t> lut_ref(n);
    ref.lut_apply_u8(c.bytes.data(), n, lut8, lut_ref.data());
    std::vector<std::uint8_t> lut_rgb_ref(3 * n);
    ref.lut_apply_rgb8(c.rgb.data(), n, lut8, lut_rgb_ref.data());
    std::vector<std::uint8_t> luma_ref(n);
    ref.luma_bt601_rgb8(c.rgb.data(), n, luma_ref.data());
    const std::uint64_t sum_ref = ref.sum_u8(c.bytes.data(), n);
    const double sumf_ref = ref.sum_f64(c.fa.data(), n);
    std::vector<double> prefix_ref(n);
    ref.prefix_row_f64(c.fa.data(), c.fb.data(), prefix_ref.data(), n);
    // Window sums over a group of the raster's first 1..4 rows, each
    // row's `above` chained to the output of the row before it.
    const int group = std::min(c.h, 1 + iter % kWindowSumRows);
    const auto w = static_cast<std::size_t>(c.w);
    const auto rows_of = [&](auto* base) {
      std::vector<decltype(base)> rows;
      for (int r = 0; r < group; ++r) rows.push_back(base + r * w);
      return rows;
    };
    const auto a_rows = rows_of(c.fa.data());
    const auto b_rows = rows_of(c.fb.data());
    const std::size_t gn = static_cast<std::size_t>(group) * w;
    std::vector<double> ws_s_ref(gn);
    std::vector<double> ws_ss_ref(gn);
    ref.window_sums_single_f64(a_rows.data(), group, w, c.fb.data(),
                               c.fb.data(), rows_of(ws_s_ref.data()).data(),
                               rows_of(ws_ss_ref.data()).data());
    std::vector<double> wp_b_ref(gn);
    std::vector<double> wp_bb_ref(gn);
    std::vector<double> wp_ab_ref(gn);
    ref.window_sums_pair_f64(a_rows.data(), b_rows.data(), group, w,
                             c.fa.data(), c.fa.data(), c.fa.data(),
                             rows_of(wp_b_ref.data()).data(),
                             rows_of(wp_bb_ref.data()).data(),
                             rows_of(wp_ab_ref.data()).data());
    std::vector<double> brow_ref(n);
    std::vector<double> bcol_ref(n);
    for (int y = 0; y < c.h; ++y) {
      ref.blur_row_f64(c.fa.data() + static_cast<std::size_t>(y) * c.w,
                       brow_ref.data() + static_cast<std::size_t>(y) * c.w,
                       c.w, taps.data(), radius);
      const auto rows = clamped_rows(c.fa.data(), c.w, c.h, y, radius);
      ref.blur_col_f64(rows.data(), c.w, taps.data(), radius,
                       bcol_ref.data() + static_cast<std::size_t>(y) * c.w);
    }

    for (const KernelSet* set : sets) {
      std::vector<std::uint64_t> counts(256, 7);
      set->histogram_u8(c.bytes.data(), n, counts.data());
      expect_bytes_eq(counts, counts_ref, "histogram_u8", *set, c.w, c.h);

      std::vector<std::uint8_t> lut_out(n);
      set->lut_apply_u8(c.bytes.data(), n, lut8, lut_out.data());
      expect_bytes_eq(lut_out, lut_ref, "lut_apply_u8", *set, c.w, c.h);

      std::vector<std::uint8_t> lut_rgb_out(3 * n);
      set->lut_apply_rgb8(c.rgb.data(), n, lut8, lut_rgb_out.data());
      expect_bytes_eq(lut_rgb_out, lut_rgb_ref, "lut_apply_rgb8", *set, c.w,
                      c.h);

      std::vector<std::uint8_t> luma_out(n);
      set->luma_bt601_rgb8(c.rgb.data(), n, luma_out.data());
      expect_bytes_eq(luma_out, luma_ref, "luma_bt601_rgb8", *set, c.w, c.h);

      EXPECT_EQ(set->sum_u8(c.bytes.data(), n), sum_ref)
          << "sum_u8 on " << set->name;

      EXPECT_EQ(set->sum_f64(c.fa.data(), n), sumf_ref)
          << "sum_f64 on " << set->name;

      std::vector<double> prefix_out(n);
      set->prefix_row_f64(c.fa.data(), c.fb.data(), prefix_out.data(), n);
      expect_bytes_eq(prefix_out, prefix_ref, "prefix_row_f64", *set, c.w,
                      c.h);

      std::vector<double> ws_s(gn);
      std::vector<double> ws_ss(gn);
      set->window_sums_single_f64(a_rows.data(), group, w, c.fb.data(),
                                  c.fb.data(), rows_of(ws_s.data()).data(),
                                  rows_of(ws_ss.data()).data());
      expect_bytes_eq(ws_s, ws_s_ref, "window_sums_single_f64(s)", *set, c.w,
                      c.h);
      expect_bytes_eq(ws_ss, ws_ss_ref, "window_sums_single_f64(ss)", *set,
                      c.w, c.h);

      std::vector<double> wp_b(gn);
      std::vector<double> wp_bb(gn);
      std::vector<double> wp_ab(gn);
      set->window_sums_pair_f64(a_rows.data(), b_rows.data(), group, w,
                                c.fa.data(), c.fa.data(), c.fa.data(),
                                rows_of(wp_b.data()).data(),
                                rows_of(wp_bb.data()).data(),
                                rows_of(wp_ab.data()).data());
      expect_bytes_eq(wp_b, wp_b_ref, "window_sums_pair_f64(b)", *set, c.w,
                      c.h);
      expect_bytes_eq(wp_bb, wp_bb_ref, "window_sums_pair_f64(bb)", *set, c.w,
                      c.h);
      expect_bytes_eq(wp_ab, wp_ab_ref, "window_sums_pair_f64(ab)", *set, c.w,
                      c.h);

      std::vector<double> brow(n);
      std::vector<double> bcol(n);
      for (int y = 0; y < c.h; ++y) {
        set->blur_row_f64(c.fa.data() + static_cast<std::size_t>(y) * c.w,
                          brow.data() + static_cast<std::size_t>(y) * c.w,
                          c.w, taps.data(), radius);
        const auto rows = clamped_rows(c.fa.data(), c.w, c.h, y, radius);
        set->blur_col_f64(rows.data(), c.w, taps.data(), radius,
                          bcol.data() + static_cast<std::size_t>(y) * c.w);
      }
      expect_bytes_eq(brow, brow_ref, "blur_row_f64", *set, c.w, c.h);
      expect_bytes_eq(bcol, bcol_ref, "blur_col_f64", *set, c.w, c.h);
    }
  }
}

// blur_col_f64 takes its input rows as 2r+1 pointers and leaves the
// border to the caller, so near the top and bottom edges (and on rasters
// no taller than the radius, where every output row clamps at both ends)
// the same row pointer repeats.  Every backend must match scalar there,
// and scalar must match the direct clamped sum.
TEST(KernelParity, BlurColRowPointersAtBordersAndRepeats) {
  const auto sets = supported_backends();
  const KernelSet& ref = scalar_kernels();
  std::mt19937 rng(20261017);
  for (int radius = 1; radius <= 8; ++radius) {
    const std::vector<double> taps = random_taps(rng, radius);
    for (const int h : {1, 2, radius, radius + 1, 2 * radius + 1,
                        2 * radius + 3}) {
      for (const int w : {1, 2, 3, 5, 8, 13, 33}) {
        std::vector<double> src(static_cast<std::size_t>(w) * h);
        for (auto& v : src) v = static_cast<double>(rng() % 100000) / 99999.0;
        for (int y = 0; y < h; ++y) {
          const auto rows = clamped_rows(src.data(), w, h, y, radius);
          std::vector<double> want(static_cast<std::size_t>(w));
          for (int x = 0; x < w; ++x) {
            double acc = 0.0;
            for (int k = 0; k <= 2 * radius; ++k) {
              const int yy = std::clamp(y + k - radius, 0, h - 1);
              acc += taps[static_cast<std::size_t>(k)] *
                     src[static_cast<std::size_t>(yy) * w + x];
            }
            want[static_cast<std::size_t>(x)] = acc;
          }
          std::vector<double> got(static_cast<std::size_t>(w));
          ref.blur_col_f64(rows.data(), w, taps.data(), radius, got.data());
          expect_bytes_eq(got, want, "blur_col_f64 (direct sum)", ref, w, h);
          for (const KernelSet* set : sets) {
            set->blur_col_f64(rows.data(), w, taps.data(), radius,
                              got.data());
            expect_bytes_eq(got, want, "blur_col_f64 (row pointers)", *set,
                            w, h);
          }
        }
        // One row repeated 2r+1 times: a flat column of every value.
        const std::vector<const double*> same(taps.size(), src.data());
        std::vector<double> want(static_cast<std::size_t>(w));
        ref.blur_col_f64(same.data(), w, taps.data(), radius, want.data());
        for (const KernelSet* set : sets) {
          std::vector<double> got(static_cast<std::size_t>(w));
          set->blur_col_f64(same.data(), w, taps.data(), radius, got.data());
          expect_bytes_eq(got, want, "blur_col_f64 (one repeated row)", *set,
                          w, h);
        }
      }
    }
  }
}

// The vector blurs run 16 (AVX2) or 8 (SSE4.2) outputs per step with
// the taps broadcast once per call, up to a tap budget; longer filters
// and the leftover outputs take narrower loops.  Widths here put the
// interior (w - 2r outputs for the row blur, w for the column blur) on
// both sides of every step width, and radii 9..12 overrun the budget.
TEST(KernelParity, BlurUnrolledBodyWidthsAndRadii) {
  const auto sets = supported_backends();
  const KernelSet& ref = scalar_kernels();
  std::mt19937 rng(20261018);
  for (const int radius : {1, 2, 3, 4, 8, 9, 10, 12}) {
    const std::vector<double> taps = random_taps(rng, radius);
    for (const int body : {1, 7, 8, 9, 15, 16, 17, 23, 31, 32, 33, 47, 48,
                           49, 63, 64, 65}) {
      for (const int w : {body, body + 2 * radius}) {
        const int h = 2 * radius + 3;
        std::vector<double> src(static_cast<std::size_t>(w) * h);
        for (auto& v : src) v = static_cast<double>(rng() % 100000) / 99999.0;
        std::vector<double> row_want(static_cast<std::size_t>(w));
        std::vector<double> col_want(static_cast<std::size_t>(w));
        ref.blur_row_f64(src.data(), row_want.data(), w, taps.data(), radius);
        const int y = h / 2;
        const auto rows = clamped_rows(src.data(), w, h, y, radius);
        ref.blur_col_f64(rows.data(), w, taps.data(), radius,
                         col_want.data());
        for (const KernelSet* set : sets) {
          SCOPED_TRACE("radius " + std::to_string(radius));
          std::vector<double> got(static_cast<std::size_t>(w));
          set->blur_row_f64(src.data(), got.data(), w, taps.data(), radius);
          expect_bytes_eq(got, row_want, "blur_row_f64 (body widths)", *set,
                          w, h);
          set->blur_col_f64(rows.data(), w, taps.data(), radius, got.data());
          expect_bytes_eq(got, col_want, "blur_col_f64 (body widths)", *set,
                          w, h);
        }
      }
    }
  }
}

// window_sums_* take a group of 1..4 rows whose `above` rows chain
// (row r's above is row r-1's output).  A raster streamed in groups of
// every size, with each group's above row the previous group's last
// output and the output rows scattered as in the streamed evaluator's
// ring, must build exactly the table the reference loop builds one row
// at a time.
TEST(KernelParity, WindowSumGroupsChainLikeSingleRows) {
  const auto sets = supported_backends();
  const KernelSet& ref = scalar_kernels();
  std::mt19937 rng(20261019);
  std::uniform_real_distribution<double> val(-1.0, 1.0);
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4},
        std::size_t{5}, std::size_t{7}, std::size_t{8}, std::size_t{13},
        std::size_t{16}, std::size_t{33}, std::size_t{1283}}) {
    const int h = 11;
    std::vector<double> a(n * h);
    std::vector<double> b(n * h);
    for (auto& v : a) v = val(rng);
    for (auto& v : b) v = val(rng);
    std::vector<double> seed_row(n);
    for (auto& v : seed_row) v = val(rng) * 100.0;

    // Reference: one row per call, table row y+1 from row y.
    std::vector<std::vector<double>> want(6, std::vector<double>(n * (h + 1)));
    for (auto& t : want) std::copy(seed_row.begin(), seed_row.end(), t.begin());
    for (int y = 0; y < h; ++y) {
      const double* a_row = a.data() + y * n;
      const double* b_row = b.data() + y * n;
      const auto at = [&](int t, int row) { return want[t].data() + row * n; };
      double* out_s = at(0, y + 1);
      double* out_ss = at(1, y + 1);
      ref.window_sums_single_f64(&a_row, 1, n, at(0, y), at(1, y), &out_s,
                                 &out_ss);
      double* out_b = at(2, y + 1);
      double* out_bb = at(3, y + 1);
      double* out_ab = at(4, y + 1);
      ref.window_sums_pair_f64(&a_row, &b_row, 1, n, at(2, y), at(3, y),
                               at(4, y), &out_b, &out_bb, &out_ab);
    }

    for (const KernelSet* set : sets) {
      for (int pattern = 0; pattern < 4; ++pattern) {
        // Table row t lives in ring slot (t * 5) % 12: rows of one group
        // are never adjacent in memory.
        std::vector<std::vector<double>> ring(6,
                                              std::vector<double>(n * 12));
        const auto slot = [&](int t, int row) {
          return ring[t].data() + static_cast<std::size_t>((row * 5) % 12) * n;
        };
        for (int t = 0; t < 5; ++t) {
          std::copy(seed_row.begin(), seed_row.end(), slot(t, 0));
        }
        std::vector<std::vector<double>> got(5,
                                             std::vector<double>(n * (h + 1)));
        for (int y0 = 0; y0 < h;) {
          const int count = std::min(h - y0, 1 + (pattern + y0) % 4);
          const double* a_rows[4];
          const double* b_rows[4];
          double* outs[5][4];
          for (int j = 0; j < count; ++j) {
            a_rows[j] = a.data() + (y0 + j) * n;
            b_rows[j] = b.data() + (y0 + j) * n;
            for (int t = 0; t < 5; ++t) outs[t][j] = slot(t, y0 + 1 + j);
          }
          set->window_sums_single_f64(a_rows, count, n, slot(0, y0),
                                      slot(1, y0), outs[0], outs[1]);
          set->window_sums_pair_f64(a_rows, b_rows, count, n, slot(2, y0),
                                    slot(3, y0), slot(4, y0), outs[2],
                                    outs[3], outs[4]);
          for (int j = 0; j < count; ++j) {
            for (int t = 0; t < 5; ++t) {
              std::copy(outs[t][j], outs[t][j] + n,
                        got[t].data() + (y0 + 1 + j) * n);
            }
          }
          y0 += count;
        }
        static const char* const kNames[] = {
            "window_sums_single_f64(s)", "window_sums_single_f64(ss)",
            "window_sums_pair_f64(b)", "window_sums_pair_f64(bb)",
            "window_sums_pair_f64(ab)"};
        for (int t = 0; t < 5; ++t) {
          // Row 0 is the seed row in `want`; compare table rows 1..h.
          const std::vector<double> want_rows(want[t].begin() + n,
                                              want[t].end());
          const std::vector<double> got_rows(got[t].begin() + n,
                                             got[t].end());
          SCOPED_TRACE("pattern " + std::to_string(pattern));
          expect_bytes_eq(got_rows, want_rows, kNames[t], *set,
                          static_cast<int>(n), h);
        }
      }
    }
  }
}

// The tuned histogram (8 sub-tables + uniform-run shortcut) only
// engages above its 4096-pixel cutoff, which the random fuzz shapes
// stay below — these rasters are big enough to drive the real SIMD
// path, with content picked to hit every branch: whole-raster runs
// (shortcut fires on every block), alternating run/noise stripes
// (shortcut fires and misses within one call), few-value clusters
// (sub-table merge under same-bin pressure) and full-range noise.
// Deep-pixel (u16) kernels: lut_apply_u16 / sum_u16 are pure integer
// kernels, so every backend must match scalar bit-for-bit; the plain
// histogram_u16 must match an independent per-sample count.  The fuzz
// covers short and long rasters (up to ~64k samples), both supported
// deep lattices (1024 and 65536 levels), and content shapes: fully
// uniform blocks, few-value clusters, and full-range noise.
TEST(KernelParity, FuzzU16KernelsBitIdenticalToScalar) {
  const auto sets = supported_backends();
  ASSERT_FALSE(sets.empty());
  const KernelSet& ref = scalar_kernels();
  std::mt19937 rng(20260808);

  for (int iter = 0; iter < 60; ++iter) {
    const int levels = (iter % 2 == 0) ? 1024 : 65536;
    const std::uint32_t maxv = static_cast<std::uint32_t>(levels - 1);
    // Half the cases are short rasters, half long ones (up to ~64k
    // samples).
    const std::size_t n = (iter % 2 == 0)
                              ? 1 + rng() % 2047
                              : 2048 + rng() % 62000;
    std::vector<std::uint16_t> src(n);
    const int mode = static_cast<int>(rng() % 4);
    const std::uint16_t flat = static_cast<std::uint16_t>(rng() % levels);
    const std::uint16_t lo =
        static_cast<std::uint16_t>(rng() % (levels / 2));
    for (std::size_t i = 0; i < n; ++i) {
      switch (mode) {
        case 0: src[i] = flat; break;  // uniform blocks end to end
        case 1: src[i] = static_cast<std::uint16_t>(lo + rng() % 3); break;
        case 2:
          // Long uniform runs with rare breaks — the probe's fast path
          // with occasional fallback recounts.
          src[i] = (i % 700 == 123)
                       ? static_cast<std::uint16_t>(rng() % levels)
                       : flat;
          break;
        default: src[i] = static_cast<std::uint16_t>(rng() % levels); break;
      }
    }
    std::vector<std::uint16_t> lut(static_cast<std::size_t>(levels));
    for (int v = 0; v < levels; ++v) {
      lut[static_cast<std::size_t>(v)] =
          static_cast<std::uint16_t>((static_cast<std::uint32_t>(v) * 191 +
                                      13) % (maxv + 1));
    }

    std::vector<std::uint64_t> counts_ref(static_cast<std::size_t>(levels),
                                          7);  // accumulate contract
    for (const std::uint16_t v : src) ++counts_ref[v];
    std::vector<std::uint64_t> counts(static_cast<std::size_t>(levels), 7);
    hebs::kernels::histogram_u16(src.data(), n, counts.data());
    EXPECT_EQ(counts, counts_ref)
        << "histogram_u16 miscounts (n=" << n << ", levels=" << levels
        << ")";
    std::vector<std::uint16_t> lut_ref(n);
    ref.lut_apply_u16(src.data(), n, lut.data(), lut_ref.data());
    const std::uint64_t sum_ref = ref.sum_u16(src.data(), n);

    for (const KernelSet* set : sets) {
      std::vector<std::uint16_t> lut_out(n);
      set->lut_apply_u16(src.data(), n, lut.data(), lut_out.data());
      expect_bytes_eq(lut_out, lut_ref, "lut_apply_u16", *set,
                      static_cast<int>(n), levels);

      EXPECT_EQ(set->sum_u16(src.data(), n), sum_ref)
          << "sum_u16 diverges from scalar on backend " << set->name
          << " (n=" << n << ", levels=" << levels << ")";
    }
  }
}

TEST(KernelParity, LargeRasterHistogramAcrossBackends) {
  const auto sets = supported_backends();
  const KernelSet& ref = scalar_kernels();
  std::mt19937 rng(42);
  const std::size_t n = 96 * 96;  // comfortably above the 4096 cutoff
  std::vector<std::vector<std::uint8_t>> contents;
  contents.push_back(std::vector<std::uint8_t>(n, 24));  // uniform runs
  {
    std::vector<std::uint8_t> stripes(n);
    for (std::size_t i = 0; i < n; ++i) {
      stripes[i] = (i / 160) % 2 == 0
                       ? std::uint8_t{200}
                       : static_cast<std::uint8_t>(rng() & 0xFF);
    }
    contents.push_back(std::move(stripes));
  }
  {
    std::vector<std::uint8_t> clustered(n);
    for (auto& v : clustered) v = static_cast<std::uint8_t>(64 + rng() % 3);
    contents.push_back(std::move(clustered));
  }
  {
    std::vector<std::uint8_t> noise(n);
    for (auto& v : noise) v = static_cast<std::uint8_t>(rng() & 0xFF);
    contents.push_back(std::move(noise));
  }
  // Odd tail: also run every content at a length that leaves a
  // sub-block remainder.
  for (const auto& content : contents) {
    for (const std::size_t len : {n, n - 37}) {
      std::vector<std::uint64_t> want(256, 3);
      ref.histogram_u8(content.data(), len, want.data());
      for (const KernelSet* set : sets) {
        std::vector<std::uint64_t> got(256, 3);
        set->histogram_u8(content.data(), len, got.data());
        EXPECT_EQ(got, want) << "histogram_u8 diverges on " << set->name
                             << " at n=" << len;
      }
    }
  }
}

// The SIMD luma kernels round with floor(x + 0.5) (or FRINTA); scalar
// uses std::round.  The identity holds over the whole BT.601 domain —
// this sweep pins the boundary-heavy slices (every r, g against the
// extreme and mid blues) for every backend.
TEST(KernelParity, LumaBoundarySweep) {
  const auto sets = supported_backends();
  const KernelSet& ref = scalar_kernels();
  const std::uint8_t blues[] = {0, 17, 128, 254, 255};
  std::vector<std::uint8_t> rgb;
  rgb.reserve(256 * 256 * 5 * 3);
  for (int r = 0; r < 256; ++r) {
    for (int g = 0; g < 256; ++g) {
      for (std::uint8_t b : blues) {
        rgb.push_back(static_cast<std::uint8_t>(r));
        rgb.push_back(static_cast<std::uint8_t>(g));
        rgb.push_back(b);
      }
    }
  }
  const std::size_t n = rgb.size() / 3;
  std::vector<std::uint8_t> want(n);
  ref.luma_bt601_rgb8(rgb.data(), n, want.data());
  for (const KernelSet* set : sets) {
    std::vector<std::uint8_t> got(n);
    set->luma_bt601_rgb8(rgb.data(), n, got.data());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), n), 0)
        << "luma sweep diverges on " << set->name;
  }
}

// Strided interleaved-RGB ImageView ingestion must be bit-identical
// across backends (the per-row luma kernel under the hood).
TEST(KernelParity, StridedRgbViewAcrossBackends) {
  const BackendGuard guard;
  const int w = 37;
  const int h = 9;
  const int stride = 3 * w + 11;  // padded rows
  std::mt19937 rng(7);
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(stride) * h);
  for (auto& v : buf) v = static_cast<std::uint8_t>(rng() & 0xFF);
  const hebs::ImageView view =
      hebs::ImageView::rgb8(buf.data(), w, h, stride);
  ASSERT_TRUE(view.validate().ok());

  ASSERT_EQ(set_backend("scalar"), SetBackendResult::kOk);
  const hebs::image::GrayImage want = hebs::api::materialize_gray(view);
  for (const KernelSet* set : supported_backends()) {
    ASSERT_EQ(set_backend(set->name), SetBackendResult::kOk);
    const hebs::image::GrayImage got = hebs::api::materialize_gray(view);
    EXPECT_TRUE(got == want) << "strided RGB view diverges on " << set->name;
  }
}

// One stride-1 row of UIQI window indices: the decision-path metric's
// inner loop (DESIGN.md §11).  Tables are genuine prefix rows (so every
// rectangle sum is the sum the metric would see) over random content,
// with degenerate flat windows mixed in to pin the zero-variance
// branches; q_out must match the scalar reference bit for bit.
TEST(KernelParity, UiqiQRowAcrossBackends) {
  const auto sets = supported_backends();
  const KernelSet& ref = scalar_kernels();
  std::mt19937 rng(20260807);
  std::uniform_real_distribution<double> val(0.0, 1.0);
  for (int iter = 0; iter < 60; ++iter) {
    const int block = 2 + static_cast<int>(rng() % 10);
    const std::size_t n_win = 1 + rng() % 70;
    const std::size_t cols = n_win + static_cast<std::size_t>(block);
    const double n_px = static_cast<double>(block) * block;
    const bool flat = iter % 5 == 0;  // degenerate: constant rasters

    std::vector<double> mean_a(n_win);
    std::vector<double> var_a(n_win);
    for (std::size_t x = 0; x < n_win; ++x) {
      mean_a[x] = flat ? 0.25 : val(rng);
      var_a[x] = flat ? 0.0 : val(rng) * 0.1;
    }
    // Prefix rows: top is a prefix-sum row, bot adds one more
    // positive band so every rect(x) is positive.
    std::vector<double> b_top(cols + 1, 0.0);
    std::vector<double> b_bot(cols + 1, 0.0);
    std::vector<double> bb_top(cols + 1, 0.0);
    std::vector<double> bb_bot(cols + 1, 0.0);
    std::vector<double> ab_top(cols + 1, 0.0);
    std::vector<double> ab_bot(cols + 1, 0.0);
    for (std::size_t x = 0; x < cols; ++x) {
      const double b = flat ? 0.5 : val(rng);
      const double a = flat ? 0.25 : val(rng);
      b_top[x + 1] = b_top[x] + b * 0.3;
      b_bot[x + 1] = b_bot[x] + b;
      bb_top[x + 1] = bb_top[x] + b * b * 0.3;
      bb_bot[x + 1] = bb_bot[x] + b * b;
      ab_top[x + 1] = ab_top[x] + a * b * 0.3;
      ab_bot[x + 1] = ab_bot[x] + a * b;
    }

    std::vector<double> q_ref(n_win);
    ref.uiqi_q_row_f64(mean_a.data(), var_a.data(), b_top.data(),
                       b_bot.data(), bb_top.data(), bb_bot.data(),
                       ab_top.data(), ab_bot.data(), n_win, block, n_px,
                       q_ref.data());
    for (const KernelSet* set : sets) {
      std::vector<double> q(n_win);
      set->uiqi_q_row_f64(mean_a.data(), var_a.data(), b_top.data(),
                          b_bot.data(), bb_top.data(), bb_bot.data(),
                          ab_top.data(), ab_bot.data(), n_win, block, n_px,
                          q.data());
      EXPECT_EQ(std::memcmp(q.data(), q_ref.data(), n_win * sizeof(double)),
                0)
          << "uiqi_q_row_f64 diverges on " << set->name << " (iter " << iter
          << ", block " << block << ", n_win " << n_win << ")";
    }
  }
}

/// Prefix rows whose window rectangle sums (block wide) are the
/// column values' sums: top stays zero, bot[x] = col[0] + ... +
/// col[x-1].
std::vector<double> prefix_of(const std::vector<double>& col) {
  std::vector<double> out(col.size() + 1, 0.0);
  for (std::size_t x = 0; x < col.size(); ++x) out[x + 1] = out[x] + col[x];
  return out;
}

// Windows whose lanes disagree on the q branch: flat runs of test value
// 0.5 against a flat reference (var_b == 0 exactly, so d12 == 0 and q
// takes the 2·mean_prod/denom1 fallback), zero runs against a zero mean
// (denom1 == 0: q = 1), and live windows in between, so one 4-window
// vector mixes live and degenerate lanes and the deferred fallback
// division runs.  Every block 2..11 (n_px 4, 16 and 64 take the
// exact-reciprocal path).
TEST(KernelParity, UiqiQRowMixedLanesEveryBlock) {
  const auto sets = supported_backends();
  const KernelSet& ref = scalar_kernels();
  std::mt19937 rng(20261020);
  // Multiples of 1/64: every prefix and rectangle sum below is exact, so
  // a flat window's variance is exactly zero.
  const auto val = [](std::mt19937& g) {
    return static_cast<double>(1 + g() % 64) / 64.0;
  };
  const double q_fallback = 2.0 * (0.25 * 0.5) / (0.25 * 0.25 + 0.5 * 0.5);
  for (int block = 2; block <= 11; ++block) {
    const double n_px = static_cast<double>(block) * block;
    std::size_t branch_hits[3] = {0, 0, 0};  // fallback, q = 1, live
    for (int iter = 0; iter < 6; ++iter) {
      // Column values (block rows summed) in segments: flat 0.5, flat 0,
      // or random, each segment block + 0..3 columns long.
      std::vector<double> col_b;
      std::vector<int> kind;
      for (int segment = iter; col_b.size() < 90; ++segment) {
        const int k = segment % 3;
        const std::size_t len = static_cast<std::size_t>(block) + rng() % 4;
        for (std::size_t j = 0; j < len; ++j) {
          const double v = k == 0 ? 0.5 : (k == 1 ? 0.0 : val(rng));
          col_b.push_back(v * block);
          kind.push_back(k);
        }
      }
      const std::size_t n_win = col_b.size() - static_cast<std::size_t>(block) + 1;
      std::vector<double> col_bb(col_b.size());
      std::vector<double> col_ab(col_b.size());
      for (std::size_t j = 0; j < col_b.size(); ++j) {
        const double v = col_b[j] / block;
        col_bb[j] = v * v * block;
        col_ab[j] = v * 0.25 * block;
      }
      std::vector<double> mean_a(n_win);
      std::vector<double> var_a(n_win);
      for (std::size_t x = 0; x < n_win; ++x) {
        // A window inside one flat segment gets a flat reference.
        bool flat = true;
        for (int j = 1; j < block; ++j) {
          flat = flat && kind[x + j] == kind[x] && kind[x] != 2;
        }
        mean_a[x] = flat && kind[x] == 1 ? 0.0 : 0.25;
        var_a[x] = flat ? 0.0 : val(rng) * 0.1;
      }
      const std::vector<double> zero(col_b.size() + 1, 0.0);
      const std::vector<double> b_bot = prefix_of(col_b);
      const std::vector<double> bb_bot = prefix_of(col_bb);
      const std::vector<double> ab_bot = prefix_of(col_ab);
      std::vector<double> q_ref(n_win);
      ref.uiqi_q_row_f64(mean_a.data(), var_a.data(), zero.data(),
                         b_bot.data(), zero.data(), bb_bot.data(),
                         zero.data(), ab_bot.data(), n_win, block, n_px,
                         q_ref.data());
      for (const double q : q_ref) {
        ++branch_hits[q == q_fallback ? 0 : (q == 1.0 ? 1 : 2)];
      }
      for (const KernelSet* set : sets) {
        std::vector<double> q(n_win);
        set->uiqi_q_row_f64(mean_a.data(), var_a.data(), zero.data(),
                            b_bot.data(), zero.data(), bb_bot.data(),
                            zero.data(), ab_bot.data(), n_win, block, n_px,
                            q.data());
        EXPECT_EQ(std::memcmp(q.data(), q_ref.data(), n_win * sizeof(double)),
                  0)
            << "uiqi_q_row_f64 (mixed lanes) diverges on " << set->name
            << " (block " << block << ", iter " << iter << ")";
      }
    }
    // The fixture must reach every branch.
    for (const std::size_t hits : branch_hits) {
      EXPECT_GT(hits, 0u) << "block " << block;
    }
  }
}

// The exact-reciprocal rule: with n_px a power of two a backend may
// scale rect sums by 1/n_px instead of dividing.  Rect sums of ±0,
// subnormals, the smallest normal and values near the top of the range
// must come out bit-identical to the reference division, for power-of-
// two n_px (1 .. 2^20) and for others.
TEST(KernelParity, UiqiQRowReciprocalRuleOnSpecialSums) {
  const auto sets = supported_backends();
  const KernelSet& ref = scalar_kernels();
  std::mt19937 rng(20261021);
  static const double kSpecials[] = {
      0.0,      -0.0,     5e-324,   -5e-324,   1e-310,  -3.3e-309,
      2.2250738585072014e-308,    1e300,     -1e300,  1.7e308,
      -1.7e308, 0.75,     -0.3,     64.0,      1e-200};
  const auto pick = [&] {
    return kSpecials[rng() % (sizeof(kSpecials) / sizeof(kSpecials[0]))];
  };
  for (const double n_px : {1.0, 2.0, 4.0, 16.0, 64.0, 1024.0, 1048576.0,
                            9.0, 25.0, 49.0, 100.0, 121.0, 0.75}) {
    for (const int block : {2, 8}) {
      const std::size_t n_win = 37;
      const std::size_t cols = n_win + static_cast<std::size_t>(block) + 1;
      std::vector<std::vector<double>> t(6, std::vector<double>(cols));
      for (auto& row : t) {
        for (auto& v : row) v = pick();
      }
      std::vector<double> mean_a(n_win);
      std::vector<double> var_a(n_win);
      for (std::size_t x = 0; x < n_win; ++x) {
        mean_a[x] = pick();
        var_a[x] = std::fabs(pick());
      }
      std::vector<double> q_ref(n_win);
      ref.uiqi_q_row_f64(mean_a.data(), var_a.data(), t[0].data(),
                         t[1].data(), t[2].data(), t[3].data(), t[4].data(),
                         t[5].data(), n_win, block, n_px, q_ref.data());
      for (const KernelSet* set : sets) {
        std::vector<double> q(n_win);
        set->uiqi_q_row_f64(mean_a.data(), var_a.data(), t[0].data(),
                            t[1].data(), t[2].data(), t[3].data(),
                            t[4].data(), t[5].data(), n_win, block, n_px,
                            q.data());
        EXPECT_EQ(std::memcmp(q.data(), q_ref.data(), n_win * sizeof(double)),
                  0)
            << "uiqi_q_row_f64 (special sums) diverges on " << set->name
            << " (n_px " << n_px << ", block " << block << ")";
      }
    }
  }
}

// The PLC DP inner scan: lowest-j argmin of prev[j] + chord error.
// The selection rule (strictly smaller value, or equal value at
// smaller j) makes the result independent of seed and of pruning, so
// every backend must return the identical (value, argmin) pair — which
// this fuzz checks across seeds, j_begin offsets and prev rows salted
// with infinities (unreachable DP states).
TEST(KernelParity, PlcScanAcrossBackends) {
  const auto sets = supported_backends();
  const KernelSet& ref = scalar_kernels();
  std::mt19937 rng(20260808);
  std::uniform_real_distribution<double> val(0.0, 1.0);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (int iter = 0; iter < 80; ++iter) {
    const std::size_t n = 3 + rng() % 64;
    std::vector<double> px(n);
    std::vector<double> py(n);
    double x = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      x += 1e-3 + val(rng);  // strictly increasing abscissae
      px[k] = x;
      py[k] = iter % 7 == 0 ? 0.5 : val(rng);  // collinear ties sometimes
    }
    std::vector<double> sx(n + 1, 0.0);
    std::vector<double> sy(n + 1, 0.0);
    std::vector<double> sxx(n + 1, 0.0);
    std::vector<double> syy(n + 1, 0.0);
    std::vector<double> sxy(n + 1, 0.0);
    for (std::size_t k = 0; k < n; ++k) {
      sx[k + 1] = sx[k] + px[k];
      sy[k + 1] = sy[k] + py[k];
      sxx[k + 1] = sxx[k] + px[k] * px[k];
      syy[k + 1] = syy[k] + py[k] * py[k];
      sxy[k + 1] = sxy[k] + px[k] * py[k];
    }
    std::vector<double> prev(n);
    for (auto& v : prev) v = rng() % 5 == 0 ? kInf : val(rng);

    const std::size_t i = 2 + rng() % (n - 2);
    const std::size_t j_begin = rng() % (i - 1);
    prev[j_begin] = val(rng);  // at least one finite candidate
    PlcScanArgs args{};
    args.px = px.data();
    args.py = py.data();
    args.sx = sx.data();
    args.sy = sy.data();
    args.sxx = sxx.data();
    args.syy = syy.data();
    args.sxy = sxy.data();
    args.prev = prev.data();
    args.pix = px[i];
    args.piy = py[i];
    args.sxi = sx[i + 1];
    args.syi = sy[i + 1];
    args.sxxi = sxx[i + 1];
    args.syyi = syy[i + 1];
    args.sxyi = sxy[i + 1];
    args.i = i;
    args.j_begin = j_begin;

    args.j_seed = j_begin;
    std::size_t j_ref = 0;
    const double v_ref = ref.plc_scan_f64(&args, &j_ref);
    for (const KernelSet* set : sets) {
      // The seed is a performance hint only: sweep it across the scan
      // interval and require the identical (value, argmin) regardless.
      for (const std::size_t seed :
           {j_begin, (j_begin + i - 1) / 2, i - 1}) {
        args.j_seed = seed;
        std::size_t j = 0;
        const double v = set->plc_scan_f64(&args, &j);
        EXPECT_EQ(std::memcmp(&v, &v_ref, sizeof v), 0)
            << "plc_scan_f64 value diverges on " << set->name << " (iter "
            << iter << ", seed " << seed << ")";
        EXPECT_EQ(j, j_ref) << "plc_scan_f64 argmin diverges on "
                            << set->name << " (iter " << iter << ", seed "
                            << seed << ")";
      }
    }
  }
}

}  // namespace
}  // namespace hebs::kernels
