// Kernel dispatch benchmark: per-primitive throughput of every
// compiled-in, CPU-supported backend against the scalar reference.
//
// Measures the per-pixel primitives the pipeline dispatches through
// src/kernels/ (histogram accumulation, 8-bit/16-bit/f64 LUT apply,
// BT.601 luma, byte/sample sums, blur rows/columns, the grouped
// integral rows and the UIQI q row of the streamed probe) and one whole
// `percent_mapped` probe on a realistic synthetic frame, prints a
// speedup table, verifies that every backend's output is bit-identical
// to scalar on the bench data, and writes BENCH_kernels.json (one
// record per kernel and backend: the median time per frame over the
// timed reps, its quartiles, and where it ran; a run replaces the
// records of its own frame size) for cross-PR perf tracking.
//
// The headline number is the combined histogram+LUT speedup — the two
// primitives every displayed frame pays (Fig. 4's per-frame flow).
//
// Flags:
//   --size N                  square frame edge (default 1024)
//   --width W --height H      a non-square frame (e.g. 1280 x 720)
//   --reps N                  timed repetitions per kernel (default auto)
//   --min-combined-speedup X  exit 1 unless the best backend reaches X
//                             on histogram+LUT vs scalar (default 0 =
//                             report only; the PR gate uses 3.0)
// Exit code 1 also when any backend's output differs from scalar.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "hebs/advanced/image.h"
#include "hebs/advanced/kernels.h"
#include "hebs/advanced/quality.h"
#include "hebs/advanced/transform.h"

namespace {

using namespace hebs;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Per-call seconds of fn(): one warm-up call, then `reps` timed calls.
struct CallTimes {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
};

template <typename Fn>
CallTimes time_per_call(int reps, Fn&& fn) {
  fn();
  std::vector<double> t(static_cast<std::size_t>(reps));
  for (double& v : t) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    v = seconds_since(t0);
  }
  std::sort(t.begin(), t.end());
  const auto at = [&](double q) {
    return t[static_cast<std::size_t>(q * static_cast<double>(t.size() - 1))];
  };
  return {at(0.5), at(0.25), at(0.75)};
}

/// Tables and arrays of the streamed probe's integral stage at one
/// frame size: a ring of block + kWindowSumRows rows per table (as the
/// stream keeps them), the reference means/variances of every window,
/// and the full b, b·b, a·b tables the q-row case reads.
struct ProbeTables {
  static constexpr int kBlock = 8;
  int w = 0;
  int h = 0;
  std::size_t stride = 0;
  std::vector<double> ring;     // 3 tables x (kBlock + 4) rows
  std::vector<double> full;     // 3 tables x (h + 1) rows
  std::vector<double> mean_a;   // (w - 7) x (h - 7)
  std::vector<double> var_a;

  double* ring_row(int table, int t) {
    const int slots = kBlock + kernels::kWindowSumRows;
    return ring.data() +
           (static_cast<std::size_t>(table) * slots +
            static_cast<std::size_t>(t % slots)) *
               stride;
  }
  double* full_row(int table, int t) {
    return full.data() + (static_cast<std::size_t>(table) * (h + 1) +
                          static_cast<std::size_t>(t)) *
                             stride;
  }
};

/// One pass of the grouped pair window sums over a w x h raster pair,
/// four rows per call into the ring.
void window_sums_pass(const kernels::KernelSet& k, const double* a,
                      const double* b, ProbeTables& t) {
  constexpr int kGroup = kernels::kWindowSumRows;
  const auto w = static_cast<std::size_t>(t.w);
  for (int y0 = 0; y0 < t.h; y0 += kGroup) {
    const int count = std::min(kGroup, t.h - y0);
    const double* a_rows[kGroup];
    const double* b_rows[kGroup];
    double* out[3][kGroup];
    for (int j = 0; j < count; ++j) {
      a_rows[j] = a + static_cast<std::size_t>(y0 + j) * w;
      b_rows[j] = b + static_cast<std::size_t>(y0 + j) * w;
      for (int tb = 0; tb < 3; ++tb) out[tb][j] = t.ring_row(tb, y0 + 1 + j) + 1;
    }
    k.window_sums_pair_f64(a_rows, b_rows, count, w, t.ring_row(0, y0) + 1,
                           t.ring_row(1, y0) + 1, t.ring_row(2, y0) + 1,
                           out[0], out[1], out[2]);
  }
}

/// The stride-1 q rows of every window row, from the full tables;
/// row_done(wy, q) sees each row.
template <typename RowDone>
void q_rows_pass(const kernels::KernelSet& k, ProbeTables& t, double* q,
                 RowDone&& row_done) {
  constexpr int kB = ProbeTables::kBlock;
  const std::size_t wx = static_cast<std::size_t>(t.w - kB + 1);
  for (int wy = 0; wy + kB <= t.h; ++wy) {
    k.uiqi_q_row_f64(t.mean_a.data() + static_cast<std::size_t>(wy) * wx,
                     t.var_a.data() + static_cast<std::size_t>(wy) * wx,
                     t.full_row(0, wy), t.full_row(0, wy + kB),
                     t.full_row(1, wy), t.full_row(1, wy + kB),
                     t.full_row(2, wy), t.full_row(2, wy + kB), wx, kB,
                     static_cast<double>(kB) * kB, q);
    row_done(wy, q);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hebs;
  int width = 1024;
  int height = 1024;
  int reps = 0;
  double min_combined = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--size=", 7) == 0) {
      width = height = std::max(64, std::atoi(argv[i] + 7));
    } else if (std::strcmp(argv[i], "--size") == 0 && i + 1 < argc) {
      width = height = std::max(64, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--width") == 0 && i + 1 < argc) {
      width = std::max(64, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--height") == 0 && i + 1 < argc) {
      height = std::max(64, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::max(1, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--min-combined-speedup") == 0 &&
               i + 1 < argc) {
      min_combined = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  const std::size_t n = static_cast<std::size_t>(width) *
                        static_cast<std::size_t>(height);
  if (reps == 0) {
    reps = std::max(5, static_cast<int>(80'000'000 / n));
  }
  const std::string dims = std::to_string(width) + "x" + std::to_string(height);
  const bench::RunContext context = bench::run_context();

  bench::print_header(
      "Kernel dispatch throughput (" + dims + ", median of " +
          std::to_string(reps) + " reps)",
      "SIMD kernel subsystem: hot per-pixel primitives vs scalar");
  std::printf("%s\n", context.describe().c_str());

  // Bench data.  The content-sensitive kernels (histogram, 8-bit LUT)
  // run over a three-frame mix — a dark flat frame, a smooth gradient
  // and a textured photo — because that is what video content is made
  // of, and the scalar loops' cost is content-dependent (same-bin
  // store-forwarding chains on flat regions).  The remaining kernels
  // use the photo frame (a crop of the square test photo).
  const image::GrayImage photo =
      image::make_usid(image::UsidId::kLena, std::max(width, height));
  image::GrayImage frame(width, height);
  image::GrayImage gradient(width, height);
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      frame(x, y) = photo(x, y);
      gradient(x, y) = static_cast<std::uint8_t>((x + y) * 255 /
                                                 (width + height - 2));
    }
  }
  const image::GrayImage flat(width, height, 24);
  const image::GrayImage* mix[3] = {&flat, &gradient, &frame};
  const image::RgbImage rgb = image::RgbImage::from_gray(frame);
  std::uint8_t lut8[256];
  for (int i = 0; i < 256; ++i) {
    lut8[i] = static_cast<std::uint8_t>((i * 150) / 255);
  }
  // f64 rasters: the photo (the reference side) and its backlight-scaled
  // display (the test side), both normalized.
  std::vector<double> fa(n);
  std::vector<double> fb(n);
  for (std::size_t i = 0; i < n; ++i) {
    fa[i] = static_cast<double>(frame.pixels()[i]) / 255.0;
    fb[i] = static_cast<double>(lut8[frame.pixels()[i]]) / 255.0;
  }

  // Deep-pixel bench data: the photo frame ratio-widened onto the
  // 10-bit lattice (the depth the Session's deep path targets first),
  // with the same backlight-scaling LUT shape.
  constexpr int kDeepLevels = 1024;
  const image::GrayImage16 frame16 =
      image::GrayImage16::widen(frame, kDeepLevels);
  std::vector<std::uint16_t> lut16(kDeepLevels);
  for (int i = 0; i < kDeepLevels; ++i) {
    lut16[i] = static_cast<std::uint16_t>((i * 600) / (kDeepLevels - 1));
  }
  // The probe's own filter: the CSF prefilter of the default HVS
  // options (sigma 1, seven taps).
  const std::vector<double> csf = [] {
    const auto t = quality::csf_taps(quality::HvsOptions{});
    return std::vector<double>(t.begin(), t.end());
  }();
  const double* taps = csf.data();
  const int radius = static_cast<int>(csf.size() / 2);

  // The streamed probe's integral stage: genuine b, b·b, a·b tables and
  // reference window moments of the photo pair (scalar-built).
  ProbeTables tables;
  {
    constexpr int kB = ProbeTables::kBlock;
    tables.w = width;
    tables.h = height;
    tables.stride = static_cast<std::size_t>(width) + 1;
    tables.ring.assign(3 * (kB + kernels::kWindowSumRows) * tables.stride,
                       0.0);
    tables.full.assign(3 * (static_cast<std::size_t>(height) + 1) *
                           tables.stride,
                       0.0);
    std::vector<double> sa((static_cast<std::size_t>(height) + 1) *
                           tables.stride);
    std::vector<double> saa(sa.size());
    const auto& ref = kernels::scalar_kernels();
    for (int y = 0; y < height; ++y) {
      const double* a_row = fa.data() + static_cast<std::size_t>(y) * width;
      const double* b_row = fb.data() + static_cast<std::size_t>(y) * width;
      double* out[3];
      for (int tb = 0; tb < 3; ++tb) out[tb] = tables.full_row(tb, y + 1) + 1;
      ref.window_sums_pair_f64(&a_row, &b_row, 1, width,
                               tables.full_row(0, y) + 1,
                               tables.full_row(1, y) + 1,
                               tables.full_row(2, y) + 1, &out[0], &out[1],
                               &out[2]);
      double* os = sa.data() + (y + 1) * tables.stride + 1;
      double* oss = saa.data() + (y + 1) * tables.stride + 1;
      ref.window_sums_single_f64(&a_row, 1, width,
                                 sa.data() + y * tables.stride + 1,
                                 saa.data() + y * tables.stride + 1, &os,
                                 &oss);
    }
    const int wx = width - kB + 1;
    const int wy = height - kB + 1;
    tables.mean_a.resize(static_cast<std::size_t>(wx) * wy);
    tables.var_a.resize(tables.mean_a.size());
    const double npx = static_cast<double>(kB) * kB;
    for (int y = 0; y < wy; ++y) {
      const double* st = sa.data() + y * tables.stride;
      const double* sb = sa.data() + (y + kB) * tables.stride;
      const double* sst = saa.data() + y * tables.stride;
      const double* ssb = saa.data() + (y + kB) * tables.stride;
      for (int x = 0; x < wx; ++x) {
        const double m = (sb[x + kB] - sb[x] - st[x + kB] + st[x]) / npx;
        const double v =
            (ssb[x + kB] - ssb[x] - sst[x + kB] + sst[x]) / npx - m * m;
        tables.mean_a[static_cast<std::size_t>(y) * wx + x] = m;
        tables.var_a[static_cast<std::size_t>(y) * wx + x] = v < 0.0 ? 0.0 : v;
      }
    }
  }
  std::vector<double> qrow(static_cast<std::size_t>(width));

  std::vector<const kernels::KernelSet*> sets;
  for (const kernels::BackendInfo& info : kernels::backends()) {
    if (info.supported) sets.push_back(info.set);
  }
  const std::string default_backend = kernels::active().name;

  // One whole UIQI+HVS probe (the paper's default options) per backend:
  // the evaluator dispatches through the active set, so each backend
  // builds its own reference side.
  transform::FloatLut levels(256);
  for (int v = 0; v < 256; ++v) {
    levels[v] = std::min(1.0, 1.25 * static_cast<double>(v) / 255.0);
  }
  std::vector<quality::DistortionEvaluator> evaluators;
  for (const auto* s : sets) {
    kernels::set_backend(s->name);
    evaluators.emplace_back(frame);
  }
  kernels::set_backend(default_backend);
  const auto evaluator_of = [&](const kernels::KernelSet& k) {
    for (std::size_t s = 0; s < sets.size(); ++s) {
      if (sets[s] == &k) return &evaluators[s];
    }
    return &evaluators[0];
  };

  // Scratch buffers (shared across backends; parity is checked against
  // freshly captured scalar outputs).
  std::vector<std::uint8_t> out8(n);
  std::vector<std::uint8_t> out8rgb(3 * n);
  std::vector<std::uint16_t> out16(n);
  std::vector<double> outf(n);
  std::uint64_t counts[256];
  volatile std::uint64_t sink = 0;
  volatile double fsink = 0.0;

  const auto blur_cols = [&](const kernels::KernelSet& k, double* out) {
    // The caller-side border clamp, as the HVS blur and the
    // row-streamed evaluator do it.
    std::vector<const double*> rows(csf.size());
    for (int y = 0; y < height; ++y) {
      for (int j = 0; j <= 2 * radius; ++j) {
        rows[j] = fa.data() + static_cast<std::size_t>(std::clamp(
                                  y + j - radius, 0, height - 1)) *
                                  width;
      }
      k.blur_col_f64(rows.data(), width, taps, radius,
                     out + static_cast<std::size_t>(y) * width);
    }
  };
  const auto blur_rows = [&](const kernels::KernelSet& k, double* out) {
    for (int y = 0; y < height; ++y) {
      k.blur_row_f64(fa.data() + static_cast<std::size_t>(y) * width,
                     out + static_cast<std::size_t>(y) * width, width, taps,
                     radius);
    }
  };

  struct KernelCase {
    const char* name;
    std::size_t pixels;  // per call, for Mpix/s
    std::function<void(const kernels::KernelSet&)> run;
  };
  const std::vector<KernelCase> cases = {
      {"histogram_u8/mix", 3 * n,
       [&](const kernels::KernelSet& k) {
         std::memset(counts, 0, sizeof(counts));
         for (const auto* img : mix) {
           k.histogram_u8(img->pixels().data(), n, counts);
         }
         sink = sink + counts[128];
       }},
      {"lut_apply_u8/mix", 3 * n,
       [&](const kernels::KernelSet& k) {
         for (const auto* img : mix) {
           k.lut_apply_u8(img->pixels().data(), n, lut8, out8.data());
         }
         sink = sink + out8[n / 2];
       }},
      {"lut_apply_rgb8", 3 * n,
       [&](const kernels::KernelSet& k) {
         k.lut_apply_rgb8(rgb.data().data(), n, lut8, out8rgb.data());
         sink = sink + out8rgb[n];
       }},
      {"luma_bt601_rgb8", n,
       [&](const kernels::KernelSet& k) {
         k.luma_bt601_rgb8(rgb.data().data(), n, out8.data());
         sink = sink + out8[n / 2];
       }},
      {"sum_u8", n,
       [&](const kernels::KernelSet& k) {
         sink = sink + k.sum_u8(frame.pixels().data(), n);
       }},
      {"lut_apply_u16", n,
       [&](const kernels::KernelSet& k) {
         k.lut_apply_u16(frame16.pixels().data(), n, lut16.data(),
                         out16.data());
         sink = sink + out16[n / 2];
       }},
      {"sum_u16", n,
       [&](const kernels::KernelSet& k) {
         sink = sink + k.sum_u16(frame16.pixels().data(), n);
       }},
      {"blur_row_f64", n,
       [&](const kernels::KernelSet& k) {
         blur_rows(k, outf.data());
         fsink = fsink + outf[n / 2];
       }},
      {"blur_col_f64", n,
       [&](const kernels::KernelSet& k) {
         blur_cols(k, outf.data());
         fsink = fsink + outf[n / 2];
       }},
      {"window_sums_pair_f64/4-row", n,
       [&](const kernels::KernelSet& k) {
         window_sums_pass(k, fa.data(), fb.data(), tables);
         fsink = fsink + tables.ring[tables.stride / 2];
       }},
      {"uiqi_q_row_f64/block8", n,
       [&](const kernels::KernelSet& k) {
         q_rows_pass(k, tables, qrow.data(), [](int, const double*) {});
         fsink = fsink + qrow[0];
       }},
      {"percent_mapped/uiqi_hvs", n,
       [&](const kernels::KernelSet& k) {
         fsink = fsink + evaluator_of(k)->percent_mapped(frame, levels);
       }},
  };

  std::printf("backends:");
  for (const auto* s : sets) std::printf(" %s", s->name);
  std::printf("   (dispatch default: %s)\n\n", default_backend.c_str());

  // ---------------------------------------------------------- measure
  std::vector<std::string> records;
  std::printf("%-28s", "kernel");
  for (const auto* s : sets) std::printf("  %14s", s->name);
  std::printf("\n");
  std::vector<std::vector<double>> times(
      cases.size(), std::vector<double>(sets.size(), 0.0));
  const auto record = [&](const std::string& config, const CallTimes& t,
                          double mpix, const char* backend) {
    char line[768];
    std::snprintf(line, sizeof line,
                  "{\"bench\": \"kernel_dispatch\", \"config\": \"%s\", "
                  "\"width\": %d, \"height\": %d, \"reps\": %d, "
                  "\"ns_per_frame\": %.1f, \"q1_ns\": %.1f, \"q3_ns\": %.1f, "
                  "\"mpix_per_s\": %.3f, \"backend\": \"%s\", %s}",
                  config.c_str(), width, height, reps, t.median * 1e9,
                  t.q1 * 1e9, t.q3 * 1e9, mpix, backend,
                  context.machine_fields().c_str());
    records.emplace_back(line);
  };
  for (std::size_t c = 0; c < cases.size(); ++c) {
    std::printf("%-28s", cases[c].name);
    for (std::size_t s = 0; s < sets.size(); ++s) {
      // The probe dispatches through the active set.
      kernels::set_backend(sets[s]->name);
      const CallTimes t =
          time_per_call(reps, [&] { cases[c].run(*sets[s]); });
      times[c][s] = t.median;
      const double mpix = static_cast<double>(cases[c].pixels) / t.median /
                          1e6;
      std::printf("  %7.3f ms    ", t.median * 1e3);
      record(std::string(cases[c].name) + "/" + dims, t, mpix, sets[s]->name);
    }
    std::printf("\n");
  }
  kernels::set_backend(default_backend);
  std::printf("\nspeedup vs scalar:\n");
  std::printf("%-28s", "kernel");
  for (const auto* s : sets) std::printf("  %8s", s->name);
  std::printf("\n");
  for (std::size_t c = 0; c < cases.size(); ++c) {
    std::printf("%-28s", cases[c].name);
    for (std::size_t s = 0; s < sets.size(); ++s) {
      std::printf("  %7.2fx", times[c][0] / times[c][s]);
    }
    std::printf("\n");
  }

  // The headline pair: histogram accumulation + LUT apply (cases 0, 1).
  double scalar_hist_lut = 0.0;
  double best_hist_lut = 1e100;
  std::string best_name = "scalar";
  for (std::size_t s = 0; s < sets.size(); ++s) {
    const double combined = times[0][s] + times[1][s];
    if (s == 0) scalar_hist_lut = combined;
    if (combined < best_hist_lut) {
      best_hist_lut = combined;
      best_name = sets[s]->name;
    }
  }
  const double combined_speedup = scalar_hist_lut / best_hist_lut;
  std::printf("\nhistogram+LUT combined: best backend %s, %.2fx vs scalar\n",
              best_name.c_str(), combined_speedup);
  record("histogram+lut_combined/" + dims,
         {best_hist_lut, best_hist_lut, best_hist_lut},
         2.0 * static_cast<double>(n) / best_hist_lut / 1e6,
         best_name.c_str());

  // ------------------------------------------------------------ parity
  // Spot-check on the bench frame: every backend's outputs must equal
  // scalar's exactly (the fuzz tests in tests/ are the exhaustive
  // version of this).
  std::size_t mismatches = 0;
  const auto check = [&](bool same, const char* kernel,
                         const kernels::KernelSet& set) {
    if (same) return;
    ++mismatches;
    std::printf("MISMATCH: %s on %s\n", kernel, set.name);
  };
  const auto same_doubles = [](const std::vector<double>& x,
                               const std::vector<double>& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
  };
  {
    const auto& ref = kernels::scalar_kernels();
    std::vector<std::uint8_t> ref8(n);
    std::uint64_t ref_counts[256];
    std::memset(ref_counts, 0, sizeof(ref_counts));
    ref.histogram_u8(frame.pixels().data(), n, ref_counts);
    ref.lut_apply_u8(frame.pixels().data(), n, lut8, ref8.data());
    std::vector<std::uint8_t> ref_rgb(3 * n);
    ref.lut_apply_rgb8(rgb.data().data(), n, lut8, ref_rgb.data());
    std::vector<std::uint16_t> ref16(n);
    ref.lut_apply_u16(frame16.pixels().data(), n, lut16.data(), ref16.data());
    const std::uint64_t ref_sum16 = ref.sum_u16(frame16.pixels().data(), n);
    std::vector<double> ref_brow(n);
    std::vector<double> ref_bcol(n);
    blur_rows(ref, ref_brow.data());
    blur_cols(ref, ref_bcol.data());
    std::fill(tables.ring.begin(), tables.ring.end(), 0.0);
    window_sums_pass(ref, fa.data(), fb.data(), tables);
    const std::vector<double> ref_ring = tables.ring;
    std::vector<double> ref_q;
    q_rows_pass(ref, tables, qrow.data(), [&](int, const double* q) {
      ref_q.insert(ref_q.end(), q, q + (width - ProbeTables::kBlock + 1));
    });
    kernels::set_backend(ref.name);
    const double ref_probe = evaluators[0].percent_mapped(frame, levels);
    for (const auto* s : sets) {
      std::memset(counts, 0, sizeof(counts));
      s->histogram_u8(frame.pixels().data(), n, counts);
      check(std::memcmp(counts, ref_counts, sizeof(counts)) == 0,
            "histogram_u8", *s);
      s->lut_apply_u8(frame.pixels().data(), n, lut8, out8.data());
      check(std::memcmp(out8.data(), ref8.data(), n) == 0, "lut_apply_u8",
            *s);
      s->lut_apply_rgb8(rgb.data().data(), n, lut8, out8rgb.data());
      check(std::memcmp(out8rgb.data(), ref_rgb.data(), 3 * n) == 0,
            "lut_apply_rgb8", *s);
      s->lut_apply_u16(frame16.pixels().data(), n, lut16.data(),
                       out16.data());
      check(std::memcmp(out16.data(), ref16.data(),
                        n * sizeof(std::uint16_t)) == 0,
            "lut_apply_u16", *s);
      check(s->sum_u16(frame16.pixels().data(), n) == ref_sum16, "sum_u16",
            *s);
      blur_rows(*s, outf.data());
      check(same_doubles(outf, ref_brow), "blur_row_f64", *s);
      blur_cols(*s, outf.data());
      check(same_doubles(outf, ref_bcol), "blur_col_f64", *s);
      std::fill(tables.ring.begin(), tables.ring.end(), 0.0);
      window_sums_pass(*s, fa.data(), fb.data(), tables);
      check(same_doubles(tables.ring, ref_ring), "window_sums_pair_f64", *s);
      std::vector<double> got_q;
      q_rows_pass(*s, tables, qrow.data(), [&](int, const double* q) {
        got_q.insert(got_q.end(), q, q + (width - ProbeTables::kBlock + 1));
      });
      check(same_doubles(got_q, ref_q), "uiqi_q_row_f64", *s);
      kernels::set_backend(s->name);
      const double probe = evaluator_of(*s)->percent_mapped(frame, levels);
      kernels::set_backend(default_backend);
      check(std::memcmp(&probe, &ref_probe, sizeof probe) == 0,
            "percent_mapped (evaluator)", *s);
    }
  }
  std::printf("backend parity on bench frame: %s\n",
              mismatches == 0 ? "bit-identical" : "MISMATCH");

  // Replaces this frame size's records and keeps the other sizes'.
  bench::merge_bench_json("BENCH_kernels.json", "kernel_dispatch", records,
                          "\"width\": " + std::to_string(width) +
                              ", \"height\": " + std::to_string(height) +
                              ",");

  if (mismatches != 0) return 1;
  if (min_combined > 0.0 && combined_speedup < min_combined) {
    std::fprintf(stderr,
                 "FAIL: combined histogram+LUT speedup %.2fx is below the "
                 "required %.2fx\n",
                 combined_speedup, min_combined);
    return 1;
  }
  (void)sink;
  (void)fsink;
  return 0;
}
