// Kernel dispatch benchmark: per-primitive throughput of every
// compiled-in, CPU-supported backend against the scalar reference.
//
// Measures the per-pixel primitives the pipeline dispatches through
// src/kernels/ (histogram accumulation, 8-bit/16-bit/f64 LUT apply,
// BT.601 luma, byte/sample sums, elementwise f64 ops, blur
// rows/columns) on a realistic synthetic frame, prints a speedup
// table, verifies that
// every backend's output is bit-identical to scalar on the bench data,
// and writes BENCH_kernels.json ({bench, config, ns_per_frame,
// mpix_per_s, backend} records) for cross-PR perf tracking.
//
// The headline number is the combined histogram+LUT speedup — the two
// primitives every displayed frame pays (Fig. 4's per-frame flow).
//
// Flags:
//   --size N                  square frame edge (default 1024)
//   --reps N                  timed repetitions per kernel (default auto)
//   --min-combined-speedup X  exit 1 unless the best backend reaches X
//                             on histogram+LUT vs scalar (default 0 =
//                             report only; the PR gate uses 3.0)
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

namespace {

using namespace hebs;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Times fn() `reps` times and returns the best-of-3-batches seconds
/// per call (min over batches smooths scheduler noise).
template <typename Fn>
double time_per_call(int reps, Fn&& fn) {
  double best = 1e100;
  for (int batch = 0; batch < 3; ++batch) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i) fn();
    best = std::min(best, seconds_since(t0) / reps);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hebs;
  using hebs::bench::write_bench_json;
  int size = 1024;
  int reps = 0;
  double min_combined = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--size=", 7) == 0) {
      size = std::max(64, std::atoi(argv[i] + 7));
    } else if (std::strcmp(argv[i], "--size") == 0 && i + 1 < argc) {
      size = std::max(64, std::atoi(argv[++i]));
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
  const std::size_t n = static_cast<std::size_t>(size) *
                        static_cast<std::size_t>(size);
  if (reps == 0) {
    reps = std::max(3, static_cast<int>(80'000'000 / n));
  }

  bench::print_header(
      "Kernel dispatch throughput (" + std::to_string(size) + "x" +
          std::to_string(size) + ", " + std::to_string(reps) + " reps)",
      "SIMD kernel subsystem: hot per-pixel primitives vs scalar");

  // Bench data.  The content-sensitive kernels (histogram, 8-bit LUT)
  // run over a three-frame mix — a dark flat frame, a smooth gradient
  // and a textured photo — because that is what video content is made
  // of, and the scalar loops' cost is content-dependent (same-bin
  // store-forwarding chains on flat regions).  The remaining kernels
  // use the photo frame.
  const image::GrayImage frame = image::make_usid(image::UsidId::kLena, size);
  const image::GrayImage flat(size, size, 24);
  image::GrayImage gradient(size, size);
  for (int y = 0; y < size; ++y) {
    for (int x = 0; x < size; ++x) {
      gradient(x, y) = static_cast<std::uint8_t>((x + y) * 255 /
                                                 (2 * size - 2));
    }
  }
  const image::GrayImage* mix[3] = {&flat, &gradient, &frame};
  const image::RgbImage rgb = image::RgbImage::from_gray(frame);
  std::vector<double> fa(n);
  for (std::size_t i = 0; i < n; ++i) {
    fa[i] = static_cast<double>(frame.pixels()[i]) / 255.0;
  }
  std::uint8_t lut8[256];
  for (int i = 0; i < 256; ++i) {
    lut8[i] = static_cast<std::uint8_t>((i * 150) / 255);
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
  constexpr int radius = 2;
  const double taps[5] = {0.05, 0.25, 0.4, 0.25, 0.05};

  // Scratch buffers (shared across backends; parity is checked against
  // freshly captured scalar outputs).
  std::vector<std::uint8_t> out8(n);
  std::vector<std::uint8_t> out8rgb(3 * n);
  std::vector<std::uint16_t> out16(n);
  std::vector<double> outf(n);
  std::uint64_t counts[256];
  volatile std::uint64_t sink = 0;

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
         for (int y = 0; y < size; ++y) {
           k.blur_row_f64(fa.data() + static_cast<std::size_t>(y) * size,
                          outf.data() + static_cast<std::size_t>(y) * size,
                          size, taps, radius);
         }
         sink = sink + static_cast<std::uint64_t>(outf[n / 2] * 255.0);
       }},
      {"blur_col_f64", n,
       [&](const kernels::KernelSet& k) {
         // The caller-side border clamp, as the HVS blur and the
         // row-streamed evaluator do it.
         const double* rows[2 * radius + 1];
         for (int y = 0; y < size; ++y) {
           for (int j = 0; j <= 2 * radius; ++j) {
             rows[j] = fa.data() + static_cast<std::size_t>(std::clamp(
                                       y + j - radius, 0, size - 1)) *
                                       size;
           }
           k.blur_col_f64(rows, size, taps, radius,
                          outf.data() + static_cast<std::size_t>(y) * size);
         }
         sink = sink + static_cast<std::uint64_t>(outf[n / 2] * 255.0);
       }},
  };

  std::vector<const kernels::KernelSet*> sets;
  for (const kernels::BackendInfo& info : kernels::backends()) {
    if (info.supported) sets.push_back(info.set);
  }
  std::printf("backends:");
  for (const auto* s : sets) std::printf(" %s", s->name);
  std::printf("   (dispatch default: %s)\n\n", kernels::active().name);

  // ---------------------------------------------------------- measure
  std::vector<bench::BenchRecord> records;
  std::printf("%-18s", "kernel");
  for (const auto* s : sets) std::printf("  %14s", s->name);
  std::printf("\n");
  double scalar_hist_lut = 0.0;
  double best_hist_lut = 1e100;
  std::string best_name = "scalar";
  std::vector<std::vector<double>> times(
      cases.size(), std::vector<double>(sets.size(), 0.0));
  for (std::size_t c = 0; c < cases.size(); ++c) {
    std::printf("%-18s", cases[c].name);
    for (std::size_t s = 0; s < sets.size(); ++s) {
      const double per_call =
          time_per_call(reps, [&] { cases[c].run(*sets[s]); });
      times[c][s] = per_call;
      const double mpix = static_cast<double>(cases[c].pixels) / per_call /
                          1e6;
      std::printf("  %7.0f Mpix/s", mpix);
      records.push_back({"kernel_dispatch",
                         std::string(cases[c].name) + "/" +
                             std::to_string(size) + "x" +
                             std::to_string(size),
                         per_call * 1e9, mpix, sets[s]->name});
    }
    std::printf("\n");
  }
  std::printf("\nspeedup vs scalar:\n");
  std::printf("%-18s", "kernel");
  for (const auto* s : sets) std::printf("  %8s", s->name);
  std::printf("\n");
  for (std::size_t c = 0; c < cases.size(); ++c) {
    std::printf("%-18s", cases[c].name);
    for (std::size_t s = 0; s < sets.size(); ++s) {
      std::printf("  %7.2fx", times[c][0] / times[c][s]);
    }
    std::printf("\n");
  }

  // The headline pair: histogram accumulation + LUT apply (cases 0, 1).
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
  records.push_back({"kernel_dispatch", "histogram+lut_combined",
                     best_hist_lut * 1e9,
                     2.0 * static_cast<double>(n) / best_hist_lut / 1e6,
                     best_name});

  // ------------------------------------------------------------ parity
  // Spot-check on the bench frame: every backend's integer outputs must
  // equal scalar's exactly (the fuzz test in tests/ is the exhaustive
  // version of this).
  std::size_t mismatches = 0;
  {
    std::vector<std::uint8_t> ref8(n);
    std::uint64_t ref_counts[256];
    std::memset(ref_counts, 0, sizeof(ref_counts));
    kernels::scalar_kernels().histogram_u8(frame.pixels().data(), n,
                                           ref_counts);
    kernels::scalar_kernels().lut_apply_u8(frame.pixels().data(), n, lut8,
                                           ref8.data());
    std::vector<std::uint8_t> ref_rgb(3 * n);
    kernels::scalar_kernels().lut_apply_rgb8(rgb.data().data(), n, lut8,
                                             ref_rgb.data());
    std::vector<std::uint16_t> ref16(n);
    kernels::scalar_kernels().lut_apply_u16(frame16.pixels().data(), n,
                                            lut16.data(), ref16.data());
    const std::uint64_t ref_sum16 =
        kernels::scalar_kernels().sum_u16(frame16.pixels().data(), n);
    for (const auto* s : sets) {
      std::memset(counts, 0, sizeof(counts));
      s->histogram_u8(frame.pixels().data(), n, counts);
      if (std::memcmp(counts, ref_counts, sizeof(counts)) != 0) ++mismatches;
      s->lut_apply_u8(frame.pixels().data(), n, lut8, out8.data());
      if (std::memcmp(out8.data(), ref8.data(), n) != 0) ++mismatches;
      s->lut_apply_rgb8(rgb.data().data(), n, lut8, out8rgb.data());
      if (std::memcmp(out8rgb.data(), ref_rgb.data(), 3 * n) != 0) {
        ++mismatches;
      }
      s->lut_apply_u16(frame16.pixels().data(), n, lut16.data(),
                       out16.data());
      if (std::memcmp(out16.data(), ref16.data(),
                      n * sizeof(std::uint16_t)) != 0) {
        ++mismatches;
      }
      if (s->sum_u16(frame16.pixels().data(), n) != ref_sum16) ++mismatches;
    }
  }
  std::printf("backend parity on bench frame: %s\n",
              mismatches == 0 ? "bit-identical" : "MISMATCH");

  write_bench_json("BENCH_kernels.json", records);

  if (mismatches != 0) return 1;
  if (min_combined > 0.0 && combined_speedup < min_combined) {
    std::fprintf(stderr,
                 "FAIL: combined histogram+LUT speedup %.2fx is below the "
                 "required %.2fx\n",
                 combined_speedup, min_combined);
    return 1;
  }
  (void)sink;
  return 0;
}
