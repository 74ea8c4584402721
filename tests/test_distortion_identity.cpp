// Identity contract of the cached UIQI evaluator.
//
// DistortionEvaluator::percent / percent_mapped promise values
// bit-identical to the plain full-raster metric.  The oracle here is
// built from the independent pieces only: hvs_transform of both
// rasters, then quality::uiqi (the two-span PairStats and the generic
// per-window loop — no cached reference moments, no q-row kernel), then
// the same index-to-percent mapping, all on the scalar backend.  Every
// comparison is bitwise.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "hebs/advanced/image.h"
#include "hebs/advanced/kernels.h"
#include "hebs/advanced/quality.h"
#include "hebs/advanced/transform.h"
#include "hebs/advanced/util.h"

namespace hebs::quality {
namespace {

using hebs::image::FloatImage;
using hebs::image::GrayImage;
using hebs::image::GrayImage16;
using hebs::transform::FloatLut;

/// Restores the process-global backend when a test switches it.
class BackendGuard {
 public:
  BackendGuard() : saved_(hebs::kernels::active().name) {}
  ~BackendGuard() { hebs::kernels::set_backend(saved_); }

 private:
  std::string saved_;
};

std::vector<std::string> supported_backends() {
  std::vector<std::string> out;
  for (const auto& info : hebs::kernels::backends()) {
    if (info.supported) out.emplace_back(info.set->name);
  }
  return out;
}

double index_to_percent(double q) {
  return std::clamp((1.0 - q) / 2.0 * 100.0, 0.0, 100.0);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Level of pixel (x, y) out of `levels`: a flat band (degenerate
/// windows), a gradient band and a noisy band.
int pattern_level(int x, int y, int w, int levels, hebs::util::Rng& rng) {
  const int top = levels - 1;
  if (x < w / 3) return top / 5;
  if (x < 2 * w / 3) return (top * ((x * 7 + y * 3) % 97)) / 96;
  return rng.uniform_int(0, top);
}

GrayImage make_u8(int w, int h, std::uint64_t seed) {
  hebs::util::Rng rng(seed);
  GrayImage img(w, h, 0);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      img(x, y) = static_cast<std::uint8_t>(pattern_level(x, y, w, 256, rng));
    }
  }
  return img;
}

GrayImage16 make_deep(int w, int h, int levels, std::uint64_t seed) {
  hebs::util::Rng rng(seed);
  GrayImage16 img(w, h, levels);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      img(x, y) = static_cast<std::uint16_t>(pattern_level(x, y, w, levels, rng));
    }
  }
  return img;
}

/// A backlight-scaled display curve: boosted, then clipped at 1 so the
/// bright levels collapse onto one value (flat test windows where the
/// reference still varies).
FloatLut make_levels(int size) {
  FloatLut lut(size);
  for (int v = 0; v < size; ++v) {
    const double t = static_cast<double>(v) / (size - 1);
    lut[v] = std::min(1.0, 1.35 * std::pow(t, 0.85));
  }
  return lut;
}

FloatImage normalized(const GrayImage& img) {
  return FloatImage::from_gray(img);
}

FloatImage normalized(const GrayImage16& img) {
  FloatImage out(img.width(), img.height());
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      out(x, y) = static_cast<double>(img(x, y)) / img.max_pixel();
    }
  }
  return out;
}

/// The full-raster metric the evaluator must reproduce, always on the
/// scalar reference loops (so a vector kernel the evaluator shares with
/// PairStats or the HVS blur cannot agree with itself).
double oracle(const FloatImage& ref, const FloatImage& test,
              const DistortionOptions& opts) {
  const BackendGuard guard;
  hebs::kernels::set_backend("scalar");
  if (opts.metric == Metric::kUiqi) {
    return index_to_percent(uiqi(ref, test, opts.uiqi));
  }
  return index_to_percent(uiqi(hvs_transform(ref, opts.hvs),
                               hvs_transform(test, opts.hvs), opts.uiqi));
}

DistortionOptions make_opts(Metric metric, double sigma, bool lightness,
                            int block) {
  DistortionOptions opts;
  opts.metric = metric;
  opts.hvs.csf_sigma = sigma;
  opts.hvs.lightness_mapping = lightness;
  opts.uiqi.block_size = block;
  return opts;
}

int blur_radius(double sigma) {
  return sigma > 0.0 ? std::max(1, static_cast<int>(std::ceil(3.0 * sigma)))
                     : 0;
}

struct Dims {
  int w;
  int h;
};

/// Edge shapes for one (block, sigma) pair: exactly one window, one
/// extra row / column, the blur's full support, odd widths (vector
/// tails), and rasters shorter than the blur support.
std::vector<Dims> shapes(int block, double sigma) {
  const int support = 2 * blur_radius(sigma) + 1;
  std::vector<Dims> out = {{block, block},
                           {block + 1, block},
                           {block, block + 1},
                           {2 * block + 3, block + 2},
                           {37, 13 + block}};
  if (support >= block) {
    out.push_back({support, support});
    out.push_back({support | 1, std::max(block, support - 1)});
  }
  return out;
}

constexpr double kSigmas[] = {0.0, 0.4, 1.0, 2.5};
constexpr int kBlocks[] = {2, 8, 11};

/// Runs `check(opts, dims)` for every supported backend and every
/// sigma / lightness / block / shape combination.
template <typename Check>
void sweep(Metric metric, Check&& check) {
  const BackendGuard guard;
  for (const std::string& backend : supported_backends()) {
    ASSERT_EQ(hebs::kernels::set_backend(backend),
              hebs::kernels::SetBackendResult::kOk);
    for (const double sigma : kSigmas) {
      for (const bool lightness : {true, false}) {
        for (const int block : kBlocks) {
          const DistortionOptions opts =
              make_opts(metric, sigma, lightness, block);
          for (const Dims d : shapes(block, sigma)) {
            SCOPED_TRACE(backend + " sigma=" + std::to_string(sigma) +
                         " lightness=" + std::to_string(lightness) +
                         " block=" + std::to_string(block) + " " +
                         std::to_string(d.w) + "x" + std::to_string(d.h));
            check(opts, d);
          }
        }
      }
    }
  }
}

TEST(DistortionIdentity, PercentMappedU8MatchesFullRasterMetric) {
  sweep(Metric::kUiqiHvs, [](const DistortionOptions& opts, Dims d) {
    const GrayImage img = make_u8(d.w, d.h, 11);
    const FloatLut levels = make_levels(256);
    const FloatImage ref = normalized(img);
    const DistortionEvaluator eval(ref, opts);
    const double got = eval.percent_mapped(img, levels);
    const double want = oracle(ref, levels.apply(img), opts);
    EXPECT_TRUE(same_bits(got, want)) << got << " vs " << want;
  });
}

TEST(DistortionIdentity, PercentMappedDeepMatchesFullRasterMetric) {
  for (const int levels_count : {1024, 65536}) {
    SCOPED_TRACE("levels=" + std::to_string(levels_count));
    const FloatLut levels = make_levels(levels_count);
    sweep(Metric::kUiqiHvs, [&](const DistortionOptions& opts, Dims d) {
      const GrayImage16 img = make_deep(d.w, d.h, levels_count, 12);
      const FloatImage ref = normalized(img);
      const DistortionEvaluator eval(ref, opts);
      const double got = eval.percent_mapped(img, levels);
      const double want = oracle(ref, levels.apply16(img), opts);
      EXPECT_TRUE(same_bits(got, want)) << got << " vs " << want;
    });
  }
}

TEST(DistortionIdentity, PercentMatchesFullRasterMetric) {
  for (const Metric metric : {Metric::kUiqiHvs, Metric::kUiqi}) {
    SCOPED_TRACE(metric_name(metric));
    sweep(metric, [](const DistortionOptions& opts, Dims d) {
      const GrayImage img = make_u8(d.w, d.h, 13);
      const FloatImage ref = normalized(img);
      // Test values straying outside [0, 1] exercise the clamp of the
      // lightness-off front end.
      FloatImage test = make_levels(256).apply(make_u8(d.w, d.h, 14));
      for (double& v : test.values()) v = 1.2 * v - 0.05;
      const DistortionEvaluator eval(ref, opts);
      const double got = eval.percent(test);
      const double want = oracle(ref, test, opts);
      EXPECT_TRUE(same_bits(got, want)) << got << " vs " << want;
    });
  }
}

// The integer-reference constructors (what FrameContext uses) run the
// reference front end per level; they must measure exactly what the
// FloatImage constructor does, for every metric.
TEST(DistortionIdentity, IntegerReferenceMatchesFullRasterMetric) {
  for (const Metric metric : {Metric::kUiqiHvs, Metric::kUiqi}) {
    SCOPED_TRACE(metric_name(metric));
    sweep(metric, [](const DistortionOptions& opts, Dims d) {
      const GrayImage img = make_u8(d.w, d.h, 17);
      const FloatLut levels = make_levels(256);
      const DistortionEvaluator eval(img, opts);
      const double got = eval.percent_mapped(img, levels);
      const double want = oracle(normalized(img), levels.apply(img), opts);
      EXPECT_TRUE(same_bits(got, want)) << got << " vs " << want;

      const GrayImage16 deep = make_deep(d.w, d.h, 1024, 18);
      const FloatLut deep_levels = make_levels(1024);
      const DistortionEvaluator eval16(deep, opts);
      const double got16 = eval16.percent_mapped(deep, deep_levels);
      const double want16 =
          oracle(normalized(deep), deep_levels.apply16(deep), opts);
      EXPECT_TRUE(same_bits(got16, want16)) << got16 << " vs " << want16;
    });
  }
  // Non-UIQI metrics go through the same reference raster.
  const GrayImage img = make_u8(24, 20, 19);
  const GrayImage test = make_u8(24, 20, 20);
  for (const Metric metric : {Metric::kSsim, Metric::kSsimHvs, Metric::kRmse,
                              Metric::kContrastFidelity, Metric::kMsSsim}) {
    DistortionOptions opts;
    opts.metric = metric;
    const double got =
        DistortionEvaluator(img, opts).percent(FloatImage::from_gray(test));
    const double want = DistortionEvaluator(FloatImage::from_gray(img), opts)
                            .percent(FloatImage::from_gray(test));
    EXPECT_TRUE(same_bits(got, want)) << metric_name(metric);
  }
}

TEST(DistortionIdentity, RasterShorterThanBlurSupport) {
  // sigma 2.5 -> radius 8: a 17-row support over 9..16-row rasters, so
  // every output row clamps at both the top and the bottom border.
  const BackendGuard guard;
  for (const std::string& backend : supported_backends()) {
    ASSERT_EQ(hebs::kernels::set_backend(backend),
              hebs::kernels::SetBackendResult::kOk);
    for (int h = 9; h < 17; ++h) {
      SCOPED_TRACE(backend + " h=" + std::to_string(h));
      const DistortionOptions opts =
          make_opts(Metric::kUiqiHvs, 2.5, true, 8);
      const GrayImage img = make_u8(23, h, 15);
      const FloatLut levels = make_levels(256);
      const FloatImage ref = normalized(img);
      const DistortionEvaluator eval(ref, opts);
      const double got = eval.percent_mapped(img, levels);
      const double want = oracle(ref, levels.apply(img), opts);
      EXPECT_TRUE(same_bits(got, want)) << got << " vs " << want;
    }
  }
}

// The stream collects blurred rows in groups of four and steps the
// integral tables one group at a time, so the last group of a raster
// holds h % 4 rows, and a window stride skips q rows inside a group.
// Heights with every remainder, strides 1..3, with and without the blur.
TEST(DistortionIdentity, GroupedRowsEveryRemainderAndStride) {
  const BackendGuard guard;
  for (const std::string& backend : supported_backends()) {
    ASSERT_EQ(hebs::kernels::set_backend(backend),
              hebs::kernels::SetBackendResult::kOk);
    for (const double sigma : {0.0, 1.0}) {
      for (const int block : {2, 8}) {
        for (const int stride : {1, 2, 3}) {
          for (int h = block + 9; h <= block + 12; ++h) {
            SCOPED_TRACE(backend + " sigma=" + std::to_string(sigma) +
                         " block=" + std::to_string(block) + " stride=" +
                         std::to_string(stride) + " h=" + std::to_string(h) +
                         " (h % 4 = " + std::to_string(h % 4) + ")");
            DistortionOptions opts =
                make_opts(Metric::kUiqiHvs, sigma, true, block);
            opts.uiqi.stride = stride;
            const GrayImage img = make_u8(29, h, 21);
            const FloatLut levels = make_levels(256);
            const FloatImage ref = normalized(img);
            const DistortionEvaluator eval(ref, opts);
            const double got = eval.percent_mapped(img, levels);
            const double want = oracle(ref, levels.apply(img), opts);
            EXPECT_TRUE(same_bits(got, want)) << got << " vs " << want;

            const DistortionEvaluator from_gray(img, opts);
            const double got_int = from_gray.percent_mapped(img, levels);
            EXPECT_TRUE(same_bits(got_int, want)) << got_int << " vs " << want;

            FloatImage test = levels.apply(make_u8(29, h, 22));
            const double got_f = eval.percent(test);
            const double want_f = oracle(ref, test, opts);
            EXPECT_TRUE(same_bits(got_f, want_f)) << got_f << " vs " << want_f;
          }
        }
      }
    }
  }
}

/// The paper's default configuration on a w x h frame, every backend.
void check_hd_frame(int w, int h) {
  const BackendGuard guard;
  const GrayImage img = make_u8(w, h, 16);
  const FloatLut levels = make_levels(256);
  const FloatImage ref = normalized(img);
  const DistortionOptions opts;
  for (const std::string& backend : supported_backends()) {
    ASSERT_EQ(hebs::kernels::set_backend(backend),
              hebs::kernels::SetBackendResult::kOk);
    SCOPED_TRACE(backend);
    const DistortionEvaluator eval(ref, opts);
    const double got = eval.percent_mapped(img, levels);
    const double want = oracle(ref, levels.apply(img), opts);
    EXPECT_TRUE(same_bits(got, want)) << got << " vs " << want;
  }
}

TEST(DistortionIdentity, Hd720pMatchesFullRasterMetric) {
  check_hd_frame(1280, 720);
}

// 723 rows: the stream's last row group holds three rows.
TEST(DistortionIdentity, Hd1280x723MatchesFullRasterMetric) {
  check_hd_frame(1280, 723);
}

}  // namespace
}  // namespace hebs::quality
