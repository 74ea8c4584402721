#include "quality/distortion.h"

#include <cmath>
#include <type_traits>

#include "kernels/kernels.h"
#include "quality/metrics.h"
#include "util/error.h"
#include "util/mathutil.h"

namespace hebs::quality {

const char* metric_name(Metric m) noexcept {
  switch (m) {
    case Metric::kUiqiHvs: return "UIQI+HVS";
    case Metric::kUiqi: return "UIQI";
    case Metric::kSsim: return "SSIM";
    case Metric::kSsimHvs: return "SSIM+HVS";
    case Metric::kRmse: return "RMSE";
    case Metric::kContrastFidelity: return "ContrastFidelity";
    case Metric::kMsSsim: return "MS-SSIM";
  }
  return "unknown";
}

namespace {

double index_to_percent(double q) {
  // Quality indices live in [-1, 1] with 1 = identical.
  return util::clamp((1.0 - q) / 2.0 * 100.0, 0.0, 100.0);
}

/// Rows of a raster that is already the front-end row (plain UIQI):
/// read in place.
class RasterRows final : public RowSource {
 public:
  explicit RasterRows(const hebs::image::FloatImage& img)
      : data_(img.values().data()), width_(img.width()) {}
  const double* row(int y, double* /*scratch*/) const override {
    return data_ + static_cast<std::size_t>(y) * width_;
  }

 private:
  const double* data_;
  int width_;
};

/// Rows of a luminance raster through the per-pixel HVS front end.
class FrontEndRows final : public RowSource {
 public:
  FrontEndRows(const hebs::image::FloatImage& lum, const HvsOptions& opts)
      : data_(lum.values().data()), width_(lum.width()), opts_(opts) {}
  const double* row(int y, double* scratch) const override {
    const auto w = static_cast<std::size_t>(width_);
    hvs_front_row(data_ + static_cast<std::size_t>(y) * w, w, opts_, scratch);
    return scratch;
  }

 private:
  const double* data_;
  int width_;
  const HvsOptions& opts_;
};

/// Rows of a per-level map of an integer image: table[pixel], with the
/// front end already folded into the table.
template <typename Image>
class LevelRows final : public RowSource {
 public:
  LevelRows(const Image& img, const hebs::transform::FloatLut& table)
      : img_(img), table_(table.data()) {}
  const double* row(int y, double* scratch) const override {
    const auto w = static_cast<std::size_t>(img_.width());
    const auto* px = img_.pixels().data() + static_cast<std::size_t>(y) * w;
    if constexpr (std::is_same_v<Image, hebs::image::GrayImage>) {
      hebs::kernels::lut_apply_f64(px, w, table_, scratch);
    } else {
      for (std::size_t x = 0; x < w; ++x) scratch[x] = table_[px[x]];
    }
    return scratch;
  }

 private:
  const Image& img_;
  const double* table_;
};

/// The luminance raster an integer reference normalizes to, for the
/// metrics that read it.  UIQI+HVS does not: its reference side streams
/// the integer image through LevelRows, and its probes read the
/// HVS-transformed reference — a float copy (8 bytes a pixel, 7.4 MB
/// at 1280x720) would be dead weight in every frame context.
template <typename Image>
hebs::image::FloatImage float_reference(const Image& reference,
                                        Metric metric) {
  if (metric == Metric::kUiqiHvs) return {};
  if constexpr (std::is_same_v<Image, hebs::image::GrayImage16>) {
    return hebs::image::FloatImage::from_gray16(reference);
  } else {
    return hebs::image::FloatImage::from_gray(reference);
  }
}

}  // namespace

DistortionEvaluator::DistortionEvaluator(hebs::image::FloatImage reference,
                                         DistortionOptions opts)
    : opts_(opts),
      width_(reference.width()),
      height_(reference.height()),
      reference_(std::move(reference)) {
  build_reference(FrontEndRows(reference_, opts_.hvs));
}

DistortionEvaluator::DistortionEvaluator(
    const hebs::image::GrayImage& reference, DistortionOptions opts)
    : opts_(opts),
      width_(reference.width()),
      height_(reference.height()),
      reference_(float_reference(reference, opts.metric)) {
  const hebs::transform::FloatLut table =
      reference_table(hebs::image::kLevels);
  build_reference(LevelRows<hebs::image::GrayImage>(reference, table));
}

DistortionEvaluator::DistortionEvaluator(
    const hebs::image::GrayImage16& reference, DistortionOptions opts)
    : opts_(opts),
      width_(reference.width()),
      height_(reference.height()),
      reference_(float_reference(reference, opts.metric)) {
  const hebs::transform::FloatLut table = reference_table(reference.levels());
  build_reference(LevelRows<hebs::image::GrayImage16>(reference, table));
}

hebs::transform::FloatLut DistortionEvaluator::reference_table(
    int levels) const {
  hebs::transform::FloatLut table(levels);
  if (opts_.metric != Metric::kUiqiHvs) return table;
  // The same i / (levels-1) doubles FloatImage::from_gray/from_gray16
  // normalize with, so the table holds the per-pixel front-end values.
  const double max_level = static_cast<double>(levels - 1);
  for (int i = 0; i < levels; ++i) {
    table[i] = hvs_front(static_cast<double>(i) / max_level, opts_.hvs);
  }
  return table;
}

void DistortionEvaluator::build_reference(const RowSource& front_rows) {
  HEBS_REQUIRE(width_ > 0 && height_ > 0, "distortion of an empty reference");
  const int w = width_;
  const int h = height_;
  const int block = opts_.uiqi.block_size;
  switch (opts_.metric) {
    case Metric::kUiqi:
    case Metric::kUiqiHvs:
      // Too small a raster (or a bad block) keeps no moments; percent()
      // reports the window error.
      if (block < 2 || w < block || h < block) break;
      if (opts_.metric == Metric::kUiqi) {
        ref_moments_.emplace(RasterRows(reference_), w, h, taps_, block,
                             nullptr);
        break;
      }
      taps_ = csf_taps(opts_.hvs);
      hvs_reference_ = hebs::image::FloatImage(w, h);
      ref_moments_.emplace(front_rows, w, h, taps_, block,
                           hvs_reference_.values().data());
      break;
    case Metric::kSsimHvs:
      hvs_reference_ = hvs_transform(reference_, opts_.hvs);
      break;
    case Metric::kMsSsim:
      gray_reference_ = reference_.to_gray();
      break;
    case Metric::kSsim:
    case Metric::kRmse:
    case Metric::kContrastFidelity:
      break;
  }
}

double DistortionEvaluator::uiqi_percent(const RowSource& test) const {
  require_uiqi_window(opts_.uiqi, width_, height_);
  const hebs::image::FloatImage& a =
      opts_.metric == Metric::kUiqiHvs ? hvs_reference_ : reference_;
  return index_to_percent(uiqi_streamed(*ref_moments_, a.values().data(),
                                        test, taps_, opts_.uiqi));
}

hebs::transform::FloatLut DistortionEvaluator::front_end_table(
    const hebs::transform::FloatLut& levels) const {
  // The front end is a pure per-value function: evaluating it once per
  // level gives the same values as once per pixel.
  const bool hvs = opts_.metric == Metric::kUiqiHvs;
  return levels.map(
      [&](double y) { return hvs ? hvs_front(y, opts_.hvs) : y; });
}

double DistortionEvaluator::percent(
    const hebs::image::FloatImage& test) const {
  HEBS_REQUIRE(test.width() == width_ && test.height() == height_,
               "distortion needs equal-size images");
  switch (opts_.metric) {
    case Metric::kUiqi:
      return uiqi_percent(RasterRows(test));
    case Metric::kUiqiHvs:
      return uiqi_percent(FrontEndRows(test, opts_.hvs));
    case Metric::kSsim:
      return index_to_percent(ssim(reference_, test, opts_.ssim));
    case Metric::kSsimHvs:
      return index_to_percent(ssim(
          hvs_reference_, hvs_transform(test, opts_.hvs), opts_.ssim));
    case Metric::kRmse: {
      const double m = std::sqrt(mse(reference_, test));
      return util::clamp(m * 100.0, 0.0, 100.0);
    }
    case Metric::kContrastFidelity:
      return util::clamp(
          (1.0 - contrast_fidelity(reference_, test, opts_.contrast)) *
              100.0,
          0.0, 100.0);
    case Metric::kMsSsim:
      return index_to_percent(
          ms_ssim(gray_reference_, test.to_gray(), opts_.ms_ssim));
  }
  throw util::InvalidArgument("unknown distortion metric");
}

double DistortionEvaluator::percent_mapped(
    const hebs::image::GrayImage& original,
    const hebs::transform::FloatLut& levels) const {
  HEBS_REQUIRE(original.width() == width_ && original.height() == height_,
               "distortion needs equal-size images");
  if (!is_uiqi()) return percent(levels.apply(original));
  HEBS_REQUIRE(levels.size() == hebs::transform::FloatLut::kSize,
               "8-bit apply needs a 256-entry table");
  const hebs::transform::FloatLut table = front_end_table(levels);
  return uiqi_percent(LevelRows<hebs::image::GrayImage>(original, table));
}

double DistortionEvaluator::percent_mapped(
    const hebs::image::GrayImage16& original,
    const hebs::transform::FloatLut& levels) const {
  HEBS_REQUIRE(original.width() == width_ && original.height() == height_,
               "distortion needs equal-size images");
  if (!is_uiqi()) return percent(levels.apply16(original));
  HEBS_REQUIRE(original.levels() == levels.size(),
               "table size does not match the image level count");
  const hebs::transform::FloatLut table = front_end_table(levels);
  return uiqi_percent(LevelRows<hebs::image::GrayImage16>(original, table));
}

double distortion_percent(const hebs::image::FloatImage& reference,
                          const hebs::image::FloatImage& test,
                          const DistortionOptions& opts) {
  // One-shot path: the evaluator takes ownership of a copy of the
  // reference raster.  The copy is a single memcpy — noise next to the
  // metric work — and buys a single code path for cached and one-shot
  // measurements, which is what guarantees their bit-identity.
  return DistortionEvaluator(reference, opts).percent(test);
}

double distortion_percent(const hebs::image::GrayImage& reference,
                          const hebs::image::GrayImage& test,
                          const DistortionOptions& opts) {
  return DistortionEvaluator(reference, opts)
      .percent(hebs::image::FloatImage::from_gray(test));
}

}  // namespace hebs::quality
