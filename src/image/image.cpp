#include "image/image.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "kernels/kernels.h"
#include "util/error.h"
#include "util/mathutil.h"

namespace hebs::image {

GrayImage::GrayImage(int width, int height, std::uint8_t fill)
    : width_(width), height_(height) {
  HEBS_REQUIRE(width > 0 && height > 0, "image dimensions must be positive");
  pixels_.assign(static_cast<std::size_t>(width) * height, fill);
}

std::uint8_t GrayImage::at(int x, int y) const {
  HEBS_REQUIRE(contains(x, y), "pixel coordinates out of bounds");
  return (*this)(x, y);
}

void GrayImage::set(int x, int y, std::uint8_t v) {
  HEBS_REQUIRE(contains(x, y), "pixel coordinates out of bounds");
  (*this)(x, y) = v;
}

void GrayImage::fill(std::uint8_t v) noexcept {
  std::fill(pixels_.begin(), pixels_.end(), v);
}

GrayImage GrayImage::from_pixels(int width, int height,
                                 std::span<const std::uint8_t> pixels) {
  GrayImage out(width, height);
  HEBS_REQUIRE(pixels.size() == out.size(),
               "pixel buffer does not match the image dimensions");
  std::copy(pixels.begin(), pixels.end(), out.pixels_.begin());
  return out;
}

double GrayImage::mean() const noexcept {
  if (pixels_.empty()) return 0.0;
  // The byte sum is exact in 64 bits, so the dispatched kernel is
  // bit-identical to the old serial double accumulation.
  const std::uint64_t acc =
      kernels::active().sum_u8(pixels_.data(), pixels_.size());
  return static_cast<double>(acc) / static_cast<double>(pixels_.size());
}

GrayImage::MinMax GrayImage::min_max() const noexcept {
  if (pixels_.empty()) return {};
  const auto [lo, hi] = std::minmax_element(pixels_.begin(), pixels_.end());
  return {*lo, *hi};
}

int GrayImage::dynamic_range() const noexcept {
  const MinMax mm = min_max();
  return mm.max - mm.min;
}

GrayImage16::GrayImage16(int width, int height, int levels,
                         std::uint16_t fill)
    : width_(width), height_(height), levels_(levels) {
  HEBS_REQUIRE(width > 0 && height > 0, "image dimensions must be positive");
  HEBS_REQUIRE(levels >= 2 && levels <= PixelTraits<std::uint16_t>::kLevels,
               "level count must be in [2, 65536]");
  HEBS_REQUIRE(static_cast<int>(fill) < levels,
               "fill value exceeds the level count");
  pixels_.assign(static_cast<std::size_t>(width) * height, fill);
}

std::uint16_t GrayImage16::at(int x, int y) const {
  HEBS_REQUIRE(contains(x, y), "pixel coordinates out of bounds");
  return (*this)(x, y);
}

void GrayImage16::set(int x, int y, std::uint16_t v) {
  HEBS_REQUIRE(contains(x, y), "pixel coordinates out of bounds");
  HEBS_REQUIRE(static_cast<int>(v) < levels_,
               "pixel value exceeds the level count");
  (*this)(x, y) = v;
}

void GrayImage16::fill(std::uint16_t v) noexcept {
  std::fill(pixels_.begin(), pixels_.end(), v);
}

GrayImage16 GrayImage16::from_pixels(int width, int height, int levels,
                                     std::span<const std::uint16_t> pixels) {
  GrayImage16 out(width, height, levels);
  HEBS_REQUIRE(pixels.size() == out.size(),
               "pixel buffer does not match the image dimensions");
  for (const std::uint16_t v : pixels) {
    HEBS_REQUIRE(static_cast<int>(v) < levels,
                 "pixel value exceeds the level count");
  }
  std::copy(pixels.begin(), pixels.end(), out.pixels_.begin());
  return out;
}

GrayImage16 GrayImage16::widen(const GrayImage& g, int levels) {
  GrayImage16 out(g.width(), g.height(), levels);
  // Per-level table: 256 rounded ratios cover every possible sample.
  std::array<std::uint16_t, kLevels> map{};
  const std::uint32_t maxv = static_cast<std::uint32_t>(levels - 1);
  for (int i = 0; i < kLevels; ++i) {
    map[static_cast<std::size_t>(i)] = static_cast<std::uint16_t>(
        (static_cast<std::uint32_t>(i) * maxv + kMaxPixel / 2) / kMaxPixel);
  }
  const auto src = g.pixels();
  for (std::size_t i = 0; i < src.size(); ++i) {
    out.pixels_[i] = map[src[i]];
  }
  return out;
}

double GrayImage16::mean() const noexcept {
  if (pixels_.empty()) return 0.0;
  const std::uint64_t acc =
      kernels::active().sum_u16(pixels_.data(), pixels_.size());
  return static_cast<double>(acc) / static_cast<double>(pixels_.size());
}

GrayImage16::MinMax GrayImage16::min_max() const noexcept {
  if (pixels_.empty()) return {};
  const auto [lo, hi] = std::minmax_element(pixels_.begin(), pixels_.end());
  return {*lo, *hi};
}

int GrayImage16::dynamic_range() const noexcept {
  const MinMax mm = min_max();
  return mm.max - mm.min;
}

FloatImage::FloatImage(int width, int height, double fill)
    : width_(width), height_(height) {
  HEBS_REQUIRE(width > 0 && height > 0, "image dimensions must be positive");
  values_.assign(static_cast<std::size_t>(width) * height, fill);
}

double FloatImage::mean() const noexcept {
  return util::mean(values_);
}

FloatImage FloatImage::from_gray(const GrayImage& g) {
  // Normalization is a 256-entry table lookup; the table entries are
  // the very same src/255 doubles the old per-pixel division produced.
  static const auto norm = [] {
    std::array<double, kLevels> t{};
    for (int i = 0; i < kLevels; ++i) {
      t[static_cast<std::size_t>(i)] = static_cast<double>(i) / kMaxPixel;
    }
    return t;
  }();
  FloatImage out(g.width(), g.height());
  kernels::lut_apply_f64(g.pixels().data(), g.size(), norm.data(),
                         out.values_.data());
  return out;
}

FloatImage FloatImage::from_gray16(const GrayImage16& g) {
  // Per-level normalization table (g.levels() doubles, pool-backed):
  // the same src/(levels-1) values a per-pixel division would produce.
  const double maxv = static_cast<double>(g.max_pixel());
  hebs::util::PoolVector<double> norm(static_cast<std::size_t>(g.levels()));
  for (int i = 0; i < g.levels(); ++i) {
    norm[static_cast<std::size_t>(i)] = static_cast<double>(i) / maxv;
  }
  FloatImage out(g.width(), g.height());
  const auto src = g.pixels();
  auto dst = out.values();
  for (std::size_t i = 0; i < src.size(); ++i) dst[i] = norm[src[i]];
  return out;
}

GrayImage FloatImage::to_gray() const {
  GrayImage out(width_, height_);
  auto dst = out.pixels();
  for (std::size_t i = 0; i < values_.size(); ++i) {
    const double v = util::clamp01(values_[i]);
    dst[i] = static_cast<std::uint8_t>(std::lround(v * kMaxPixel));
  }
  return out;
}

RgbImage::RgbImage(int width, int height) : width_(width), height_(height) {
  HEBS_REQUIRE(width > 0 && height > 0, "image dimensions must be positive");
  data_.assign(static_cast<std::size_t>(width) * height * 3, 0);
}

RgbImage::Pixel RgbImage::get(int x, int y) const noexcept {
  const std::size_t i = (static_cast<std::size_t>(y) * width_ + x) * 3;
  return {data_[i], data_[i + 1], data_[i + 2]};
}

void RgbImage::set(int x, int y, Pixel p) noexcept {
  const std::size_t i = (static_cast<std::size_t>(y) * width_ + x) * 3;
  data_[i] = p.r;
  data_[i + 1] = p.g;
  data_[i + 2] = p.b;
}

GrayImage RgbImage::to_luma() const {
  GrayImage out;
  to_luma(out);
  return out;
}

void RgbImage::to_luma(GrayImage& out) const {
  if (out.empty() || out.width() != width_ || out.height() != height_) {
    out = GrayImage(width_, height_);  // throws for an empty image
  }
  kernels::active().luma_bt601_rgb8(data_.data(), out.size(),
                                    out.pixels().data());
}

RgbImage RgbImage::from_gray(const GrayImage& g) {
  RgbImage out(g.width(), g.height());
  for (int y = 0; y < g.height(); ++y) {
    for (int x = 0; x < g.width(); ++x) {
      const std::uint8_t v = g(x, y);
      out.set(x, y, {v, v, v});
    }
  }
  return out;
}

RgbImage RgbImage::from_pixels(int width, int height,
                               std::span<const std::uint8_t> pixels) {
  RgbImage out(width, height);
  HEBS_REQUIRE(pixels.size() == out.data_.size(),
               "pixel buffer does not match the image dimensions");
  std::copy(pixels.begin(), pixels.end(), out.data_.begin());
  return out;
}

}  // namespace hebs::image
