#include "transform/lut.h"

#include <algorithm>
#include <cmath>

#include "kernels/kernels.h"
#include "util/error.h"
#include "util/mathutil.h"

namespace hebs::transform {

Lut::Lut() noexcept {
  for (int i = 0; i < kSize; ++i) {
    table_[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  }
}

hebs::image::GrayImage Lut::apply(const hebs::image::GrayImage& img) const {
  hebs::image::GrayImage out(img.width(), img.height());
  kernels::active().lut_apply_u8(img.pixels().data(), img.size(),
                                 table_.data(), out.pixels().data());
  return out;
}

Lut Lut::then(const Lut& other) const noexcept {
  Lut out(*this);
  for (int i = 0; i < kSize; ++i) {
    out[i] = other[(*this)[i]];
  }
  return out;
}

bool Lut::is_monotonic() const noexcept {
  for (int i = 1; i < kSize; ++i) {
    if (table_[static_cast<std::size_t>(i)] <
        table_[static_cast<std::size_t>(i - 1)]) {
      return false;
    }
  }
  return true;
}

std::uint8_t Lut::min_output() const noexcept {
  return *std::min_element(table_.begin(), table_.end());
}

std::uint8_t Lut::max_output() const noexcept {
  return *std::max_element(table_.begin(), table_.end());
}

Lut16::Lut16(int size) {
  HEBS_REQUIRE(size >= 2 &&
                   size <= hebs::image::PixelTraits<std::uint16_t>::kLevels,
               "table size must be in [2, 65536]");
  table_.resize(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i) {
    table_[static_cast<std::size_t>(i)] = static_cast<std::uint16_t>(i);
  }
}

hebs::image::GrayImage16 Lut16::apply(
    const hebs::image::GrayImage16& img) const {
  HEBS_REQUIRE(img.levels() == size(),
               "table size does not match the image level count");
  hebs::image::GrayImage16 out(img.width(), img.height(), img.levels());
  kernels::active().lut_apply_u16(img.pixels().data(), img.size(),
                                  table_.data(), out.pixels().data());
  return out;
}

bool Lut16::is_monotonic() const noexcept {
  for (std::size_t i = 1; i < table_.size(); ++i) {
    if (table_[i] < table_[i - 1]) return false;
  }
  return true;
}

FloatLut::FloatLut(int size) {
  HEBS_REQUIRE(size >= 2 &&
                   size <= hebs::image::PixelTraits<std::uint16_t>::kLevels,
               "table size must be in [2, 65536]");
  table_.assign(static_cast<std::size_t>(size), 0.0);
}

Lut FloatLut::quantize() const {
  HEBS_REQUIRE(size() == kSize, "8-bit quantize needs a 256-entry table");
  Lut out;
  for (int i = 0; i < kSize; ++i) {
    const double y = util::clamp01(table_[static_cast<std::size_t>(i)]);
    out[i] = static_cast<std::uint8_t>(
        std::lround(y * hebs::image::kMaxPixel));
  }
  return out;
}

Lut16 FloatLut::quantize16() const {
  Lut16 out(size());
  const double maxv = static_cast<double>(size() - 1);
  for (int i = 0; i < size(); ++i) {
    const double y = util::clamp01(table_[static_cast<std::size_t>(i)]);
    out[i] = static_cast<std::uint16_t>(std::lround(y * maxv));
  }
  return out;
}

hebs::image::FloatImage FloatLut::apply(
    const hebs::image::GrayImage& img) const {
  HEBS_REQUIRE(size() == kSize, "8-bit apply needs a 256-entry table");
  hebs::image::FloatImage out(img.width(), img.height());
  kernels::lut_apply_f64(img.pixels().data(), img.size(), table_.data(),
                         out.values().data());
  return out;
}

hebs::image::FloatImage FloatLut::apply16(
    const hebs::image::GrayImage16& img) const {
  HEBS_REQUIRE(img.levels() == size(),
               "table size does not match the image level count");
  hebs::image::FloatImage out(img.width(), img.height());
  const auto src = img.pixels();
  auto dst = out.values();
  for (std::size_t i = 0; i < src.size(); ++i) dst[i] = table_[src[i]];
  return out;
}

}  // namespace hebs::transform
