// Core image types.
//
// `GrayImage` is the 8-bit grayscale frame the HEBS pipeline operates on
// (the paper assumes 8-bit color depth; color images are handled per
// channel or via luma).  `FloatImage` stores normalized luminance in
// [0, 1] and is produced by the display simulator, where displayed
// luminance I = b * t(X) is a real number.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "image/pixel_traits.h"
#include "util/pool.h"

namespace hebs::image {

/// Number of representable grayscale levels for 8-bit pixels.
inline constexpr int kLevels = PixelTraits<std::uint8_t>::kLevels;

/// Maximum 8-bit pixel value.
inline constexpr int kMaxPixel = PixelTraits<std::uint8_t>::kMaxValue;

/// An 8-bit single-channel raster image, row-major.
class GrayImage {
 public:
  /// Empty 0x0 image.
  GrayImage() = default;

  /// Creates a width x height image with every pixel set to `fill`.
  GrayImage(int width, int height, std::uint8_t fill = 0);

  int width() const noexcept { return width_; }
  int height() const noexcept { return height_; }

  /// Total number of pixels.
  std::size_t size() const noexcept { return pixels_.size(); }
  bool empty() const noexcept { return pixels_.empty(); }

  /// Unchecked pixel access (x = column, y = row).
  std::uint8_t operator()(int x, int y) const noexcept {
    return pixels_[static_cast<std::size_t>(y) * width_ + x];
  }
  std::uint8_t& operator()(int x, int y) noexcept {
    return pixels_[static_cast<std::size_t>(y) * width_ + x];
  }

  /// Bounds-checked pixel access; throws InvalidArgument when outside.
  std::uint8_t at(int x, int y) const;
  void set(int x, int y, std::uint8_t v);

  /// True when (x, y) lies inside the raster.
  bool contains(int x, int y) const noexcept {
    return x >= 0 && y >= 0 && x < width_ && y < height_;
  }

  /// Raw pixel storage, row-major.
  std::span<const std::uint8_t> pixels() const noexcept { return pixels_; }
  std::span<std::uint8_t> pixels() noexcept { return pixels_; }

  /// Builds an image by copying a row-major pixel buffer; `pixels`
  /// must hold exactly width * height bytes.
  static GrayImage from_pixels(int width, int height,
                               std::span<const std::uint8_t> pixels);

  /// Sets every pixel to `v`.
  void fill(std::uint8_t v) noexcept;

  /// Mean pixel value in [0, 255]; 0 for an empty image.
  double mean() const noexcept;

  /// Minimum and maximum pixel values; {0, 0} for an empty image.
  struct MinMax {
    std::uint8_t min = 0;
    std::uint8_t max = 0;
  };
  MinMax min_max() const noexcept;

  /// Dynamic range max - min; 0 for an empty image.
  int dynamic_range() const noexcept;

  bool operator==(const GrayImage& other) const = default;

 private:
  int width_ = 0;
  int height_ = 0;
  // Pool-backed: per-frame rasters recycle through the worker's
  // BufferPool instead of the heap (see util/pool.h).
  hebs::util::PoolVector<std::uint8_t> pixels_;
};

/// A deep-pixel (> 8-bit) single-channel raster, row-major, stored as
/// 16-bit samples.  Unlike GrayImage, the level count is a runtime
/// property carried by the image: 10-bit video holds 1024 levels and
/// 16-bit stills 65536, both in the same storage type (every sample is
/// < levels()).  The HEBS pipeline reads levels() wherever the 8-bit
/// path reads kLevels.
class GrayImage16 {
 public:
  /// Empty 0x0 image (levels defaults to the full 16-bit ceiling).
  GrayImage16() = default;

  /// Creates a width x height image of `levels` representable levels
  /// (every pixel set to `fill`, which must be < levels).
  GrayImage16(int width, int height, int levels,
              std::uint16_t fill = 0);

  int width() const noexcept { return width_; }
  int height() const noexcept { return height_; }

  /// Representable level count (1024 for 10-bit, 65536 for 16-bit).
  int levels() const noexcept { return levels_; }

  /// Largest representable sample value, levels() - 1.
  int max_pixel() const noexcept { return levels_ - 1; }

  /// Total number of pixels.
  std::size_t size() const noexcept { return pixels_.size(); }
  bool empty() const noexcept { return pixels_.empty(); }

  /// Unchecked pixel access (x = column, y = row).
  std::uint16_t operator()(int x, int y) const noexcept {
    return pixels_[static_cast<std::size_t>(y) * width_ + x];
  }
  std::uint16_t& operator()(int x, int y) noexcept {
    return pixels_[static_cast<std::size_t>(y) * width_ + x];
  }

  /// Bounds-checked pixel access; throws InvalidArgument when outside.
  std::uint16_t at(int x, int y) const;
  void set(int x, int y, std::uint16_t v);

  /// True when (x, y) lies inside the raster.
  bool contains(int x, int y) const noexcept {
    return x >= 0 && y >= 0 && x < width_ && y < height_;
  }

  /// Raw pixel storage, row-major.
  std::span<const std::uint16_t> pixels() const noexcept { return pixels_; }
  std::span<std::uint16_t> pixels() noexcept { return pixels_; }

  /// Builds an image by copying a row-major sample buffer; `pixels`
  /// must hold exactly width * height samples, all < levels.
  static GrayImage16 from_pixels(int width, int height, int levels,
                                 std::span<const std::uint16_t> pixels);

  /// Widens an 8-bit image into `levels` levels by exact ratio scaling
  /// (v * (levels-1) / 255 — 255 always divides for the supported
  /// level counts' companions, but the rounding division is exact
  /// regardless).  An 8-bit frame widened to 16 bits maps v -> 257 v.
  static GrayImage16 widen(const GrayImage& g, int levels);

  /// Sets every pixel to `v`.
  void fill(std::uint16_t v) noexcept;

  /// Mean pixel value in [0, max_pixel()]; 0 for an empty image.
  double mean() const noexcept;

  /// Minimum and maximum pixel values; {0, 0} for an empty image.
  struct MinMax {
    std::uint16_t min = 0;
    std::uint16_t max = 0;
  };
  MinMax min_max() const noexcept;

  /// Dynamic range max - min; 0 for an empty image.
  int dynamic_range() const noexcept;

  bool operator==(const GrayImage16& other) const = default;

 private:
  int width_ = 0;
  int height_ = 0;
  int levels_ = PixelTraits<std::uint16_t>::kLevels;
  hebs::util::PoolVector<std::uint16_t> pixels_;
};

/// A normalized-luminance raster (values nominally in [0, 1]), row-major.
class FloatImage {
 public:
  FloatImage() = default;
  FloatImage(int width, int height, double fill = 0.0);

  int width() const noexcept { return width_; }
  int height() const noexcept { return height_; }
  std::size_t size() const noexcept { return values_.size(); }
  bool empty() const noexcept { return values_.empty(); }

  double operator()(int x, int y) const noexcept {
    return values_[static_cast<std::size_t>(y) * width_ + x];
  }
  double& operator()(int x, int y) noexcept {
    return values_[static_cast<std::size_t>(y) * width_ + x];
  }

  std::span<const double> values() const noexcept { return values_; }
  std::span<double> values() noexcept { return values_; }

  /// Mean luminance; 0 for an empty image.
  double mean() const noexcept;

  /// Converts normalized pixel values X/255 into a FloatImage.
  static FloatImage from_gray(const GrayImage& g);

  /// Converts normalized deep-pixel values X/(levels-1) into a
  /// FloatImage — the depth-generalized twin of from_gray (at 256
  /// levels the per-level normalization table holds the same doubles).
  static FloatImage from_gray16(const GrayImage16& g);

  /// Quantizes back to 8 bits with rounding and clamping.
  GrayImage to_gray() const;

 private:
  int width_ = 0;
  int height_ = 0;
  hebs::util::PoolVector<double> values_;
};

/// An 8-bit RGB image, row-major interleaved.
class RgbImage {
 public:
  RgbImage() = default;
  RgbImage(int width, int height);

  int width() const noexcept { return width_; }
  int height() const noexcept { return height_; }
  bool empty() const noexcept { return data_.empty(); }

  struct Pixel {
    std::uint8_t r = 0;
    std::uint8_t g = 0;
    std::uint8_t b = 0;
    bool operator==(const Pixel&) const = default;
  };

  Pixel get(int x, int y) const noexcept;
  void set(int x, int y, Pixel p) noexcept;

  std::span<const std::uint8_t> data() const noexcept { return data_; }
  std::span<std::uint8_t> data() noexcept { return data_; }

  bool operator==(const RgbImage& other) const = default;

  /// ITU-R BT.601 luma extraction (the standard for SDTV-era content,
  /// matching the paper's 2005 context).
  GrayImage to_luma() const;

  /// Same, into `out`, reusing its storage when it already has this
  /// image's geometry.
  void to_luma(GrayImage& out) const;

  /// Replicates a grayscale image into all three channels.
  static RgbImage from_gray(const GrayImage& g);

  /// Builds an image by copying an interleaved R,G,B buffer; `pixels`
  /// must hold exactly 3 * width * height bytes.
  static RgbImage from_pixels(int width, int height,
                              std::span<const std::uint8_t> pixels);

 private:
  int width_ = 0;
  int height_ = 0;
  hebs::util::PoolVector<std::uint8_t> data_;
};

}  // namespace hebs::image
