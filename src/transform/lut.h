// Lookup-table pixel transforms.
//
// Every pixel transformation function Φ in the paper maps levels to
// levels, so it is fully described by an N-entry lookup table (N = 256
// for the paper's 8-bit path).  The LCD controller applies it either in
// software (pixel remapping) or implicitly through the programmable
// reference-voltage ladder.
#pragma once

#include <array>
#include <cstdint>

#include "image/image.h"
#include "util/pool.h"

namespace hebs::transform {

/// A 256-entry level-to-level lookup table (the 8-bit path's Φ).
class Lut {
 public:
  static constexpr int kSize = hebs::image::kLevels;

  /// Identity table.
  Lut() noexcept;

  /// Builds from an explicit table.
  explicit Lut(const std::array<std::uint8_t, kSize>& table) noexcept
      : table_(table) {}

  /// Maps one level.
  std::uint8_t operator[](int level) const {
    return table_[static_cast<std::size_t>(level)];
  }

  /// Mutable entry access.
  std::uint8_t& operator[](int level) {
    return table_[static_cast<std::size_t>(level)];
  }

  /// Applies the table to every pixel of an image.
  hebs::image::GrayImage apply(const hebs::image::GrayImage& img) const;

  /// Composition: result maps x -> other[(*this)[x]].
  Lut then(const Lut& other) const noexcept;

  /// True when the table is non-decreasing (the paper requires Φ to be
  /// monotonic so the displayed ordering of gray levels is preserved).
  bool is_monotonic() const noexcept;

  /// Smallest and largest output levels.
  std::uint8_t min_output() const noexcept;
  std::uint8_t max_output() const noexcept;

  /// Output dynamic range max_output - min_output.
  int output_range() const noexcept {
    return max_output() - min_output();
  }

  bool operator==(const Lut& other) const = default;

 private:
  std::array<std::uint8_t, kSize> table_;
};

/// A runtime-sized level-to-level table for deep-pixel frames (1024 or
/// 65536 entries, matching the frame's level count).  Pool-backed so
/// per-frame tables recycle the worker's BufferPool.
class Lut16 {
 public:
  /// Identity table over `size` levels.
  explicit Lut16(int size);

  int size() const noexcept { return static_cast<int>(table_.size()); }

  std::uint16_t operator[](int level) const {
    return table_[static_cast<std::size_t>(level)];
  }
  std::uint16_t& operator[](int level) {
    return table_[static_cast<std::size_t>(level)];
  }

  /// Applies the table to every pixel; img.levels() must equal size().
  hebs::image::GrayImage16 apply(const hebs::image::GrayImage16& img) const;

  bool is_monotonic() const noexcept;

  bool operator==(const Lut16& other) const = default;

 private:
  hebs::util::PoolVector<std::uint16_t> table_;
};

/// An N-entry level -> real-value table.  This is the precomputed form
/// of evaluating a transfer curve at every pixel level: one linear sweep
/// over the curve's segments replaces a per-level (or worse, per-pixel)
/// binary search for the containing segment.  The evaluation pipeline
/// samples the operating point's luminance transform into a FloatLut once
/// and then indexes it per pixel (or per populated level).
///
/// The entry count is a runtime property (size(), default 256): the
/// depth-generalized pipeline samples curves at the frame's level count.
class FloatLut {
 public:
  static constexpr int kSize = hebs::image::kLevels;

  /// All-zero 256-entry table.
  FloatLut() : FloatLut(kSize) {}

  /// All-zero table of `size` entries.
  explicit FloatLut(int size);

  /// Builds from an explicit 256-entry table.
  explicit FloatLut(const std::array<double, kSize>& table)
      : table_(table.begin(), table.end()) {}

  /// Number of entries (== the level count the table was sampled at).
  int size() const noexcept { return static_cast<int>(table_.size()); }

  double operator[](int level) const {
    return table_[static_cast<std::size_t>(level)];
  }
  double& operator[](int level) {
    return table_[static_cast<std::size_t>(level)];
  }

  /// The size() entries, contiguous.
  const double* data() const noexcept { return table_.data(); }

  /// Applies the table to every pixel, writing a real-valued raster.
  hebs::image::FloatImage apply(const hebs::image::GrayImage& img) const;

  /// Deep-pixel apply; img.levels() must equal size().
  hebs::image::FloatImage apply16(const hebs::image::GrayImage16& img) const;

  /// Quantizes every entry to an 8-bit level table:
  /// lround(clamp01(v) * 255).  The single definition of the
  /// float-to-level rounding rule shared by the gray, color and
  /// pipeline paths.  Requires a 256-entry table.
  Lut quantize() const;

  /// Quantizes to a deep-pixel table of this table's size:
  /// lround(clamp01(v) * (size()-1)) — the same rounding rule on the
  /// frame's own level lattice.
  Lut16 quantize16() const;

  /// Transforms every entry through `fn` (e.g. clipping against β).
  template <typename Fn>
  FloatLut map(Fn&& fn) const {
    FloatLut out(size());
    for (int i = 0; i < size(); ++i) out[i] = fn(table_[i]);
    return out;
  }

 private:
  hebs::util::PoolVector<double> table_;
};

}  // namespace hebs::transform
