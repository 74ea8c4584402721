#include "histogram/histogram.h"

#include <cmath>
#include <cstring>

#include "kernels/kernels.h"
#include "util/error.h"

namespace hebs::histogram {

Histogram::Histogram(int bins) : bins_(bins) {
  HEBS_REQUIRE(bins >= 2 && bins <= hebs::image::PixelTraits<
                                        std::uint16_t>::kLevels,
               "bin count must be in [2, 65536]");
  counts_.assign(static_cast<std::size_t>(bins), 0);
}

Histogram Histogram::from_image(const hebs::image::GrayImage& img) {
  Histogram h;
  kernels::active().histogram_u8(img.pixels().data(), img.size(),
                                 h.counts_.data());
  h.total_ = img.size();
  return h;
}

Histogram Histogram::from_image(const hebs::image::GrayImage16& img) {
  Histogram h(img.levels());
  kernels::histogram_u16(img.pixels().data(), img.size(), h.counts_.data());
  h.total_ = img.size();
  return h;
}

template <typename Image>
bool Histogram::refresh_from_delta_impl(const Image& prev, const Image& cur,
                                        std::size_t max_changed,
                                        std::size_t* changed_out) {
  HEBS_REQUIRE(prev.width() == cur.width() && prev.height() == cur.height(),
               "delta refresh needs equal-size frames");
  HEBS_REQUIRE(total_ == prev.size(),
               "histogram does not cover the previous frame");
  const auto* a = prev.pixels().data();
  const auto* b = cur.pixels().data();
  const std::size_t n = prev.size();
  // Samples per 64-bit compare word (8 for u8 frames, 4 for u16).
  constexpr std::size_t kStep = sizeof(std::uint64_t) / sizeof(a[0]);

  // Deltas are staged so an over-threshold bail leaves *this untouched.
  hebs::util::PoolVector<std::int64_t> delta(
      static_cast<std::size_t>(bins_), 0);
  std::size_t changed = 0;
  std::size_t i = 0;
  for (; i + kStep <= n; i += kStep) {
    std::uint64_t wa, wb;
    std::memcpy(&wa, a + i, sizeof(wa));
    std::memcpy(&wb, b + i, sizeof(wb));
    if (wa == wb) continue;  // the common case on coherent frames
    for (std::size_t j = i; j < i + kStep; ++j) {
      if (a[j] != b[j]) {
        --delta[a[j]];
        ++delta[b[j]];
        ++changed;
      }
    }
    if (changed > max_changed) {
      if (changed_out != nullptr) *changed_out = changed;
      return false;
    }
  }
  for (; i < n; ++i) {
    if (a[i] != b[i]) {
      --delta[a[i]];
      ++delta[b[i]];
      ++changed;
    }
  }
  if (changed > max_changed) {
    if (changed_out != nullptr) *changed_out = changed;
    return false;
  }
  for (int bin = 0; bin < bins_; ++bin) {
    const auto k = static_cast<std::size_t>(bin);
    counts_[k] = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(counts_[k]) + delta[k]);
  }
  if (changed_out != nullptr) *changed_out = changed;
  return true;
}

bool Histogram::refresh_from_delta(const hebs::image::GrayImage& prev,
                                   const hebs::image::GrayImage& cur,
                                   std::size_t max_changed,
                                   std::size_t* changed_out) {
  HEBS_REQUIRE(bins_ == kBins, "8-bit delta refresh needs a 256-bin histogram");
  return refresh_from_delta_impl(prev, cur, max_changed, changed_out);
}

bool Histogram::refresh_from_delta(const hebs::image::GrayImage16& prev,
                                   const hebs::image::GrayImage16& cur,
                                   std::size_t max_changed,
                                   std::size_t* changed_out) {
  HEBS_REQUIRE(prev.levels() == bins_ && cur.levels() == bins_,
               "delta refresh needs frames of the histogram's level count");
  return refresh_from_delta_impl(prev, cur, max_changed, changed_out);
}

Histogram Histogram::from_counts(std::span<const std::uint64_t> counts) {
  Histogram h(static_cast<int>(counts.size()));
  for (std::size_t i = 0; i < counts.size(); ++i) {
    h.counts_[i] = counts[i];
    h.total_ += counts[i];
  }
  return h;
}

std::uint64_t Histogram::count(int level) const {
  HEBS_REQUIRE(level >= 0 && level < bins_, "level out of range");
  return counts_[static_cast<std::size_t>(level)];
}

void Histogram::add(int level, std::uint64_t n) {
  HEBS_REQUIRE(level >= 0 && level < bins_, "level out of range");
  counts_[static_cast<std::size_t>(level)] += n;
  total_ += n;
}

double Histogram::pdf(int level) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(count(level)) / static_cast<double>(total_);
}

double Histogram::cdf(int level) const {
  HEBS_REQUIRE(level >= 0 && level < bins_, "level out of range");
  if (total_ == 0) return 0.0;
  std::uint64_t acc = 0;
  for (int i = 0; i <= level; ++i) acc += counts_[static_cast<std::size_t>(i)];
  return static_cast<double>(acc) / static_cast<double>(total_);
}

hebs::util::PoolVector<std::uint64_t> Histogram::cumulative_counts() const {
  hebs::util::PoolVector<std::uint64_t> cum(
      static_cast<std::size_t>(bins_), 0);
  std::uint64_t acc = 0;
  for (int i = 0; i < bins_; ++i) {
    acc += counts_[static_cast<std::size_t>(i)];
    cum[static_cast<std::size_t>(i)] = acc;
  }
  return cum;
}

double Histogram::mean() const {
  if (total_ == 0) return 0.0;
  double acc = 0.0;
  for (int i = 0; i < bins_; ++i) {
    acc += static_cast<double>(i) *
           static_cast<double>(counts_[static_cast<std::size_t>(i)]);
  }
  return acc / static_cast<double>(total_);
}

double Histogram::variance() const {
  if (total_ == 0) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (int i = 0; i < bins_; ++i) {
    const double d = static_cast<double>(i) - m;
    acc += d * d * static_cast<double>(counts_[static_cast<std::size_t>(i)]);
  }
  return acc / static_cast<double>(total_);
}

double Histogram::entropy_bits() const {
  if (total_ == 0) return 0.0;
  double acc = 0.0;
  for (int i = 0; i < bins_; ++i) {
    const double p = pdf(i);
    if (p > 0.0) acc -= p * std::log2(p);
  }
  return acc;
}

int Histogram::min_level() const noexcept {
  for (int i = 0; i < bins_; ++i) {
    if (counts_[static_cast<std::size_t>(i)] > 0) return i;
  }
  return -1;
}

int Histogram::max_level() const noexcept {
  for (int i = bins_ - 1; i >= 0; --i) {
    if (counts_[static_cast<std::size_t>(i)] > 0) return i;
  }
  return -1;
}

int Histogram::dynamic_range() const noexcept {
  const int lo = min_level();
  if (lo < 0) return 0;
  return max_level() - lo;
}

int Histogram::percentile_level(double p) const {
  HEBS_REQUIRE(total_ > 0, "percentile of empty histogram");
  HEBS_REQUIRE(p >= 0.0 && p <= 1.0, "percentile p must be in [0,1]");
  const auto threshold = static_cast<double>(total_) * p;
  std::uint64_t acc = 0;
  for (int i = 0; i < bins_; ++i) {
    acc += counts_[static_cast<std::size_t>(i)];
    if (static_cast<double>(acc) >= threshold) return i;
  }
  return bins_ - 1;
}

}  // namespace hebs::histogram
