#include "image/ops.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "kernels/kernels.h"
#include "util/error.h"
#include "util/mathutil.h"

namespace hebs::image {

GrayImage crop(const GrayImage& img, int x0, int y0, int w, int h) {
  HEBS_REQUIRE(w > 0 && h > 0, "crop size must be positive");
  HEBS_REQUIRE(x0 >= 0 && y0 >= 0 && x0 + w <= img.width() &&
                   y0 + h <= img.height(),
               "crop rectangle outside the image");
  GrayImage out(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      out(x, y) = img(x0 + x, y0 + y);
    }
  }
  return out;
}

GrayImage flip_horizontal(const GrayImage& img) {
  HEBS_REQUIRE(!img.empty(), "flip of empty image");
  GrayImage out(img.width(), img.height());
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      out(x, y) = img(img.width() - 1 - x, y);
    }
  }
  return out;
}

GrayImage flip_vertical(const GrayImage& img) {
  HEBS_REQUIRE(!img.empty(), "flip of empty image");
  GrayImage out(img.width(), img.height());
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      out(x, y) = img(x, img.height() - 1 - y);
    }
  }
  return out;
}

GrayImage rotate90(const GrayImage& img) {
  HEBS_REQUIRE(!img.empty(), "rotation of empty image");
  GrayImage out(img.height(), img.width());
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      out(img.height() - 1 - y, x) = img(x, y);
    }
  }
  return out;
}

GrayImage resize_bilinear(const GrayImage& img, int new_w, int new_h) {
  HEBS_REQUIRE(!img.empty(), "resize of empty image");
  HEBS_REQUIRE(new_w > 0 && new_h > 0, "target size must be positive");
  GrayImage out(new_w, new_h);
  const double sx =
      new_w > 1 ? static_cast<double>(img.width() - 1) / (new_w - 1) : 0.0;
  const double sy =
      new_h > 1 ? static_cast<double>(img.height() - 1) / (new_h - 1) : 0.0;

  // Horizontal sample positions are the same for every output row;
  // compute them once.
  std::vector<int> xs0(static_cast<std::size_t>(new_w));
  std::vector<int> xs1(static_cast<std::size_t>(new_w));
  std::vector<double> wxs(static_cast<std::size_t>(new_w));
  for (int x = 0; x < new_w; ++x) {
    const double fx = x * sx;
    const int x0 = static_cast<int>(std::floor(fx));
    xs0[static_cast<std::size_t>(x)] = x0;
    xs1[static_cast<std::size_t>(x)] = std::min(x0 + 1, img.width() - 1);
    wxs[static_cast<std::size_t>(x)] = fx - x0;
  }

  // Per output row: gather-lerp the two source rows horizontally, then
  // blend them vertically as one elementwise pass.
  // lerp(top, bottom, wy) = top + wy*(bottom - top), built from a
  // (-1)-saxpy (exact negation) and a wy-saxpy, so every pixel sees
  // exactly the arithmetic of the old scalar triple-lerp.
  std::vector<double> top(static_cast<std::size_t>(new_w));
  std::vector<double> bottom(static_cast<std::size_t>(new_w));
  std::vector<double> diff(static_cast<std::size_t>(new_w));
  for (int y = 0; y < new_h; ++y) {
    const double fy = y * sy;
    const int y0 = static_cast<int>(std::floor(fy));
    const int y1 = std::min(y0 + 1, img.height() - 1);
    const double wy = fy - y0;
    for (int x = 0; x < new_w; ++x) {
      const std::size_t i = static_cast<std::size_t>(x);
      top[i] = util::lerp(img(xs0[i], y0), img(xs1[i], y0), wxs[i]);
      bottom[i] = util::lerp(img(xs0[i], y1), img(xs1[i], y1), wxs[i]);
    }
    diff = bottom;
    hebs::kernels::saxpy_f64(-1.0, top.data(), diff.data(), diff.size());
    hebs::kernels::saxpy_f64(wy, diff.data(), top.data(), top.size());
    for (int x = 0; x < new_w; ++x) {
      out(x, y) = static_cast<std::uint8_t>(std::lround(
          util::clamp(top[static_cast<std::size_t>(x)], 0.0, 255.0)));
    }
  }
  return out;
}

}  // namespace hebs::image
