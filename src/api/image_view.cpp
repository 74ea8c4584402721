#include "hebs/image_view.h"

#include <cstdint>
#include <cstring>
#include <string>

#include "api/view_convert.h"
#include "kernels/kernels.h"
#include "util/error.h"

namespace hebs {

Status ImageView::validate() const {
  if (width_ < 0 || height_ < 0) {
    return Status(StatusCode::kInvalidImage,
                  "image dimensions must be non-negative (got " +
                      std::to_string(width_) + "x" + std::to_string(height_) +
                      ")");
  }
  if (empty()) {
    return Status(StatusCode::kInvalidImage, "image view is empty");
  }
  if (data_ == nullptr) {
    return Status(StatusCode::kInvalidImage,
                  "image view has null data for non-zero dimensions");
  }
  // Overflow guards: everything downstream addresses pixels as
  // y * stride_bytes + x * bpp in ptrdiff_t, so a view whose packed row
  // or total extent cannot be represented must be rejected here rather
  // than proceed into signed-overflow UB.
  const int bpp = bytes_per_pixel(format_);
  if (width_ > static_cast<std::ptrdiff_t>(PTRDIFF_MAX) / bpp) {
    return Status(StatusCode::kInvalidImage,
                  "width " + std::to_string(width_) + " x " +
                      std::to_string(bpp) +
                      " bytes/pixel overflows the addressable row size");
  }
  const std::ptrdiff_t packed = static_cast<std::ptrdiff_t>(width_) * bpp;
  if (stride_bytes_ < packed) {
    return Status(StatusCode::kInvalidStride,
                  "stride " + std::to_string(stride_bytes_) +
                      " is smaller than one packed row of " +
                      std::to_string(packed) + " bytes");
  }
  if (stride_bytes_ > PTRDIFF_MAX / static_cast<std::ptrdiff_t>(height_)) {
    return Status(StatusCode::kInvalidStride,
                  "stride " + std::to_string(stride_bytes_) + " x height " +
                      std::to_string(height_) +
                      " overflows the addressable image size");
  }
  return Status();
}

}  // namespace hebs

namespace hebs::api {

void materialize_gray(const ImageView& view, hebs::image::GrayImage& out) {
  const int w = view.width();
  if (out.empty() || out.width() != w || out.height() != view.height()) {
    out = hebs::image::GrayImage(w, view.height());
  }
  if (view.format() == PixelFormat::kGray8) {
    for (int y = 0; y < view.height(); ++y) {
      std::memcpy(&out(0, y), view.row(y), static_cast<std::size_t>(w));
    }
    return;
  }
  // BT.601 luma through the dispatched kernel — the same kernel
  // image::RgbImage::to_luma runs, so the two ingestion paths are
  // bit-identical.  Rows are packed RGB8 internally whatever the view
  // stride, so each row is one kernel call.
  const auto& kernels = hebs::kernels::active();
  for (int y = 0; y < view.height(); ++y) {
    kernels.luma_bt601_rgb8(view.row(y), static_cast<std::size_t>(w),
                            &out(0, y));
  }
}

hebs::image::GrayImage materialize_gray(const ImageView& view) {
  hebs::image::GrayImage out;
  materialize_gray(view, out);
  return out;
}

void materialize_gray16(const ImageView& view, int levels,
                        hebs::image::GrayImage16& out) {
  if (out.empty() || out.width() != view.width() ||
      out.height() != view.height() || out.levels() != levels) {
    out = hebs::image::GrayImage16(view.width(), view.height(), levels);
  }
  const std::size_t row_bytes = static_cast<std::size_t>(view.width()) * 2;
  auto dst = out.pixels();
  for (int y = 0; y < view.height(); ++y) {
    // memcpy per row: the view's rows may be strided or unaligned; the
    // owned raster is packed native-order uint16.
    std::memcpy(dst.data() + static_cast<std::size_t>(y) * view.width(),
                view.row(y), row_bytes);
  }
  const std::uint16_t max_sample =
      static_cast<std::uint16_t>(out.max_pixel());
  for (std::uint16_t v : out.pixels()) {
    HEBS_REQUIRE(v <= max_sample,
                 "gray16 sample exceeds the session's bit depth");
  }
}

void materialize_rgb(const ImageView& view, hebs::image::RgbImage& out) {
  if (out.empty() || out.width() != view.width() ||
      out.height() != view.height()) {
    out = hebs::image::RgbImage(view.width(), view.height());
  }
  const std::size_t row_bytes = static_cast<std::size_t>(view.width()) * 3;
  auto dst = out.data();
  for (int y = 0; y < view.height(); ++y) {
    std::memcpy(dst.data() + static_cast<std::size_t>(y) * row_bytes,
                view.row(y), row_bytes);
  }
}

}  // namespace hebs::api
