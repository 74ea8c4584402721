// Internal ingestion helper: materializes the 8-bit luminance raster
// the pipeline consumes from a validated ImageView.  Gray8 views copy
// rows (one memcpy for tightly packed input); RGB8 views go through
// BT.601 luma extraction with exactly the arithmetic of
// image::RgbImage::to_luma, so a view over interleaved RGB yields a
// raster bit-identical to a pre-converted grayscale image.
#pragma once

#include "hebs/image_view.h"
#include "image/image.h"

namespace hebs::api {

// Each function writes into `out`, reusing its storage when it already
// has the view's geometry (and, for gray16, its level count): a caller
// that keeps its rasters across calls re-stages into the same memory.

/// Precondition: view.validate().ok().
void materialize_gray(const ImageView& view, hebs::image::GrayImage& out);

/// Same, into a new raster.
hebs::image::GrayImage materialize_gray(const ImageView& view);

/// Packs a (possibly strided) rgb8 view into an owned interleaved
/// raster.  Precondition: view.validate().ok() and format == kRgb8.
void materialize_rgb(const ImageView& view, hebs::image::RgbImage& out);

/// Copies a gray16 view into an owned deep-pixel raster of `levels`
/// representable levels.  Throws util::InvalidArgument when any sample
/// is >= levels (the facade maps this to kInvalidImage — a deep view
/// must fit the session's declared bit depth, never be clamped).
/// Precondition: view.validate().ok() and format == kGray16.
void materialize_gray16(const ImageView& view, int levels,
                        hebs::image::GrayImage16& out);

}  // namespace hebs::api
