// UNSTABLE re-export header: exposes an internal library layer to
// in-repo tools (benches, whitebox examples) through the include/hebs/
// namespace so no tool includes src/ paths directly.  Not installed,
// not covered by the API version contract.
#pragma once

#include "quality/contrast_fidelity.h"  // IWYU pragma: export
#include "quality/distortion.h"  // IWYU pragma: export
#include "quality/hvs.h"  // IWYU pragma: export
#include "quality/metrics.h"  // IWYU pragma: export
#include "quality/ms_ssim.h"  // IWYU pragma: export
#include "quality/ssim.h"  // IWYU pragma: export
#include "quality/uiqi.h"  // IWYU pragma: export
#include "quality/uiqi_stream.h"  // IWYU pragma: export
#include "quality/window_stats.h"  // IWYU pragma: export
