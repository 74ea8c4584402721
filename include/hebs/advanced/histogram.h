// UNSTABLE re-export header: exposes an internal library layer to
// in-repo tools (benches, whitebox examples) through the include/hebs/
// namespace so no tool includes src/ paths directly.  Not installed,
// not covered by the API version contract.
#pragma once

#include "histogram/histogram.h"  // IWYU pragma: export
#include "histogram/histogram_ops.h"  // IWYU pragma: export
