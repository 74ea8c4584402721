// UNSTABLE re-export header: exposes an internal library layer to
// in-repo tools (benches, whitebox examples) through the include/hebs/
// namespace so no tool includes src/ paths directly.  Not installed,
// not covered by the API version contract.
#pragma once

#include "util/csv.h"  // IWYU pragma: export
#include "util/error.h"  // IWYU pragma: export
#include "util/faultpoint.h"  // IWYU pragma: export
#include "util/mathutil.h"  // IWYU pragma: export
#include "util/pool.h"  // IWYU pragma: export
#include "util/rng.h"  // IWYU pragma: export
#include "util/table.h"  // IWYU pragma: export
