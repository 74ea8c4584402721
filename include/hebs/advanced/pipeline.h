// UNSTABLE re-export header: exposes an internal library layer to
// in-repo tools (benches, whitebox examples) through the include/hebs/
// namespace so no tool includes src/ paths directly.  Not installed,
// not covered by the API version contract.
#pragma once

#include "pipeline/bbhe.h"  // IWYU pragma: export
#include "pipeline/engine.h"  // IWYU pragma: export
#include "pipeline/executor.h"  // IWYU pragma: export
#include "pipeline/frame_context.h"  // IWYU pragma: export
#include "pipeline/policy.h"  // IWYU pragma: export
#include "pipeline/stages.h"  // IWYU pragma: export
#include "pipeline/temporal.h"  // IWYU pragma: export
