#include "hebs/stats.h"

#include "obs/counters.h"

namespace hebs {

std::string SessionStats::to_text() const {
  // The registry's own dump of these values, so a scraper needs one name
  // catalog and one line order whether it reads Session::stats() or the
  // whole-process counters.
  obs::CounterSnapshot snap;
#define HEBS_STATS_CELL(e, name, field, kind) \
  snap.values[static_cast<std::size_t>(obs::Counter::e)] = field;
  HEBS_COUNTER_TABLE(HEBS_STATS_CELL)
#undef HEBS_STATS_CELL
  return obs::counters_text(snap);
}

}  // namespace hebs
