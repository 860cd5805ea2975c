#include "sync/retry.h"

#include <algorithm>

namespace freshen {
namespace sync {

double NextBackoffDelay(Rng& rng, double previous_delay_seconds) {
  const double prev = std::max(kBackoffBaseSeconds, previous_delay_seconds);
  const double hi = std::min(kBackoffCapSeconds, 3.0 * prev);
  return rng.NextDoubleIn(kBackoffBaseSeconds, hi);
}

}  // namespace sync
}  // namespace freshen
