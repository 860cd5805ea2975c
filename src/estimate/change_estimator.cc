#include "estimate/change_estimator.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "rng/rng.h"

namespace freshen {

double BiasReducedRate(double polls, double changes, double mean_gap) {
  FRESHEN_CHECK(polls > 0.0);
  FRESHEN_CHECK(mean_gap > 0.0);
  if (changes == 0.0) {
    // The raw formula is exactly 0 here, which the planner's active-set
    // rule would make permanent (see header). Floor at the rate one "half
    // detection" of evidence supports: -log(n / (n + 1/2)) ~ 1 / (2n).
    return -std::log(polls / (polls + 0.5)) / mean_gap;
  }
  const double x = std::min(changes, polls);
  return -std::log((polls - x + 0.5) / (polls + 0.5)) / mean_gap;
}

double SimulatePollEstimate(double true_rate, double poll_interval,
                            uint64_t num_polls, uint64_t seed) {
  FRESHEN_CHECK(true_rate >= 0.0);
  FRESHEN_CHECK(poll_interval > 0.0);
  FRESHEN_CHECK(num_polls > 0);
  Rng rng(seed);
  SyncEvidence evidence(1);
  const double p_change = -std::expm1(-true_rate * poll_interval);
  for (uint64_t i = 0; i < num_polls; ++i) {
    evidence.Observe(0, rng.NextBool(p_change), poll_interval);
  }
  return evidence.RateOr(0, /*prior=*/0.0);  // num_polls > 0: an estimate.
}

}  // namespace freshen
