#include "estimate/change_estimator.h"

#include <cmath>

#include "common/macros.h"
#include "rng/rng.h"

namespace freshen {

double BiasReducedRate(uint64_t polls, uint64_t changes, double mean_gap) {
  FRESHEN_CHECK(polls >= 1);
  FRESHEN_CHECK(mean_gap > 0.0);
  const double n = static_cast<double>(polls);
  if (changes == 0) {
    // The raw formula is exactly 0 here, which the planner's active-set
    // rule would make permanent (see header). Floor at the rate one "half
    // detection" of evidence supports: -log(n / (n + 1/2)) ~ 1 / (2n).
    return -std::log(n / (n + 0.5)) / mean_gap;
  }
  const double x = static_cast<double>(changes > polls ? polls : changes);
  return -std::log((n - x + 0.5) / (n + 0.5)) / mean_gap;
}

ChangeRateEstimator::ChangeRateEstimator(double poll_interval)
    : poll_interval_(poll_interval) {
  FRESHEN_CHECK(poll_interval > 0.0);
}

void ChangeRateEstimator::RecordPoll(bool changed) {
  RecordPoll(changed, poll_interval_);
}

void ChangeRateEstimator::RecordPoll(bool changed, double gap) {
  if (!(gap > 0.0) || !std::isfinite(gap)) return;  // Nothing was observed.
  ++polls_;
  if (changed) ++changes_;
  watched_time_ += gap;
}

Result<double> ChangeRateEstimator::EstimatedRate() const {
  if (polls_ == 0) {
    return Status::FailedPrecondition("no polls recorded yet");
  }
  return BiasReducedRate(polls_, changes_,
                         watched_time_ / static_cast<double>(polls_));
}

double SimulatePollEstimate(double true_rate, double poll_interval,
                            uint64_t num_polls, uint64_t seed) {
  FRESHEN_CHECK(true_rate >= 0.0);
  FRESHEN_CHECK(poll_interval > 0.0);
  FRESHEN_CHECK(num_polls > 0);
  Rng rng(seed);
  ChangeRateEstimator estimator(poll_interval);
  const double p_change = -std::expm1(-true_rate * poll_interval);
  for (uint64_t i = 0; i < num_polls; ++i) {
    estimator.RecordPoll(rng.NextBool(p_change));
  }
  return estimator.EstimatedRate().value();  // num_polls > 0, cannot fail.
}

double SampleChangeRatio(const std::vector<double>& true_rates,
                         size_t sample_size, double window, uint64_t seed) {
  FRESHEN_CHECK(!true_rates.empty());
  FRESHEN_CHECK(window > 0.0);
  Rng rng(seed);
  const size_t k = sample_size == 0
                       ? 1
                       : (sample_size < true_rates.size() ? sample_size
                                                          : true_rates.size());
  size_t changed = 0;
  for (size_t s = 0; s < k; ++s) {
    const size_t i =
        static_cast<size_t>(rng.NextUint64Below(true_rates.size()));
    const double p_change = -std::expm1(-true_rates[i] * window);
    if (rng.NextBool(p_change)) ++changed;
  }
  return static_cast<double>(changed) / static_cast<double>(k);
}

}  // namespace freshen
