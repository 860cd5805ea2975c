// Estimating an element's change frequency from periodic polls — the
// mechanism the paper assumes supplies lambda to the mirror ("Prior work has
// shown how the source can use estimation [4] and sampling [6] techniques to
// obtain a good estimate of these update frequencies").
//
// A poll at interval tau only reveals *whether* the element changed since the
// last poll, not how many times. For a Poisson process with rate lambda the
// probability a poll detects a change is 1 - e^{-lambda tau}; Cho &
// Garcia-Molina's bias-reduced estimator from n polls with x detections is
//
//   lambda_hat = -log( (n - x + 1/2) / (n + 1/2) ) / tau
//
// which stays finite even when every poll saw a change. Two hardenings on
// top of the textbook form, both driven by how the planner consumes these
// estimates:
//
//   * Zero-detection floor. With x = 0 the formula collapses to exactly 0,
//     and a change rate of exactly 0 removes the element from the solver's
//     active set — it is never scheduled again, so it is never polled
//     again, so the estimate can never recover (permanent poisoning from
//     finite evidence). EstimatedRate() therefore floors the x = 0 case at
//     -log(n / (n + 1/2)) / tau ~ 1 / (2 n tau): the rate whose likelihood
//     of n silent polls is still unsurprising, decaying honestly as
//     evidence accumulates but never reaching the absorbing zero.
//   * Zero-observation windows. A poll gap <= 0 (replayed logs, clock
//     steps, duplicate syncs at one timestamp) observes nothing; the
//     gap-aware overload ignores it instead of corrupting the mean gap.
#ifndef FRESHEN_ESTIMATE_CHANGE_ESTIMATOR_H_
#define FRESHEN_ESTIMATE_CHANGE_ESTIMATOR_H_

#include <cstdint>
#include <vector>

#include "common/result.h"

namespace freshen {

/// The bias-reduced estimate from `polls` observations with `changes`
/// detections over a mean inter-poll gap `mean_gap` > 0, with the
/// zero-detection floor described above. Requires polls >= 1; shared by
/// ChangeRateEstimator and the adaptive controller's believed catalog.
double BiasReducedRate(uint64_t polls, uint64_t changes, double mean_gap);

/// Accumulates poll outcomes for one element and estimates its change rate.
class ChangeRateEstimator {
 public:
  /// `poll_interval` is the default time between polls, > 0 — used by the
  /// gap-less RecordPoll overload.
  explicit ChangeRateEstimator(double poll_interval);

  /// Records one poll outcome: `changed` is whether the element differed
  /// from the previously fetched copy. Assumes the default poll interval.
  void RecordPoll(bool changed);

  /// Gap-aware overload for irregular polling: `gap` is the time since the
  /// previous poll. A gap <= 0 (or non-finite) is a zero-observation
  /// window and is ignored entirely.
  void RecordPoll(bool changed, double gap);

  /// Number of polls recorded.
  uint64_t num_polls() const { return polls_; }
  /// Number of polls that detected a change.
  uint64_t num_changes() const { return changes_; }

  /// The bias-reduced rate estimate over the mean recorded gap, floored
  /// away from zero when no poll detected a change (see file comment).
  /// Fails before the first poll. Always positive and finite afterwards.
  Result<double> EstimatedRate() const;

 private:
  double poll_interval_;
  uint64_t polls_ = 0;
  uint64_t changes_ = 0;
  double watched_time_ = 0.0;
};

/// Simulates `num_polls` polls of a Poisson(lambda) element at interval tau
/// and returns the resulting estimate. Deterministic in `seed`. Used by the
/// imperfect-knowledge ablation (A3).
double SimulatePollEstimate(double true_rate, double poll_interval,
                            uint64_t num_polls, uint64_t seed);

/// Sampling-based change *ratio* of a set of elements (after [6]): polls a
/// random subset of `sample_size` elements once over `window` time units and
/// returns the fraction that changed. Deterministic in `seed`.
double SampleChangeRatio(const std::vector<double>& true_rates,
                         size_t sample_size, double window, uint64_t seed);

}  // namespace freshen

#endif  // FRESHEN_ESTIMATE_CHANGE_ESTIMATOR_H_
