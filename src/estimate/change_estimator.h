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
//     finite evidence). BiasReducedRate() therefore floors the x = 0 case
//     at -log(n / (n + 1/2)) / tau ~ 1 / (2 n tau): the rate whose
//     likelihood of n silent polls is still unsurprising, decaying honestly
//     as evidence accumulates but never reaching the absorbing zero.
//   * Zero-observation windows. A poll gap <= 0 (replayed logs, clock
//     steps, duplicate syncs at one timestamp) observes nothing;
//     SyncEvidence::Observe ignores it instead of corrupting the mean gap.
//
// SyncEvidence is the one per-element store of that poll stream. The
// adaptive controller never decays it (the batch estimator); the drift
// detector decays it once per period so old evidence fades (the online
// setting of Avrachenkov, Patil and Thoppe).
#ifndef FRESHEN_ESTIMATE_CHANGE_ESTIMATOR_H_
#define FRESHEN_ESTIMATE_CHANGE_ESTIMATOR_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/macros.h"

namespace freshen {

/// The bias-reduced estimate from `polls` observations with `changes`
/// detections over a mean inter-poll gap `mean_gap` > 0, with the
/// zero-detection floor described above. Requires polls > 0.
double BiasReducedRate(double polls, double changes, double mean_gap);

/// Per-element poll evidence, struct-of-arrays: the effective number of
/// polls, how many of them detected a change, and the watched time (the sum
/// of inter-poll gaps).
class SyncEvidence {
 public:
  explicit SyncEvidence(size_t num_elements)
      : polls_(num_elements, 0.0),
        changes_(num_elements, 0.0),
        watched_time_(num_elements, 0.0) {}

  size_t size() const { return polls_.size(); }

  /// Records one poll of `element` (< size()): `changed` is whether the
  /// fetched copy differed, `gap` the time since the element's previous
  /// poll. A gap <= 0 or non-finite is a zero-observation window and is
  /// ignored. Returns whether the poll was recorded.
  bool Observe(size_t element, bool changed, double gap) {
    FRESHEN_CHECK(element < polls_.size());
    if (!(gap > 0.0) || !std::isfinite(gap)) return false;  // Nothing seen.
    polls_[element] += 1.0;
    if (changed) changes_[element] += 1.0;
    watched_time_[element] += gap;
    return true;
  }

  /// Scales every element's polls, changes and watched time by `factor`,
  /// which leaves each detection ratio and mean gap as it was.
  void Decay(double factor);

  double polls(size_t element) const { return polls_[element]; }
  double changes(size_t element) const { return changes_[element]; }
  double watched_time(size_t element) const { return watched_time_[element]; }

  /// BiasReducedRate over the element's evidence at its mean gap, or
  /// `prior` before its first recorded poll.
  double RateOr(size_t element, double prior) const;

 private:
  std::vector<double> polls_;
  std::vector<double> changes_;
  std::vector<double> watched_time_;
};

/// Simulates `num_polls` polls of a Poisson(lambda) element at interval tau
/// and returns the resulting estimate. Deterministic in `seed`. Used by the
/// imperfect-knowledge ablation (A3).
double SimulatePollEstimate(double true_rate, double poll_interval,
                            uint64_t num_polls, uint64_t seed);

}  // namespace freshen

#endif  // FRESHEN_ESTIMATE_CHANGE_ESTIMATOR_H_
