// Learning a master profile from the mirror's request log — the "simple
// learning algorithm that monitors the system request log" sketched in the
// paper's conclusion (§7). Counts accesses per element with optional
// exponential decay so interest shifts are tracked.
#ifndef FRESHEN_PROFILE_LEARNER_H_
#define FRESHEN_PROFILE_LEARNER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"

namespace freshen {

/// Streaming estimator of the master profile from observed accesses.
class AccessLogLearner {
 public:
  struct Options {
    /// Per-period decay applied to historical counts in [0, 1]. 1.0 keeps all
    /// history (plain counting); smaller values favor recent interest.
    double decay = 1.0;
    /// Additive (Laplace) smoothing mass given to every element when taking
    /// a snapshot, so unaccessed elements keep a tiny nonzero probability.
    double smoothing = 0.0;
  };

  /// Creates a learner over `num_elements` elements.
  AccessLogLearner(size_t num_elements, Options options);

  /// Records one access to `element`. Must be < num_elements.
  void Observe(size_t element);

  /// Applies one decay step (call at period boundaries when decay < 1).
  void EndPeriod();

  /// Number of raw Observe() calls.
  uint64_t NumObservations() const { return observations_; }

  /// The current estimate of the master profile (sums to 1). Fails when no
  /// accesses were observed and smoothing is 0.
  Result<std::vector<double>> Snapshot() const;

  /// The normaliser Snapshot() divides by, as InverseWeightTotal over the
  /// smoothed counts: Snapshot()[i] is Weight(i, *InverseTotal()) bit for
  /// bit, so a caller that reads a few weights needs no snapshot column.
  /// Same failure as Snapshot().
  Result<double> InverseTotal() const;

  /// Element i's snapshot weight under the normaliser `inverse_total`.
  double Weight(size_t element, double inverse_total) const {
    return (counts_[element] + options_.smoothing) * inverse_total;
  }

 private:
  Options options_;
  std::vector<double> counts_;
  uint64_t observations_ = 0;
};

}  // namespace freshen

#endif  // FRESHEN_PROFILE_LEARNER_H_
