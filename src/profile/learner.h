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

  /// Snapshot() written into `*weights` (resized to num_elements), so a
  /// caller that keeps the column across calls allocates nothing. Same
  /// arithmetic, same bits, same failure.
  Status SnapshotInto(std::vector<double>* weights) const;

 private:
  Options options_;
  std::vector<double> counts_;
  uint64_t observations_ = 0;
};

}  // namespace freshen

#endif  // FRESHEN_PROFILE_LEARNER_H_
