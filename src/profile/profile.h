// User profiles and their aggregation into the master profile (paper §2).
// A profile is "a declarative specification of the relative importance of
// each copy in the mirror" — operationally, an access-frequency distribution.
// The mirror aggregates all user profiles (optionally weighted, e.g. to favor
// "generals or higher paying customers") into one master profile that drives
// scheduling.
#ifndef FRESHEN_PROFILE_PROFILE_H_
#define FRESHEN_PROFILE_PROFILE_H_

#include <cstddef>
#include <vector>

#include "common/result.h"

namespace freshen {

/// One user's interest distribution over the mirror's N elements.
class UserProfile {
 public:
  /// Builds a profile from non-negative interest weights (one per element).
  /// Weights need not be normalized. Fails when empty, when any weight is
  /// negative/non-finite, or when all weights are zero.
  static Result<UserProfile> FromWeights(std::vector<double> weights);

  /// Normalized access probabilities; sums to 1.
  const std::vector<double>& probabilities() const { return probs_; }

  /// Number of elements covered.
  size_t size() const { return probs_.size(); }

 private:
  explicit UserProfile(std::vector<double> probs) : probs_(std::move(probs)) {}
  std::vector<double> probs_;
};

/// Aggregates user profiles into the master profile. `user_weights` scales
/// each user's contribution (empty means equal weight). All profiles must
/// cover the same number of elements; weights must be non-negative with a
/// positive total. The result sums to 1.
Result<std::vector<double>> AggregateProfiles(
    const std::vector<UserProfile>& profiles,
    const std::vector<double>& user_weights = {});

/// Normalizes a non-negative weight vector to sum to 1. Fails on an empty
/// vector, negative/non-finite entries, or an all-zero vector.
Result<std::vector<double>> NormalizeProbabilities(std::vector<double> weights);

/// NormalizeProbabilities on a caller-owned vector: same checks, same
/// arithmetic, no allocation. On failure `*weights` is left unscaled.
Status NormalizeProbabilitiesInPlace(std::vector<double>* weights);

}  // namespace freshen

#endif  // FRESHEN_PROFILE_PROFILE_H_
