// User profiles and their aggregation into the master profile (paper §2).
// A profile is "a declarative specification of the relative importance of
// each copy in the mirror" — operationally, an access-frequency distribution.
// The mirror aggregates all user profiles (optionally weighted, e.g. to favor
// "generals or higher paying customers") into one master profile that drives
// scheduling.
#ifndef FRESHEN_PROFILE_PROFILE_H_
#define FRESHEN_PROFILE_PROFILE_H_

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/result.h"
#include "common/string_util.h"
#include "stats/descriptive.h"

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

/// The checks and the Kahan total NormalizeProbabilities uses, over
/// the weights weight_of(0), ..., weight_of(n - 1): returns 1 / total, so
/// weight i normalises to weight_of(i) * inverse with the same bits,
/// without a normalised column.
template <typename WeightOf>
Result<double> InverseWeightTotal(size_t n, WeightOf weight_of) {
  if (n == 0) return Status::InvalidArgument("weight vector is empty");
  KahanSum total;
  for (size_t i = 0; i < n; ++i) {
    const double w = weight_of(i);
    if (!(w >= 0.0) || !std::isfinite(w)) {
      return Status::InvalidArgument(
          StrFormat("weight %zu is negative or non-finite", i));
    }
    total.Add(w);
  }
  if (total.Total() <= 0.0) {
    return Status::InvalidArgument("all weights are zero");
  }
  return 1.0 / total.Total();
}

}  // namespace freshen

#endif  // FRESHEN_PROFILE_PROFILE_H_
