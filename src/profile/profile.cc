#include "profile/profile.h"

#include <cmath>

#include "common/macros.h"
#include "common/string_util.h"
#include "stats/descriptive.h"

namespace freshen {

Result<std::vector<double>> NormalizeProbabilities(
    std::vector<double> weights) {
  FRESHEN_ASSIGN_OR_RETURN(
      const double inv,
      InverseWeightTotal(weights.size(),
                         [&weights](size_t i) { return weights[i]; }));
  for (double& w : weights) w *= inv;
  return weights;
}

Result<UserProfile> UserProfile::FromWeights(std::vector<double> weights) {
  auto normalized = NormalizeProbabilities(std::move(weights));
  if (!normalized.ok()) return normalized.status();
  return UserProfile(std::move(normalized).value());
}

Result<std::vector<double>> AggregateProfiles(
    const std::vector<UserProfile>& profiles,
    const std::vector<double>& user_weights) {
  if (profiles.empty()) {
    return Status::InvalidArgument("no profiles to aggregate");
  }
  if (!user_weights.empty() && user_weights.size() != profiles.size()) {
    return Status::InvalidArgument(StrFormat(
        "got %zu user weights for %zu profiles", user_weights.size(),
        profiles.size()));
  }
  const size_t n = profiles[0].size();
  std::vector<double> master(n, 0.0);
  for (size_t u = 0; u < profiles.size(); ++u) {
    if (profiles[u].size() != n) {
      return Status::InvalidArgument(
          StrFormat("profile %zu covers %zu elements, expected %zu", u,
                    profiles[u].size(), n));
    }
    const double w = user_weights.empty() ? 1.0 : user_weights[u];
    if (!(w >= 0.0) || !std::isfinite(w)) {
      return Status::InvalidArgument(
          StrFormat("user weight %zu is negative or non-finite", u));
    }
    const auto& probs = profiles[u].probabilities();
    for (size_t i = 0; i < n; ++i) master[i] += w * probs[i];
  }
  return NormalizeProbabilities(std::move(master));
}

}  // namespace freshen
