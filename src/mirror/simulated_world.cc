#include "mirror/simulated_world.h"

#include <limits>

#include "common/string_util.h"
#include "profile/profile.h"

namespace freshen {

Result<SimulatedWorld> SimulatedWorld::Create(ElementSet truth,
                                              double accesses_per_period,
                                              uint64_t seed) {
  if (truth.empty()) {
    return Status::InvalidArgument("truth catalog is empty");
  }
  if (!(accesses_per_period >= 0.0) || !std::isfinite(accesses_per_period)) {
    return Status::InvalidArgument(
        "accesses_per_period must be finite and >= 0");
  }
  for (size_t i = 0; i < truth.size(); ++i) {
    const double rate = truth[i].change_rate;
    if (!(rate >= 0.0) || !std::isfinite(rate)) {
      return Status::InvalidArgument(
          StrFormat("change rate %zu is negative or non-finite", i));
    }
  }
  FRESHEN_ASSIGN_OR_RETURN(
      AliasTable access_table,
      AliasTable::Create(truth.size(),
                         [&truth](size_t i) { return truth[i].access_prob; }));
  return SimulatedWorld(std::move(truth), std::move(access_table),
                        accesses_per_period, seed);
}

SimulatedWorld::SimulatedWorld(ElementSet truth, AliasTable access_table,
                               double accesses_per_period, uint64_t seed)
    : truth_(std::move(truth)),
      accesses_per_period_(accesses_per_period),
      access_table_(std::move(access_table)),
      access_rng_(seed ^ kAccessSeedSalt),
      next_update_(truth_.size(), std::numeric_limits<double>::quiet_NaN()),
      seed_or_stream_(truth_.size()),
      has_stream_(truth_.size(), false) {
  // Element i's stream is the i-th root.Fork(). Only the seeds are drawn
  // here, in id order, since the root cannot jump to draw i; the first
  // update waits for its first read (DrawFirstUpdate), the stream for a
  // second draw (AdvancePast).
  Rng root(seed ^ kUpdateSeedSalt);
  for (uint64_t& element_seed : seed_or_stream_) {
    element_seed = root.NextUint64();
  }
}

Status SimulatedWorld::SetTrueProfile(const std::vector<double>& weights) {
  if (weights.size() != truth_.size()) {
    return Status::InvalidArgument("profile length mismatch");
  }
  FRESHEN_ASSIGN_OR_RETURN(std::vector<double> probs,
                           NormalizeProbabilities(weights));
  for (size_t i = 0; i < truth_.size(); ++i) {
    truth_[i].access_prob = probs[i];
  }
  access_table_ = AliasTable(probs);
  return Status::OK();
}

double SimulatedWorld::DrawFirstUpdate(size_t element) const {
  const double rate = truth_[element].change_rate;
  double first = std::numeric_limits<double>::infinity();
  if (rate > 0.0) {
    Rng stream(seed_or_stream_[element]);
    first = SampleExponential(stream, rate);
  }
  next_update_[element] = first;
  return first;
}

void SimulatedWorld::AdvancePast(size_t element, double t) {
  uint64_t& seed_or_stream = seed_or_stream_[element];
  if (!has_stream_[element]) {
    // Skip the draw the first update took. Only an element with a finite
    // first update gets here, so it drew one (rate > 0).
    streams_.emplace_back(seed_or_stream).NextUint64();
    seed_or_stream = streams_.size() - 1;
    has_stream_[element] = true;
  }
  Rng& stream = streams_[seed_or_stream];
  const double rate = truth_[element].change_rate;
  double& next = next_update_[element];
  while (next <= t) next += SampleExponential(stream, rate);
}

}  // namespace freshen
