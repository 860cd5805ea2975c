#include "partition/transformed.h"

#include <cmath>

#include "common/macros.h"

namespace freshen {

CoreProblem BuildTransformedProblem(const std::vector<Partition>& partitions,
                                    double bandwidth, bool size_aware) {
  CoreProblem problem;
  const size_t k = partitions.size();
  problem.weights.resize(k);
  problem.change_rates.resize(k);
  problem.costs.resize(k);
  problem.bandwidth = bandwidth;
  for (size_t j = 0; j < k; ++j) {
    const auto& part = partitions[j];
    FRESHEN_CHECK(!part.members.empty());
    const double count = static_cast<double>(part.members.size());
    problem.weights[j] = count * part.rep_access_prob;
    problem.change_rates[j] = part.rep_change_rate;
    problem.costs[j] = count * (size_aware ? part.rep_size : 1.0);
  }
  return problem;
}

void ClassTransform::Rehash(size_t slots) {
  using class_transform_internal::Bits;
  slots_.assign(slots, 0);
  const size_t mask = slots - 1;
  for (size_t j = 0; j < counts_.size(); ++j) {
    size_t s = class_transform_internal::HashKey(
                   Bits(classes_.weights[j]), Bits(classes_.change_rates[j]),
                   Bits(classes_.costs[j])) &
               mask;
    while (slots_[s] != 0) s = (s + 1) & mask;
    slots_[s] = static_cast<uint32_t>(j + 1);
  }
}

bool ClassTransform::ScaleClassRows() {
  for (size_t j = 0; j < counts_.size(); ++j) {
    const double members = static_cast<double>(counts_[j]);
    classes_.weights[j] = members * classes_.weights[j];
    classes_.costs[j] = members * classes_.costs[j];
    // A class row must stay a valid Core Problem row.
    if (!std::isfinite(classes_.weights[j]) ||
        !std::isfinite(classes_.costs[j])) {
      return false;
    }
  }
  return true;
}

void ClassTransform::Expand(const std::vector<double>& class_frequencies,
                            std::vector<double>* frequencies) const {
  FRESHEN_CHECK(class_frequencies.size() == classes_.size());
  frequencies->resize(class_of_.size());
  for (size_t i = 0; i < class_of_.size(); ++i) {
    (*frequencies)[i] = class_frequencies[class_of_[i]];
  }
}

}  // namespace freshen
