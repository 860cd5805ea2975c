#include "partition/transformed.h"

#include <cmath>
#include <numeric>

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

void ClassTransform::Ungroup(size_t rows) {
  // Classes are numbered by first occurrence, so class_of_[i] <= i: walking
  // down, row i's class row has not been overwritten yet.
  for (std::vector<double>* column :
       {&classes_.weights, &classes_.change_rates, &classes_.costs}) {
    column->resize(rows);
    for (size_t i = rows; i-- > 0;) (*column)[i] = (*column)[class_of_[i]];
  }
  std::iota(class_of_.begin(), class_of_.begin() + rows, uint32_t{0});
}

bool ClassTransform::ScaleClassRows() {
  // A class row must stay a valid Core Problem row.
  for (size_t j = 0; j < counts_.size(); ++j) {
    if (!std::isfinite(counts_[j] * classes_.weights[j]) ||
        !std::isfinite(counts_[j] * classes_.costs[j])) {
      return false;
    }
  }
  for (size_t j = 0; j < counts_.size(); ++j) {
    classes_.weights[j] *= counts_[j];
    classes_.costs[j] *= counts_[j];
  }
  return true;
}

std::vector<double> ClassTransform::Expand(
    const std::vector<double>& class_frequencies) const {
  FRESHEN_CHECK(class_frequencies.size() == classes_.size());
  std::vector<double> frequencies(class_of_.size());
  for (size_t i = 0; i < class_of_.size(); ++i) {
    frequencies[i] = class_frequencies[class_of_[i]];
  }
  return frequencies;
}

}  // namespace freshen
