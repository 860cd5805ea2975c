#include "opt/problem.h"

#include <cmath>

#include "common/macros.h"
#include "common/string_util.h"
#include "model/freshness.h"
#include "stats/descriptive.h"

namespace freshen {

Status CoreProblem::Validate() const {
  const size_t n = weights.size();
  if (n == 0) return Status::InvalidArgument("problem has no variables");
  if (change_rates.size() != n || costs.size() != n) {
    return Status::InvalidArgument(StrFormat(
        "column length mismatch: %zu weights, %zu rates, %zu costs", n,
        change_rates.size(), costs.size()));
  }
  FRESHEN_RETURN_IF_ERROR(ValidateBandwidth(bandwidth));
  for (size_t i = 0; i < n; ++i) {
    FRESHEN_RETURN_IF_ERROR(
        ValidateRow(i, weights[i], change_rates[i], costs[i]));
  }
  return Status::OK();
}

Status CoreProblem::ValidateBandwidth(double bandwidth) {
  if (!(bandwidth > 0.0) || !std::isfinite(bandwidth)) {
    return Status::InvalidArgument(
        StrFormat("bandwidth must be positive and finite, got %g", bandwidth));
  }
  return Status::OK();
}

Status CoreProblem::ValidateRow(size_t i, double weight, double change_rate,
                                double cost) {
  if (!(weight >= 0.0) || !std::isfinite(weight)) {
    return Status::InvalidArgument(
        StrFormat("weight %zu is negative or non-finite", i));
  }
  if (!(change_rate >= 0.0) || !std::isfinite(change_rate)) {
    return Status::InvalidArgument(
        StrFormat("change rate %zu is negative or non-finite", i));
  }
  if (!(cost > 0.0) || !std::isfinite(cost)) {
    return Status::InvalidArgument(
        StrFormat("cost %zu must be positive and finite", i));
  }
  return Status::OK();
}

double CoreProblem::Objective(const std::vector<double>& frequencies,
                              const par::Executor* executor) const {
  FRESHEN_CHECK(frequencies.size() == size());
  const par::Executor inline_executor(1);
  const par::Executor& exec = executor != nullptr ? *executor : inline_executor;
  return exec.Sum(size(), [&](size_t i) {
    return weights[i] * FixedOrderFreshness(frequencies[i], change_rates[i]);
  });
}

double CoreProblem::Spend(const std::vector<double>& frequencies,
                          const par::Executor* executor) const {
  FRESHEN_CHECK(frequencies.size() == size());
  const par::Executor inline_executor(1);
  const par::Executor& exec = executor != nullptr ? *executor : inline_executor;
  return exec.Sum(size(),
                  [&](size_t i) { return costs[i] * frequencies[i]; });
}

CoreProblem MakePerceivedProblem(const ElementSet& elements, double bandwidth,
                                 bool size_aware) {
  CoreProblem problem;
  problem.weights = AccessProbs(elements);
  problem.change_rates = ChangeRates(elements);
  problem.costs = size_aware ? Sizes(elements)
                             : std::vector<double>(elements.size(), 1.0);
  problem.bandwidth = bandwidth;
  return problem;
}

CoreProblem MakeGeneralProblem(const ElementSet& elements, double bandwidth,
                               bool size_aware) {
  CoreProblem problem;
  const double uniform =
      elements.empty() ? 0.0 : 1.0 / static_cast<double>(elements.size());
  problem.weights.assign(elements.size(), uniform);
  problem.change_rates = ChangeRates(elements);
  problem.costs = size_aware ? Sizes(elements)
                             : std::vector<double>(elements.size(), 1.0);
  problem.bandwidth = bandwidth;
  return problem;
}

}  // namespace freshen
