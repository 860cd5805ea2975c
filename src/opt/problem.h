// The Core Problem (paper §2.1) in its general weighted form:
//
//   maximize   sum_i  w_i * F(f_i, lambda_i)
//   subject to sum_i  c_i * f_i = B,   f_i >= 0
//
// Instances:
//   * Perceived Freshening (PF): w_i = p_i, c_i = 1 (or s_i with sizes, §5).
//   * General Freshening (GF, the baseline from [5]): w_i = 1/N.
//   * The Transformed Problem (§3.2): one entry per partition with
//     w_j = n_j * mean(p), lambda_j = mean(lambda), c_j = n_j * mean(s).
#ifndef FRESHEN_OPT_PROBLEM_H_
#define FRESHEN_OPT_PROBLEM_H_

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/parallel.h"
#include "common/result.h"
#include "model/element.h"

namespace freshen {

/// A weighted core problem instance. All vectors have equal length.
struct CoreProblem {
  /// Objective weights (w_i >= 0). Zero-weight elements never get bandwidth.
  std::vector<double> weights;
  /// Poisson change rates (lambda_i >= 0).
  std::vector<double> change_rates;
  /// Bandwidth cost per unit of sync frequency (c_i > 0).
  std::vector<double> costs;
  /// Total bandwidth per period (B > 0).
  double bandwidth = 0.0;

  /// Number of variables.
  size_t size() const { return weights.size(); }

  /// Validates shape and ranges; returns a descriptive error on failure.
  Status Validate() const;

  /// Validate()'s check of the bandwidth alone.
  static Status ValidateBandwidth(double bandwidth);

  /// Validate()'s check of row `i` alone: the status Validate() reports
  /// when (weight, change_rate, cost) is its first invalid row.
  static Status ValidateRow(size_t i, double weight, double change_rate,
                            double cost);

  /// True when ValidateRow would accept the row (no status built).
  static bool IsValidRow(double weight, double change_rate, double cost) {
    return weight >= 0.0 && std::isfinite(weight) && change_rate >= 0.0 &&
           std::isfinite(change_rate) && cost > 0.0 && std::isfinite(cost);
  }

  /// Objective value of a frequency vector (no feasibility check). The sum
  /// is a deterministic sharded Kahan reduction (par::ShardPlan(size())):
  /// pass an executor to run the shards in parallel — the result is
  /// bit-identical at every thread count, including the default inline run.
  double Objective(const std::vector<double>& frequencies,
                   const par::Executor* executor = nullptr) const;

  /// Constraint left-hand side: sum_i c_i f_i. Same reduction contract as
  /// Objective().
  double Spend(const std::vector<double>& frequencies,
               const par::Executor* executor = nullptr) const;
};

/// Builds the PF instance: weights from the profile; costs from sizes when
/// `size_aware`, else 1. `bandwidth` must be > 0.
CoreProblem MakePerceivedProblem(const ElementSet& elements, double bandwidth,
                                 bool size_aware = false);

/// Builds the GF (prior-work baseline) instance: uniform weights 1/N.
CoreProblem MakeGeneralProblem(const ElementSet& elements, double bandwidth,
                               bool size_aware = false);

}  // namespace freshen

#endif  // FRESHEN_OPT_PROBLEM_H_
