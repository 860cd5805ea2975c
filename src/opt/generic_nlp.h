// A deliberately *generic* nonlinear-programming solver: projected gradient
// ascent that treats the objective as a black box. This stands in for the
// IMSL package the paper used (see DESIGN.md): it reaches the same optimum on
// small instances but scales poorly — which is precisely the paper's §3
// motivation for the partitioning heuristics. bench_solver_scaling measures
// this solver against the exact KKT solver.
#ifndef FRESHEN_OPT_GENERIC_NLP_H_
#define FRESHEN_OPT_GENERIC_NLP_H_

#include "common/result.h"
#include "opt/problem.h"
#include "opt/solution.h"

namespace freshen {

/// Projected-gradient solver for the Core Problem.
class GenericNlpSolver {
 public:
  /// How the solver obtains gradients.
  enum class GradientMode {
    /// Forward finite differences: N+1 objective evaluations per gradient,
    /// i.e. O(N^2) work per iteration — the "generic black-box NLP" regime.
    kFiniteDifference,
    /// Closed-form dF/df: O(N) per iteration (still far slower than KKT).
    kAnalytic,
  };

  struct Options {
    GradientMode gradient_mode = GradientMode::kFiniteDifference;
    /// Maximum outer iterations.
    int max_iterations = 2000;
    /// Wall-clock budget; the solver stops (converged=false) when exceeded.
    double time_budget_seconds = 30.0;
  };

  GenericNlpSolver() = default;
  explicit GenericNlpSolver(Options options) : options_(options) {}

  /// Runs projected gradient ascent from the proportional-fair starting
  /// point f_i = B / (N c_i). Always returns a feasible allocation; check
  /// `converged` to see whether it finished or hit a budget.
  Result<Allocation> Solve(const CoreProblem& problem) const;

 private:
  Options options_;
};

/// Euclidean projection of `point` onto {f >= 0, sum c_i f_i = B}:
/// f_i = max(0, x_i - nu * c_i) with nu chosen by bisection. Exposed for
/// testing.
std::vector<double> ProjectOntoBudget(const std::vector<double>& point,
                                      const std::vector<double>& costs,
                                      double bandwidth);

}  // namespace freshen

#endif  // FRESHEN_OPT_GENERIC_NLP_H_
