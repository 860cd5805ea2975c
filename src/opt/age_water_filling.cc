#include "opt/age_water_filling.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "model/freshness.h"
#include "obs/trace.h"
#include "opt/scan_breakpoint.h"
#include "opt/solver_metrics.h"
#include "stats/descriptive.h"

namespace freshen {

Result<Allocation> AgeWaterFillingSolver::Solve(
    const CoreProblem& problem) const {
  FRESHEN_RETURN_IF_ERROR(problem.Validate());
  static const SolverMetrics metrics = MakeSolverMetrics("age_water_filling");
  obs::ScopedSpan span("solve");
  WallTimer timer;

  const size_t n = problem.size();
  Allocation out;
  out.frequencies.assign(n, 0.0);

  // Active elements compacted into contiguous SoA arrays (see the matching
  // comment in water_filling.cc).
  std::vector<size_t> index;         // Active k -> original i.
  std::vector<double> target_scale;  // c l^2 / w: h-target per unit of mu.
  std::vector<double> lambda;
  std::vector<double> spend_scale;  // c l: spend per unit of 1/root.
  index.reserve(n);
  target_scale.reserve(n);
  lambda.reserve(n);
  spend_scale.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (problem.weights[i] > 0.0 && problem.change_rates[i] > 0.0) {
      index.push_back(i);
      target_scale.push_back(problem.costs[i] * problem.change_rates[i] *
                             problem.change_rates[i] / problem.weights[i]);
      lambda.push_back(problem.change_rates[i]);
      spend_scale.push_back(problem.costs[i] * problem.change_rates[i]);
    }
  }
  const size_t active = index.size();
  const par::Executor exec(options_.threads);

  auto weighted_age = [&](const std::vector<double>& freqs) {
    return exec.Sum(n, [&](size_t i) {
      // Skip zero-weight entries instead of multiplying: with f = 0 the age
      // is +inf and 0 * inf would poison the sum with NaN.
      if (problem.weights[i] <= 0.0) return 0.0;
      return problem.weights[i] *
             FixedOrderAge(freqs[i], problem.change_rates[i]);
    });
  };

  if (active == 0) {
    out.objective = weighted_age(out.frequencies);
    out.solve_seconds = timer.ElapsedSeconds();
    metrics.solves->Increment();
    metrics.iterations->Record(0.0);
    metrics.solve_seconds->Record(out.solve_seconds);
    return out;
  }

  // Sharded, SIMD-batched spend evaluation with warm-started kernel roots
  // (see the matching comment in water_filling.cc).
  BreakpointSpendEvaluator eval(BreakpointSpendEvaluator::Kernel::kAgeH,
                                target_scale, lambda, spend_scale, &exec);
  auto spend_at = [&](double mu) { return eval.SpendAt(mu); };

  // spend(mu) decreases from +inf (mu -> 0) to 0 (mu -> inf): unlike the
  // freshness problem there is no finite mu_max, so mu_hi_hint = 0 brackets
  // upward (h is unbounded: no element is ever priced out).
  const GridSearchResult search = SolveMultiplierOnGrid(
      spend_at, problem.bandwidth, /*mu_hi_hint=*/0.0, options_.search);
  const double mu = search.mu;
  std::vector<double> frequencies(active);
  eval.FillFrequenciesAt(mu, &frequencies);
  exec.ForEach(active, [&](size_t k) {
    out.frequencies[index[k]] = frequencies[k];
  });
  const double spend = problem.Spend(out.frequencies, &exec);
  if (spend > 0.0) {
    const double scale = problem.bandwidth / spend;
    exec.ForEach(n, [&](size_t i) { out.frequencies[i] *= scale; });
  }

  out.multiplier = mu;
  out.iterations = search.probes;
  out.objective = weighted_age(out.frequencies);
  out.bandwidth_used = problem.Spend(out.frequencies, &exec);
  out.converged = true;
  out.solve_seconds = timer.ElapsedSeconds();
  metrics.solves->Increment();
  metrics.iterations->Record(static_cast<double>(out.iterations));
  metrics.solve_seconds->Record(out.solve_seconds);
  metrics.residual->Set(std::fabs(out.bandwidth_used - problem.bandwidth) /
                        problem.bandwidth);
  return out;
}

}  // namespace freshen
