#include "opt/generic_nlp.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "common/timer.h"
#include "model/freshness.h"
#include "obs/trace.h"
#include "opt/solver_metrics.h"
#include "stats/descriptive.h"

namespace freshen {
namespace {

// Stop when the relative objective improvement over a window of 10
// iterations drops below this.
constexpr double kConvergenceTolerance = 1e-10;

// Forward-difference step, relative to 1 + |f_i|.
constexpr double kFdStep = 1e-7;

}  // namespace

std::vector<double> ProjectOntoBudget(const std::vector<double>& point,
                                      const std::vector<double>& costs,
                                      double bandwidth) {
  FRESHEN_CHECK(point.size() == costs.size());
  FRESHEN_CHECK(bandwidth > 0.0);
  const size_t n = point.size();

  auto spend_at = [&](double nu) {
    KahanSum acc;
    for (size_t i = 0; i < n; ++i) {
      acc.Add(costs[i] * std::max(0.0, point[i] - nu * costs[i]));
    }
    return acc.Total();
  };

  // spend(nu) is continuous and non-increasing. Bracket the root:
  // spend(nu_lo) >= B by construction, spend(nu_hi) = 0 <= B.
  double s1 = 0.0;
  double s2 = 0.0;
  double hi = -1e308;
  for (size_t i = 0; i < n; ++i) {
    s1 += costs[i] * point[i];
    s2 += costs[i] * costs[i];
    hi = std::max(hi, point[i] / costs[i]);
  }
  double lo = (s1 - bandwidth) / s2;
  if (lo > hi) lo = hi - 1.0;
  for (int iter = 0; iter < 200 && (hi - lo) > 1e-16 * (std::fabs(hi) + 1.0);
       ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (spend_at(mid) > bandwidth) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const double nu = 0.5 * (lo + hi);
  std::vector<double> projected(n);
  for (size_t i = 0; i < n; ++i) {
    projected[i] = std::max(0.0, point[i] - nu * costs[i]);
  }
  // Exact budget via proportional rescale of the (near-feasible) point.
  const double spend = [&] {
    KahanSum acc;
    for (size_t i = 0; i < n; ++i) acc.Add(costs[i] * projected[i]);
    return acc.Total();
  }();
  if (spend > 0.0) {
    const double scale = bandwidth / spend;
    for (double& f : projected) f *= scale;
  }
  return projected;
}

Result<Allocation> GenericNlpSolver::Solve(const CoreProblem& problem) const {
  FRESHEN_RETURN_IF_ERROR(problem.Validate());
  static const SolverMetrics metrics = MakeSolverMetrics("generic_nlp");
  obs::ScopedSpan span("solve");
  WallTimer timer;
  const size_t n = problem.size();

  // Proportional-fair start: every element gets an equal bandwidth share.
  std::vector<double> freq(n);
  for (size_t i = 0; i < n; ++i) {
    freq[i] = problem.bandwidth /
              (static_cast<double>(n) * problem.costs[i]);
  }

  auto gradient_analytic = [&](const std::vector<double>& f,
                               std::vector<double>& grad) {
    for (size_t i = 0; i < n; ++i) {
      grad[i] = problem.weights[i] *
                FixedOrderFreshnessDerivative(f[i], problem.change_rates[i]);
    }
  };
  auto gradient_fd = [&](const std::vector<double>& f,
                         std::vector<double>& grad) {
    // Black-box forward differences: N+1 full objective evaluations.
    const double base = problem.Objective(f);
    std::vector<double> probe = f;
    for (size_t i = 0; i < n; ++i) {
      const double h = kFdStep * (1.0 + std::fabs(f[i]));
      probe[i] = f[i] + h;
      grad[i] = (problem.Objective(probe) - base) / h;
      probe[i] = f[i];
    }
  };

  std::vector<double> grad(n);
  std::vector<double> candidate;
  double objective = problem.Objective(freq);
  double step = 1.0;
  // Window of recent objective values for the convergence test.
  double window_start_objective = objective;
  int window_counter = 0;
  bool converged = false;
  int iterations = 0;

  for (; iterations < options_.max_iterations; ++iterations) {
    if (timer.ElapsedSeconds() > options_.time_budget_seconds) break;
    if (options_.gradient_mode == GradientMode::kAnalytic) {
      gradient_analytic(freq, grad);
    } else {
      gradient_fd(freq, grad);
    }
    // Normalize the step by the gradient scale so `step` is dimensionless.
    double grad_norm = 0.0;
    for (double g : grad) grad_norm = std::max(grad_norm, std::fabs(g));
    if (grad_norm <= 0.0) {
      converged = true;
      break;
    }

    // Backtracking: shrink until the projected step improves the objective.
    bool improved = false;
    for (int bt = 0; bt < 40; ++bt) {
      candidate = freq;
      const double scale =
          step * problem.bandwidth / (grad_norm * static_cast<double>(n));
      for (size_t i = 0; i < n; ++i) candidate[i] += scale * grad[i];
      candidate =
          ProjectOntoBudget(candidate, problem.costs, problem.bandwidth);
      const double candidate_objective = problem.Objective(candidate);
      if (candidate_objective > objective) {
        freq.swap(candidate);
        objective = candidate_objective;
        step = std::min(step * 1.25, 1e6);
        improved = true;
        break;
      }
      step *= 0.5;
    }
    if (!improved) {
      converged = true;  // No ascent direction within machine resolution.
      break;
    }
    if (++window_counter >= 10) {
      const double rel_gain = (objective - window_start_objective) /
                              std::max(1e-300, std::fabs(objective));
      if (rel_gain < kConvergenceTolerance) {
        converged = true;
        break;
      }
      window_start_objective = objective;
      window_counter = 0;
    }
  }

  Allocation out;
  out.frequencies = std::move(freq);
  out.objective = objective;
  out.bandwidth_used = problem.Spend(out.frequencies);
  out.iterations = iterations;
  out.converged = converged;
  out.solve_seconds = timer.ElapsedSeconds();
  metrics.solves->Increment();
  metrics.iterations->Record(static_cast<double>(out.iterations));
  metrics.solve_seconds->Record(out.solve_seconds);
  metrics.residual->Set(
      std::fabs(out.bandwidth_used - problem.bandwidth) / problem.bandwidth);
  return out;
}

}  // namespace freshen
