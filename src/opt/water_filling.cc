#include "opt/water_filling.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/macros.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "obs/trace.h"
#include "opt/solver_metrics.h"
#include "stats/descriptive.h"

namespace freshen {
namespace {

/// Elements per Kahan block of the finish spend.
constexpr size_t kSpendBlock = 512;

/// Kahan total of `values` over a fixed tree: one Kahan partial per
/// kSpendBlock-element block (the blocks run in parallel), merged by a
/// sequential Kahan pass in block order. The tree depends on values.size()
/// alone, so the total is bit-identical at every thread count.
double BlockKahanTotal(const std::vector<double>& values,
                       const par::Executor& exec) {
  const size_t blocks = (values.size() + kSpendBlock - 1) / kSpendBlock;
  std::vector<double> partials(blocks, 0.0);
  exec.ForEach(blocks, [&](size_t b) {
    const size_t end = std::min(values.size(), (b + 1) * kSpendBlock);
    KahanSum acc;
    for (size_t i = b * kSpendBlock; i < end; ++i) acc.Add(values[i]);
    partials[b] = acc.Total();
  });
  KahanSum total;
  for (double partial : partials) total.Add(partial);
  return total.Total();
}

}  // namespace

Result<Allocation> KktWaterFillingSolver::Solve(
    const CoreProblem& problem) const {
  FRESHEN_RETURN_IF_ERROR(problem.Validate());
  static const SolverMetrics metrics = MakeSolverMetrics("water_filling");
  obs::ScopedSpan span("solve");
  WallTimer timer;

  const size_t n = problem.size();
  Allocation out;
  out.frequencies.assign(n, 0.0);

  // Active elements — positive weight and positive change rate (lambda = 0
  // is always fresh; weight 0 contributes nothing) — compacted into
  // contiguous SoA arrays so the search's batched inner loop streams cache
  // lines instead of chasing a sparse index set.
  std::vector<size_t> index;        // Active k -> original i.
  std::vector<double> ratio;        // c_i l_i / w_i: g-target per unit of mu.
  std::vector<double> lambda;       // Change rate.
  std::vector<double> spend_scale;  // c_i l_i: spend per unit of 1/root.
  index.reserve(n);
  ratio.reserve(n);
  lambda.reserve(n);
  spend_scale.reserve(n);
  double mu_max = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (problem.weights[i] > 0.0 && problem.change_rates[i] > 0.0) {
      index.push_back(i);
      ratio.push_back(problem.costs[i] * problem.change_rates[i] /
                      problem.weights[i]);
      lambda.push_back(problem.change_rates[i]);
      spend_scale.push_back(problem.costs[i] * problem.change_rates[i]);
      mu_max = std::max(mu_max, 1.0 / ratio.back());
    }
  }
  const size_t active = index.size();
  const par::Executor exec(options_.threads);

  if (active == 0) {
    // Nothing productive to spend on: the all-zero schedule is optimal under
    // the (equivalent, since F is increasing) <=-budget reading.
    out.objective = problem.Objective(out.frequencies, &exec);
    out.bandwidth_used = 0.0;
    out.solve_seconds = timer.ElapsedSeconds();
    metrics.solves->Increment();
    metrics.iterations->Record(0.0);
    metrics.solve_seconds->Record(out.solve_seconds);
    return out;
  }

  // Sharded, SIMD-batched spend evaluation over the compacted set, with
  // per-element warm-started kernel roots. Bit-identical at every thread
  // count, so the search takes the same probe sequence whether this solver
  // runs on 1 thread or 8.
  BreakpointSpendEvaluator eval(BreakpointSpendEvaluator::Kernel::kFreshnessG,
                                ratio, lambda, spend_scale, &exec);
  auto spend_at = [&](double mu) { return eval.SpendAt(mu); };

  // spend(mu) decreases from +inf (mu -> 0) to 0 (mu = mu_max): find the
  // unique lattice flip. Matching the budget alone would NOT pin mu
  // (near-cutoff elements make f(mu) arbitrarily sensitive, so a
  // loosely-resolved mu reproduces the spend while distorting the
  // allocation mix); the lattice edge is exact and search-path-free.
  const GridSearchResult search = SolveMultiplierOnGrid(
      spend_at, problem.bandwidth, mu_max, options_.search);
  // mu is the under-spending lattice edge, so the residual is non-negative.
  const double mu = search.mu;
  // Cold-started fill: a pure function of mu, byte-identical regardless of
  // which probe path (or search mode) found it.
  std::vector<double> frequencies(active);
  eval.FillFrequenciesAt(mu, &frequencies);
  exec.ForEach(active, [&](size_t k) {
    out.frequencies[index[k]] = frequencies[k];
  });
  // Remove the residual budget slack. spend(mu) is continuous in exact
  // arithmetic but jumps at funding cutoffs in floating point (f tends to 0
  // only logarithmically as g_target -> 1, so the smallest representable
  // funded frequency is ~lambda/37). When such a boundary element exists,
  // the optimal recipient of the residual is exactly that element: its
  // marginal value equals mu across the whole gap, so giving it the slack
  // preserves every other element's stationarity exactly. Otherwise spend
  // is locally continuous and a proportional rescale is below tolerance.
  //
  // The spend feeding this step sums the active elements' cost*frequency
  // over a fixed block-Kahan tree (BlockKahanTotal): its shape depends on
  // the active count alone, never on the thread count, so the residual and
  // rescale land on the same bits at every thread count.
  std::vector<double> finish_contrib(active);
  exec.ForEach(active, [&](size_t k) {
    finish_contrib[k] = problem.costs[index[k]] * frequencies[k];
  });
  const double spend = BlockKahanTotal(finish_contrib, exec);
  double residual = problem.bandwidth - spend;
  if (residual > 0.0) {
    // A boundary element is one parked at the cutoff: its zero-frequency
    // marginal w/(c*lambda) equals mu to rounding. Only such an element may
    // absorb the residual without violating stationarity.
    size_t boundary = SIZE_MAX;
    double best_marginal = 0.0;
    for (size_t k = 0; k < active; ++k) {
      if (out.frequencies[index[k]] > 0.0) continue;
      const double marginal_at_zero = 1.0 / ratio[k];  // w/(c*lambda).
      if (marginal_at_zero >= mu * (1.0 - 1e-9) &&
          marginal_at_zero > best_marginal) {
        best_marginal = marginal_at_zero;
        boundary = index[k];
      }
    }
    if (boundary != SIZE_MAX) {
      out.frequencies[boundary] = residual / problem.costs[boundary];
      residual = 0.0;
    }
  }
  if (residual != 0.0 && spend > 0.0) {
    const double scale = problem.bandwidth / spend;
    exec.ForEach(n, [&](size_t i) { out.frequencies[i] *= scale; });
  }

  out.multiplier = mu;
  out.iterations = search.probes;
  out.objective = problem.Objective(out.frequencies, &exec);
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
