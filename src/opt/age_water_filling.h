// Exact solver for the age variant of the Core Problem — an extension in
// the direction of the paper's conclusion (richer quality measures than
// binary freshness):
//
//   minimize   sum_i  w_i * A(f_i, lambda_i)
//   subject to sum_i  c_i * f_i = B,   f_i >= 0
//
// where A is the time-averaged copy age (model/freshness.h). A is strictly
// convex and decreasing in f, so the same KKT/water-filling machinery
// applies with the marginal -dA/df = h(lambda/f) / lambda^2:
//
//   w_i * h(r_i) / lambda_i^2 = mu * c_i  =>  r_i = h^{-1}(mu c_i l_i^2/w_i).
//
// Because h is unbounded, EVERY element with positive weight and positive
// change rate receives bandwidth — age-optimal schedules never starve an
// element, unlike freshness-optimal ones (Table 1 row (b)'s zero). The
// bench bench_ablation_age quantifies the trade.
#ifndef FRESHEN_OPT_AGE_WATER_FILLING_H_
#define FRESHEN_OPT_AGE_WATER_FILLING_H_

#include "common/result.h"
#include "opt/problem.h"
#include "opt/scan_breakpoint.h"
#include "opt/solution.h"

namespace freshen {

/// Exact KKT solver for weighted age minimization. Reuses CoreProblem for
/// the inputs; the returned Allocation's `objective` is the *weighted age*
/// (lower is better), and `multiplier` is the marginal age reduction per
/// unit of bandwidth.
class AgeWaterFillingSolver {
 public:
  struct Options {
    /// Worker threads for the sharded reductions (0 = hardware
    /// concurrency). Purely an execution knob: the allocation is
    /// bit-identical at every thread count (see common/parallel.h).
    size_t threads = 0;
    /// Multiplier search strategy; both modes return byte-identical
    /// allocations (see opt/scan_breakpoint.h).
    MultiplierSearch search = MultiplierSearch::kSecant;
  };

  AgeWaterFillingSolver() = default;
  explicit AgeWaterFillingSolver(Options options) : options_(options) {}

  /// Solves the age-minimization problem. Fails on invalid input. Elements
  /// with zero weight or zero change rate get zero frequency; all others
  /// get strictly positive frequency.
  Result<Allocation> Solve(const CoreProblem& problem) const;

 private:
  Options options_;
};

}  // namespace freshen

#endif  // FRESHEN_OPT_AGE_WATER_FILLING_H_
