// Exact solver for the Core Problem via its KKT conditions (the paper's
// Appendix, "method of Lagrange multipliers", made scalable).
//
// The objective is separable and strictly concave in each f_i, so at the
// optimum there is a single multiplier mu with
//
//   w_i * dF/df(f_i, l_i) = mu * c_i          when f_i > 0
//   w_i / (c_i * l_i)    <= mu                when f_i = 0
//
// Substituting dF/df = g(l/f)/l gives g(r_i) = mu * c_i * l_i / w_i, so
// f_i(mu) = l_i / g^{-1}(mu c_i l_i / w_i) — strictly decreasing in mu.
// Total spend(mu) is therefore strictly decreasing, and the budget-matching
// mu is found on a fixed multiplier lattice (opt/scan_breakpoint.h):
// bracketing, secant narrowing and a lattice bisection, ~22-28 sharded SIMD
// spend evaluations per solve on the measured catalogs, with a plain
// lattice-bisection oracle retained for verification. This is the "solution
// for small cases" of the paper made exact at any scale, standing in for
// the IMSL nonlinear-programming package (see DESIGN.md substitutions).
#ifndef FRESHEN_OPT_WATER_FILLING_H_
#define FRESHEN_OPT_WATER_FILLING_H_

#include "common/result.h"
#include "opt/problem.h"
#include "opt/scan_breakpoint.h"
#include "opt/solution.h"

namespace freshen {

/// Exact KKT solver.
class KktWaterFillingSolver {
 public:
  struct Options {
    /// Worker threads for the sharded reductions (0 = hardware
    /// concurrency). Purely an execution knob: the allocation is
    /// bit-identical at every thread count (see common/parallel.h).
    size_t threads = 0;
    /// Multiplier search strategy. Both modes return byte-identical
    /// allocations (the lattice flip they converge to is unique — see
    /// opt/scan_breakpoint.h); kBisectionOracle takes about twice as
    /// many spend evaluations and exists to verify that claim.
    MultiplierSearch search = MultiplierSearch::kSecant;
  };

  KktWaterFillingSolver() = default;
  explicit KktWaterFillingSolver(Options options) : options_(options) {}

  /// Solves the problem. Fails on invalid input; always converges otherwise.
  /// The returned frequencies satisfy the budget exactly (to roundoff): the
  /// multiplier search's residual slack is handed to the element at the
  /// funding cutoff (whose marginal equals the multiplier, so stationarity
  /// is preserved) or, absent one, removed by a proportional rescale.
  Result<Allocation> Solve(const CoreProblem& problem) const;

 private:
  Options options_;
};

}  // namespace freshen

#endif  // FRESHEN_OPT_WATER_FILLING_H_
