// Scan-based exact multiplier search for the water-filling solvers.
//
// Both KKT solvers reduce to: find the multiplier mu* where the strictly
// decreasing total spend(mu) crosses the bandwidth budget. The bisection
// loop this module replaces re-inverted the freshness kernel for every
// element at every probe — O(N log(1/eps)) transcendental inversions with a
// hard-to-pin floating-point answer (the crossing lives between two
// adjacent doubles whose spends differ by less than the reduction's
// rounding jitter, so "the" bisection limit was only defined to ~1 ulp of
// mu and per-path).
//
// This solver makes the answer EXACT by changing the question's domain, not
// its math: mu is searched on a fixed 36-bit-mantissa lattice (the low 16
// bits of the double's significand forced to zero, ~1.5e-11 relative
// spacing). On that lattice the predicate P(mu) = spend(mu) > budget is
// strictly monotone *with margin*: one lattice step moves the true spend by
// at least ~5e-12 * spend (the kernels' spend elasticity in mu is bounded
// below by ~1/3 everywhere, and spend only jumps DOWN at funding cutoffs),
// while any evaluation's total rounding jitter — converged kernel roots are
// correct to a few ulps regardless of warm-start history, and the sharded
// Kahan reduction is bit-fixed by plan — is orders of magnitude smaller.
// P restricted to the lattice therefore has a unique flip, and ANY
// bracketing strategy that only probes lattice points converges to the SAME
// adjacent pair (P-edge, not-P-edge). mu* is defined as the not-P edge: the
// smallest lattice multiplier whose spend is within budget.
//
// That uniqueness is what the two search modes exploit:
//   * kSecant (default): geometric descent to bracket, secant (Illinois)
//     in log-log space to collapse the bracket to a few lattice steps, then
//     lattice bisection down to the adjacent pair. ~22-28 spend evaluations
//     per solve on the measured catalogs (N = 10k to 500k), about 40% of
//     them bracketing.
//   * kBisectionOracle: plain lattice bisection from the same initial
//     bracket. ~50 evaluations; structurally different probe path kept as
//     the verification oracle: byte-equal results at every thread count
//     AND between the two modes (tests/scan_breakpoint_test.cc).
//
// Spend jumps down where an element is priced out (its activation
// threshold). Both narrowing stages keep a valid (P, not-P) bracket across
// such a jump, so a threshold inside the band can cost probes, never bits.
// When the budget falls inside a large jump, the secant's residual (log of
// spend over budget) stays away from zero on both sides and it cuts the
// bracket by a fixed ratio per probe; there it can take more probes than
// the oracle (docs/performance.md, "One
// multiplier search, one drift rescore").
#ifndef FRESHEN_OPT_SCAN_BREAKPOINT_H_
#define FRESHEN_OPT_SCAN_BREAKPOINT_H_

#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/parallel.h"

namespace freshen {

// ---------------------------------------------------------------------------
// The multiplier lattice: positive doubles whose low 16 significand bits are
// zero. Every operation is a bit manipulation on the IEEE-754 pattern
// (positive doubles order-match their bit patterns), so lattice arithmetic
// is exact — no rounding, no drift between search paths.
// ---------------------------------------------------------------------------

inline constexpr uint64_t kMuLatticeMask = 0xFFFFull;
inline constexpr uint64_t kMuLatticeStep = kMuLatticeMask + 1;

/// Largest lattice point <= mu. Requires mu > 0 and finite.
inline double MuLatticeFloor(double mu) {
  return std::bit_cast<double>(std::bit_cast<uint64_t>(mu) & ~kMuLatticeMask);
}

/// True iff mu is on the lattice.
inline bool IsMuLatticePoint(double mu) {
  return mu > 0.0 && (std::bit_cast<uint64_t>(mu) & kMuLatticeMask) == 0;
}

/// Next lattice point above a lattice point (exact: bit increment; steps
/// across binades land on the next binade's lattice naturally).
inline double MuLatticeNext(double g) {
  return std::bit_cast<double>(std::bit_cast<uint64_t>(g) + kMuLatticeStep);
}

/// Previous lattice point below a lattice point.
inline double MuLatticePrev(double g) {
  return std::bit_cast<double>(std::bit_cast<uint64_t>(g) - kMuLatticeStep);
}

/// Smallest lattice point >= mu.
inline double MuLatticeCeil(double mu) {
  const double f = MuLatticeFloor(mu);
  return f == mu ? f : MuLatticeNext(f);
}

/// Nearest lattice point (ties away from zero).
inline double MuLatticeRound(double mu) {
  return std::bit_cast<double>(
      (std::bit_cast<uint64_t>(mu) + kMuLatticeStep / 2) & ~kMuLatticeMask);
}

/// Lattice midpoint of two lattice points a < b: the bit-space average
/// masked back onto the lattice — geometric-mean-like, so bisection spends
/// its steps evenly across binades. Returns a when the pair is adjacent.
inline double MuLatticeMidpoint(double a, double b) {
  const uint64_t ia = std::bit_cast<uint64_t>(a);
  const uint64_t ib = std::bit_cast<uint64_t>(b);
  const uint64_t mid = ((ia + ib) / 2) & ~kMuLatticeMask;
  return std::bit_cast<double>(mid < ia ? ia : mid);
}

/// Lattice steps from a to b (lattice points, a <= b).
inline uint64_t MuLatticeDistance(double a, double b) {
  return (std::bit_cast<uint64_t>(b) - std::bit_cast<uint64_t>(a)) /
         kMuLatticeStep;
}

// ---------------------------------------------------------------------------
// Search
// ---------------------------------------------------------------------------

enum class MultiplierSearch {
  kSecant,           // Secant, then lattice bisection (default).
  kBisectionOracle,  // Plain lattice bisection (verification oracle).
};

/// Cap on the spend evaluations of one search's narrowing stages (the
/// bracketing stages are bounded by the representable range of mu and
/// ignore it): an exhausted cap returns the current upper edge, coarser but
/// valid. ~8x more than the oracle mode ever uses.
inline constexpr int kMaxSpendEvaluations = 400;

struct GridSearchResult {
  /// The smallest lattice multiplier with spend(mu) <= budget.
  double mu = 0.0;
  /// Total spend evaluations.
  int probes = 0;
};

/// Finds mu* on the lattice. `spend_at` is evaluated only at lattice points
/// and must be (a) deterministic per mu for the process lifetime and
/// (b) decreasing in mu up to jitter far below one lattice step's true
/// spend decrement (see the file comment). `budget` must be > 0.
///
/// Bracketing: with mu_hi_hint > 0 the search starts at
/// MuLatticeCeil(mu_hi_hint), expected to satisfy spend <= budget (the
/// freshness solver's mu_max; escalated by doubling if not). With
/// mu_hi_hint == 0 it brackets upward from 1.0 (the age solver's unbounded
/// multiplier).
GridSearchResult SolveMultiplierOnGrid(
    const std::function<double(double)>& spend_at, double budget,
    double mu_hi_hint, MultiplierSearch mode);

// ---------------------------------------------------------------------------
// Spend evaluation
// ---------------------------------------------------------------------------

/// Batched, sharded spend evaluator over a compacted active set:
///
///   spend(mu) = sum_k spend_scale[k] / K^{-1}(mu * target_scale[k])
///
/// with K = g (freshness; elements with mu * target_scale >= 1 are priced
/// out and contribute 0) or K = h (age; never priced out). The kernel
/// inversions run through model/freshness_batch.h — simd::kLanes elements
/// per instruction — over a shard plan sized for transcendental-bound work
/// (par::kTranscendentalGrain/MaxShards, recomputed for THIS compacted set,
/// not the original problem size).
///
/// Kernel runs: each 512-lane block hands the batch kernel only the inputs
/// it needs. Priced-out lanes are left out, and a funded lane whose
/// (target, warm seed) bits equal the previous funded lane's shares that
/// lane's input slot; the roots are scattered back through a per-lane slot
/// index. A root is a pure function of its input bits (the kernels' lane
/// independence), so this changes no output bit. It is what makes a catalog
/// of one large class of identical elements — every element a controller
/// has not yet observed — cost one inversion per run of the class per
/// block rather than one per element.
///
/// Determinism: the plan is fixed at construction; per-shard Kahan partials
/// accumulate in index order and merge in shard order; warm-start roots are
/// written only by the owning element's lane. SpendAt(mu) is therefore
/// bit-identical at every thread count, and its value depends only on the
/// sequence of multipliers probed so far (the warm seeds) — with every
/// sequence yielding the same converged roots to a few ulps, which is all
/// the lattice search needs.
class BreakpointSpendEvaluator {
 public:
  enum class Kernel { kFreshnessG, kAgeH };

  /// The vectors alias the caller's SoA arrays and must outlive the
  /// evaluator. lambda[k] / root is element k's frequency.
  BreakpointSpendEvaluator(Kernel kernel,
                           const std::vector<double>& target_scale,
                           const std::vector<double>& lambda,
                           const std::vector<double>& spend_scale,
                           const par::Executor* exec);

  /// Total spend at mu, warm-started from the previous call.
  double SpendAt(double mu);

  /// frequencies[k] = lambda[k] / K^{-1}(mu * target_scale[k]) (0 when
  /// priced out), cold-started: a pure function of mu alone, so the final
  /// allocation is byte-identical no matter which search path found mu*.
  void FillFrequenciesAt(double mu, std::vector<double>* frequencies) const;

  const std::vector<par::Shard>& plan() const { return plan_; }

 private:
  Kernel kernel_;
  const std::vector<double>& target_scale_;
  const std::vector<double>& lambda_;
  const std::vector<double>& spend_scale_;
  const par::Executor* exec_;
  std::vector<par::Shard> plan_;
  std::vector<double> warm_;
};

}  // namespace freshen

#endif  // FRESHEN_OPT_SCAN_BREAKPOINT_H_
