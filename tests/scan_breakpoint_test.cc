// opt/scan_breakpoint.h — the lattice multiplier search. Two properties
// carry the whole design:
//
//   1. The mu lattice is exact bit arithmetic: floor/ceil/next/prev/
//      midpoint/distance never round, so every search path speaks the same
//      set of candidate multipliers.
//   2. The spend predicate has a unique flip on that lattice, so the
//      secant search and the plain bisection oracle — structurally
//      different probe sequences — must produce BYTE-identical allocations,
//      at every thread count. These tests enforce that with memcmp, not
//      tolerances. Thread-sweep tests run under `ctest -L tsan` in a
//      FRESHEN_SANITIZE=thread build.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "model/freshness_batch.h"
#include "opt/age_water_filling.h"
#include "opt/problem.h"
#include "opt/scan_breakpoint.h"
#include "opt/water_filling.h"
#include "stats/descriptive.h"

namespace freshen {
namespace {

bool SameBytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// ---------------------------------------------------------------------------
// Lattice helpers.
// ---------------------------------------------------------------------------

TEST(MuLatticeTest, FloorCeilBracketTheInput) {
  std::mt19937_64 rng(1);
  std::uniform_real_distribution<double> mag(-250.0, 250.0);
  for (int i = 0; i < 100000; ++i) {
    const double mu = std::exp2(mag(rng)) * (1.0 + 1e-6 * (rng() % 1000));
    const double lo = MuLatticeFloor(mu);
    const double hi = MuLatticeCeil(mu);
    ASSERT_TRUE(IsMuLatticePoint(lo)) << mu;
    ASSERT_TRUE(IsMuLatticePoint(hi)) << mu;
    ASSERT_LE(lo, mu);
    ASSERT_GE(hi, mu);
    if (IsMuLatticePoint(mu)) {
      ASSERT_EQ(lo, mu);
      ASSERT_EQ(hi, mu);
    } else {
      ASSERT_EQ(MuLatticeDistance(lo, hi), 1u) << mu;
    }
    // Round lands on one of the two bracketing points.
    const double nearest = MuLatticeRound(mu);
    ASSERT_TRUE(nearest == lo || nearest == hi) << mu;
  }
}

TEST(MuLatticeTest, NextPrevAreExactInverses) {
  std::mt19937_64 rng(2);
  std::uniform_real_distribution<double> mag(-250.0, 250.0);
  for (int i = 0; i < 100000; ++i) {
    const double g = MuLatticeFloor(std::exp2(mag(rng)));
    const double up = MuLatticeNext(g);
    ASSERT_GT(up, g);
    ASSERT_TRUE(IsMuLatticePoint(up)) << g;
    ASSERT_EQ(MuLatticePrev(up), g);
    ASSERT_EQ(MuLatticeDistance(g, up), 1u);
    // No lattice point strictly between adjacent points.
    ASSERT_EQ(MuLatticeCeil(std::nextafter(g, up)), up);
  }
}

TEST(MuLatticeTest, StepsCrossBinadesCleanly) {
  // The top lattice point of a binade steps to the bottom of the next.
  const double top = std::bit_cast<double>(
      std::bit_cast<uint64_t>(2.0) - kMuLatticeStep);
  ASSERT_TRUE(IsMuLatticePoint(top));
  EXPECT_EQ(MuLatticeNext(top), 2.0);
  EXPECT_EQ(MuLatticePrev(2.0), top);
}

TEST(MuLatticeTest, MidpointBisectsStrictly) {
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> mag(-200.0, 200.0);
  for (int i = 0; i < 100000; ++i) {
    const double a = MuLatticeFloor(std::exp2(mag(rng)));
    // b between 1 and ~2^40 lattice steps above a (spans many binades).
    const uint64_t steps = 1 + (rng() % (uint64_t{1} << 40));
    const double b = std::bit_cast<double>(std::bit_cast<uint64_t>(a) +
                                           steps * kMuLatticeStep);
    const double mid = MuLatticeMidpoint(a, b);
    ASSERT_TRUE(IsMuLatticePoint(mid)) << a << " " << b;
    ASSERT_GE(mid, a);
    ASSERT_LT(mid, b);
    if (steps == 1) {
      ASSERT_EQ(mid, a);  // Adjacent pair: bisection terminates.
    } else {
      // Strictly interior: both sides shrink, so bisection always
      // terminates in ~log2(steps) probes.
      ASSERT_GT(mid, a);
      ASSERT_LT(MuLatticeDistance(a, mid), steps);
      ASSERT_LT(MuLatticeDistance(mid, b), steps);
    }
  }
}

// ---------------------------------------------------------------------------
// The search alone, over synthetic monotone spend functions.
// ---------------------------------------------------------------------------

struct BothModes {
  GridSearchResult secant;
  GridSearchResult oracle;
};

// Runs SolveMultiplierOnGrid in both modes and checks what each returns: a
// lattice point, the flip itself (spend(mu) <= budget < spend one lattice
// step below), and the same mu from both modes.
BothModes CheckSearchFindsTheFlip(const std::function<double(double)>& spend,
                                  double budget, double mu_hi_hint) {
  const BothModes found = {
      SolveMultiplierOnGrid(spend, budget, mu_hi_hint,
                            MultiplierSearch::kSecant),
      SolveMultiplierOnGrid(spend, budget, mu_hi_hint,
                            MultiplierSearch::kBisectionOracle)};
  for (const GridSearchResult& mode : {found.secant, found.oracle}) {
    EXPECT_TRUE(IsMuLatticePoint(mode.mu)) << mode.mu;
    EXPECT_LE(spend(mode.mu), budget) << mode.mu;
    EXPECT_GT(spend(MuLatticePrev(mode.mu)), budget) << mode.mu;
  }
  EXPECT_TRUE(SameBits(found.secant.mu, found.oracle.mu))
      << "secant=" << found.secant.mu << " oracle=" << found.oracle.mu;
  return found;
}

TEST(MultiplierSearchTest, SmoothPowerLawLandsOnTheFlip) {
  // spend(mu) = a * mu^-p, the shape the secant's log-log model assumes.
  for (double p : {0.4, 1.0, 2.5}) {
    const auto spend = [p](double mu) { return 1000.0 * std::pow(mu, -p); };
    for (double budget : {1e-3, 0.7, 37.5, 1e6}) {
      SCOPED_TRACE(testing::Message() << "p=" << p << " budget=" << budget);
      // No hint, as in the age solver, and a hint above the flip, as the
      // freshness solver's mu_max is.
      const double flip = std::pow(1000.0 / budget, 1.0 / p);
      for (double hint : {0.0, flip * 3.0}) {
        const BothModes found = CheckSearchFindsTheFlip(spend, budget, hint);
        EXPECT_LE(found.secant.probes, found.oracle.probes)
            << "secant=" << found.secant.probes
            << " oracle=" << found.oracle.probes;
      }
    }
  }
}

TEST(MultiplierSearchTest, BudgetInsideADownwardJumpLandsOnTheThreshold) {
  // A smooth spend plus a block of spend that drops out at `threshold`, as
  // a group of elements priced out at one activation threshold. Every
  // budget inside the jump has its flip at the threshold itself.
  //
  // The probe counts are not compared here. Inside a jump phi stays away
  // from zero on both sides, so the Illinois secant cuts the bracket by a
  // fixed ratio per probe rather than converging; it takes up to ~2.7x the
  // oracle's probes on such a spend (docs/performance.md, "One multiplier
  // search, one drift rescore"). What it must still do is land on the flip.
  for (double threshold : {0.37, 5.0, 1234.5}) {
    const auto base = [](double mu) { return 100.0 / mu; };
    const double jump = 0.5 * base(threshold);
    const auto spend = [&](double mu) {
      return base(mu) + (mu < threshold ? jump : 0.0);
    };
    for (double inside : {0.01, 0.5, 0.99}) {
      const double budget = base(threshold) + inside * jump;
      SCOPED_TRACE(testing::Message() << "threshold=" << threshold
                                      << " budget=" << budget);
      for (double hint : {0.0, threshold * 10.0}) {
        EXPECT_EQ(CheckSearchFindsTheFlip(spend, budget, hint).secant.mu,
                  MuLatticeCeil(threshold));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Scan vs oracle: byte-identical allocations.
// ---------------------------------------------------------------------------

CoreProblem RandomProblem(size_t n, uint64_t seed, double budget_factor) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(-3.0, 3.0);
  CoreProblem problem;
  double scale = 0.0;
  for (size_t i = 0; i < n; ++i) {
    problem.weights.push_back(std::exp(u(rng)));
    problem.change_rates.push_back(std::exp(u(rng)));
    problem.costs.push_back(std::exp(0.5 * u(rng)));
    // Occasional inactive rows (zero weight / zero rate) so the compaction
    // path is exercised inside otherwise-normal problems.
    if (n > 4 && rng() % 7 == 0) {
      (rng() % 2 == 0 ? problem.weights : problem.change_rates).back() = 0.0;
    }
    scale += problem.costs.back() * problem.change_rates.back();
  }
  // budget_factor ~ bandwidth per unit of sum(c*lambda): ~1 funds roughly
  // r = 1 everywhere, << 1 starves, >> 1 saturates.
  problem.bandwidth = std::max(budget_factor * scale, 1e-30);
  return problem;
}

Allocation SolveFreshness(const CoreProblem& problem, MultiplierSearch mode,
                          size_t threads) {
  KktWaterFillingSolver::Options options;
  options.search = mode;
  options.threads = threads;
  Result<Allocation> result = KktWaterFillingSolver(options).Solve(problem);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return *result;
}

Allocation SolveAge(const CoreProblem& problem, MultiplierSearch mode,
                    size_t threads) {
  AgeWaterFillingSolver::Options options;
  options.search = mode;
  options.threads = threads;
  Result<Allocation> result = AgeWaterFillingSolver(options).Solve(problem);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return *result;
}

TEST(ScanBreakpointTest, ScanMatchesOracleByteForByteOnRandomProblems) {
  for (size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{5}, size_t{8},
                   size_t{17}, size_t{100}, size_t{1000}, size_t{5000}}) {
    for (uint64_t seed : {11u, 23u, 47u}) {
      for (double budget_factor : {0.01, 0.3, 2.0}) {
        const CoreProblem problem = RandomProblem(n, seed, budget_factor);
        const Allocation scan =
            SolveFreshness(problem, MultiplierSearch::kSecant, 1);
        const Allocation oracle =
            SolveFreshness(problem, MultiplierSearch::kBisectionOracle, 1);
        ASSERT_TRUE(SameBits(scan.multiplier, oracle.multiplier))
            << "n=" << n << " seed=" << seed << " bf=" << budget_factor
            << " scan=" << scan.multiplier << " oracle=" << oracle.multiplier;
        ASSERT_TRUE(SameBytes(scan.frequencies, oracle.frequencies))
            << "n=" << n << " seed=" << seed << " bf=" << budget_factor;
      }
    }
  }
}

TEST(ScanBreakpointTest, AgeScanMatchesOracleByteForByte) {
  for (size_t n : {size_t{1}, size_t{17}, size_t{1000}}) {
    for (uint64_t seed : {5u, 29u}) {
      for (double budget_factor : {0.05, 1.0}) {
        const CoreProblem problem = RandomProblem(n, seed, budget_factor);
        const Allocation scan =
            SolveAge(problem, MultiplierSearch::kSecant, 1);
        const Allocation oracle =
            SolveAge(problem, MultiplierSearch::kBisectionOracle, 1);
        ASSERT_TRUE(SameBits(scan.multiplier, oracle.multiplier))
            << "n=" << n << " seed=" << seed << " bf=" << budget_factor;
        ASSERT_TRUE(SameBytes(scan.frequencies, oracle.frequencies))
            << "n=" << n << " seed=" << seed << " bf=" << budget_factor;
      }
    }
  }
}

TEST(ScanBreakpointTest, TiedBreakpointsStayByteIdentical) {
  // 64 copies of the same row: every activation threshold coincides, so
  // spend drops by the whole catalog's share at one mu. Symmetric elements
  // must also receive identical frequencies.
  CoreProblem problem;
  problem.weights.assign(64, 0.7);
  problem.change_rates.assign(64, 2.5);
  problem.costs.assign(64, 1.3);
  for (double budget_factor : {1e-6, 0.1, 3.0}) {
    problem.bandwidth = budget_factor * 64 * 1.3 * 2.5;
    const Allocation scan =
        SolveFreshness(problem, MultiplierSearch::kSecant, 1);
    const Allocation oracle =
        SolveFreshness(problem, MultiplierSearch::kBisectionOracle, 1);
    ASSERT_TRUE(SameBytes(scan.frequencies, oracle.frequencies))
        << "bf=" << budget_factor;
    if (budget_factor >= 0.1) {
      // Generous budget: all 64 copies funded, and by lane independence the
      // identical rows must receive bit-identical frequencies. (Below the
      // funding cutoff the residual deliberately goes to ONE boundary
      // element — any split among tied boundary elements is equally
      // optimal — so symmetry is not expected there.)
      for (size_t i = 1; i < 64; ++i) {
        ASSERT_TRUE(SameBits(scan.frequencies[i], scan.frequencies[0]))
            << "i=" << i << " bf=" << budget_factor;
      }
    }
    EXPECT_NEAR(problem.Spend(scan.frequencies), problem.bandwidth,
                1e-9 * problem.bandwidth)
        << "bf=" << budget_factor;
  }

  // 8 groups of 25 identical rows. At a budget of 40 the cutoff falls
  // between two groups; at 55 it falls inside group 4, whose tied rows all
  // sit at the cutoff: the residual's boundary grant goes to one of them,
  // picked by the first-index tie-break, and every mode and thread count
  // must pick the same one.
  CoreProblem groups;
  for (int g = 0; g < 8; ++g) {
    for (int r = 0; r < 25; ++r) {
      groups.weights.push_back(1.0 + 0.5 * g);
      groups.change_rates.push_back(2.0);
      groups.costs.push_back(1.0);
    }
  }
  for (double budget : {40.0, 55.0}) {
    groups.bandwidth = budget;
    const Allocation reference =
        SolveFreshness(groups, MultiplierSearch::kSecant, 1);
    for (size_t threads : {1, 4}) {
      for (MultiplierSearch mode : {MultiplierSearch::kSecant,
                                    MultiplierSearch::kBisectionOracle}) {
        ASSERT_TRUE(
            SameBytes(SolveFreshness(groups, mode, threads).frequencies,
                      reference.frequencies))
            << "budget=" << budget << " threads=" << threads;
      }
    }
    EXPECT_NEAR(groups.Spend(reference.frequencies), groups.bandwidth,
                1e-9 * groups.bandwidth)
        << "budget=" << budget;
    if (budget == 55.0) {
      EXPECT_GT(reference.frequencies[100], 0.0);
      for (size_t i = 101; i < 125; ++i) {
        ASSERT_EQ(reference.frequencies[i], 0.0) << "i=" << i;
      }
    }
  }
}

TEST(ScanBreakpointTest, DegenerateProblemsAgreeAcrossModes) {
  // N = 0 is rejected upstream by CoreProblem::Validate in both modes.
  {
    CoreProblem empty;
    empty.bandwidth = 1.0;
    KktWaterFillingSolver::Options options;
    for (MultiplierSearch mode : {MultiplierSearch::kSecant,
                                  MultiplierSearch::kBisectionOracle}) {
      options.search = mode;
      EXPECT_FALSE(KktWaterFillingSolver(options).Solve(empty).ok());
    }
  }
  // N = 1: the single element takes the whole budget, exactly, both modes.
  {
    CoreProblem one;
    one.weights = {0.4};
    one.change_rates = {3.0};
    one.costs = {2.0};
    one.bandwidth = 5.0;
    const Allocation scan =
        SolveFreshness(one, MultiplierSearch::kSecant, 1);
    const Allocation oracle =
        SolveFreshness(one, MultiplierSearch::kBisectionOracle, 1);
    ASSERT_TRUE(SameBytes(scan.frequencies, oracle.frequencies));
    EXPECT_NEAR(scan.frequencies[0], 5.0 / 2.0, 1e-9);
  }
  // All-inactive: every element has zero weight or zero rate — the all-zero
  // schedule, identical in both modes (the search never runs).
  {
    CoreProblem inert;
    inert.weights = {0.0, 1.0, 0.0};
    inert.change_rates = {2.0, 0.0, 0.0};
    inert.costs = {1.0, 1.0, 1.0};
    inert.bandwidth = 1.0;
    const Allocation scan =
        SolveFreshness(inert, MultiplierSearch::kSecant, 1);
    const Allocation oracle =
        SolveFreshness(inert, MultiplierSearch::kBisectionOracle, 1);
    ASSERT_TRUE(SameBytes(scan.frequencies, oracle.frequencies));
    for (double f : scan.frequencies) EXPECT_EQ(f, 0.0);
  }
  // All-active: with activation thresholds w/(c*lambda) within a factor of
  // 8 of each other and a generous budget, the multiplier sits far below
  // every threshold and no element is priced out. (A wide random ratio
  // spread would NOT guarantee this — the cheapest-to-ignore elements lose
  // funding at any finite budget.)
  {
    CoreProblem rich;
    std::mt19937_64 rng(77);
    std::uniform_real_distribution<double> u(1.0, 2.0);
    double scale = 0.0;
    for (size_t i = 0; i < 200; ++i) {
      rich.weights.push_back(u(rng));
      rich.change_rates.push_back(u(rng));
      rich.costs.push_back(u(rng));
      scale += rich.costs.back() * rich.change_rates.back();
    }
    rich.bandwidth = 5.0 * scale;
    const Allocation scan =
        SolveFreshness(rich, MultiplierSearch::kSecant, 1);
    const Allocation oracle =
        SolveFreshness(rich, MultiplierSearch::kBisectionOracle, 1);
    ASSERT_TRUE(SameBytes(scan.frequencies, oracle.frequencies));
    for (size_t i = 0; i < rich.size(); ++i) {
      EXPECT_GT(scan.frequencies[i], 0.0) << i;
    }
  }
}

TEST(ScanBreakpointTest, ScanUsesFewerProbesThanOracle) {
  // The point of the secant: ~20-30 spend evaluations instead of the
  // oracle's full lattice bisection (~50). `iterations` reports probe
  // counts.
  const CoreProblem problem = RandomProblem(5000, 99, 0.2);
  const Allocation scan =
      SolveFreshness(problem, MultiplierSearch::kSecant, 1);
  const Allocation oracle =
      SolveFreshness(problem, MultiplierSearch::kBisectionOracle, 1);
  EXPECT_LT(scan.iterations, oracle.iterations)
      << "scan=" << scan.iterations << " oracle=" << oracle.iterations;
  EXPECT_GE(oracle.iterations, 30);
}

TEST(ScanBreakpointTest, AllocationIsByteIdenticalAcrossThreadCounts) {
  // The full solver — search probes, warm-started spend evaluations, final
  // fill — at 1/2/4/8 threads, both modes, both solvers. memcmp, not
  // tolerance: this is the determinism contract end to end.
  const CoreProblem problem = RandomProblem(20000, 123, 0.15);
  for (MultiplierSearch mode : {MultiplierSearch::kSecant,
                                MultiplierSearch::kBisectionOracle}) {
    const Allocation base = SolveFreshness(problem, mode, 1);
    const Allocation age_base = SolveAge(problem, mode, 1);
    for (size_t threads : {2u, 4u, 8u}) {
      const Allocation got = SolveFreshness(problem, mode, threads);
      ASSERT_TRUE(SameBits(got.multiplier, base.multiplier))
          << "threads=" << threads;
      ASSERT_TRUE(SameBytes(got.frequencies, base.frequencies))
          << "threads=" << threads;
      const Allocation age_got = SolveAge(problem, mode, threads);
      ASSERT_TRUE(SameBits(age_got.multiplier, age_base.multiplier))
          << "threads=" << threads;
      ASSERT_TRUE(SameBytes(age_got.frequencies, age_base.frequencies))
          << "threads=" << threads;
    }
  }
}

TEST(ScanBreakpointTest, EvaluatorPlanUsesTranscendentalSizing) {
  // The compacted active set gets its own transcendental-sized plan — not
  // the memory-bound default, and not a plan for the original problem size.
  std::vector<double> target(100000, 0.5), lambda(100000, 1.0),
      spend(100000, 1.0);
  const par::Executor exec(1);
  BreakpointSpendEvaluator eval(BreakpointSpendEvaluator::Kernel::kFreshnessG,
                                target, lambda, spend, &exec);
  EXPECT_EQ(eval.plan().size(),
            par::ShardCountFor(100000, par::kTranscendentalGrain,
                               par::kTranscendentalMaxShards));
  EXPECT_GT(eval.plan().size(), par::ShardCount(100000));
}

// ---------------------------------------------------------------------------
// Kernel runs: the evaluator hands the batch kernel only distinct inputs.
// These catalogs put equal inputs in adjacent lanes (which random catalogs
// never do) and check every output bit against a per-lane reference.
// ---------------------------------------------------------------------------

using Kernel = BreakpointSpendEvaluator::Kernel;

// One inversion per lane through the scalar references, with per-lane warm
// seeds and the evaluator's Kahan order: per shard in index order (a 0 for
// each priced-out lane), then the shard partials in shard order.
class PerLaneReference {
 public:
  PerLaneReference(Kernel kernel, const std::vector<double>& target_scale,
                   const std::vector<double>& lambda,
                   const std::vector<double>& spend_scale,
                   std::vector<par::Shard> plan)
      : kernel_(kernel),
        target_scale_(target_scale),
        lambda_(lambda),
        spend_scale_(spend_scale),
        plan_(std::move(plan)),
        warm_(target_scale.size(), 0.0) {}

  double SpendAt(double mu) {
    KahanSum total;
    for (const par::Shard& shard : plan_) {
      KahanSum acc;
      for (size_t i = shard.begin; i < shard.end; ++i) {
        double root = 0.0;
        if (!Invert(mu, i, warm_[i], &root)) {
          acc.Add(0.0);
          continue;
        }
        warm_[i] = root;
        acc.Add(spend_scale_[i] / root);
      }
      total.Add(acc.Total());
    }
    return total.Total();
  }

  void FillFrequenciesAt(double mu, std::vector<double>* frequencies) const {
    frequencies->assign(target_scale_.size(), 0.0);
    for (size_t i = 0; i < target_scale_.size(); ++i) {
      double root = 0.0;
      if (!Invert(mu, i, /*seed=*/0.0, &root)) continue;
      (*frequencies)[i] = lambda_[i] / root;
    }
  }

 private:
  // False for a priced-out lane.
  bool Invert(double mu, size_t i, double seed, double* root) const {
    const double y = mu * target_scale_[i];
    if (kernel_ == Kernel::kFreshnessG) {
      if (!(y < 1.0)) return false;
      *root = RefInverseMarginalGainG(std::max(y, 1e-300), seed);
    } else {
      *root = RefInverseAgeMarginalKernelH(std::max(y, 1e-300), seed);
    }
    return true;
  }

  Kernel kernel_;
  const std::vector<double>& target_scale_;
  const std::vector<double>& lambda_;
  const std::vector<double>& spend_scale_;
  std::vector<par::Shard> plan_;
  std::vector<double> warm_;
};

struct LaneCatalog {
  const char* name;
  std::vector<double> target_scale;
  std::vector<double> lambda;
  std::vector<double> spend_scale;
};

// Catalogs of n lanes. Target scales sit near 1 so that the probed
// multipliers in (0.05, 2) fund some lanes and price out others.
std::vector<LaneCatalog> RunCatalogs(size_t n) {
  std::mt19937_64 rng(2024);
  std::uniform_real_distribution<double> u(0.3, 3.0);
  auto make = [&](const char* name, auto scale_of) {
    LaneCatalog c{name, {}, {}, {}};
    for (size_t i = 0; i < n; ++i) {
      c.target_scale.push_back(scale_of(i));
      c.lambda.push_back(1.0 + 0.001 * static_cast<double>(i % 7));
      c.spend_scale.push_back(0.5 + 0.25 * static_cast<double>(i % 3));
    }
    return c;
  };
  std::vector<LaneCatalog> catalogs;
  catalogs.push_back(make("identical", [](size_t) { return 0.8; }));
  catalogs.push_back(make("scattered", [&](size_t) {
    return rng() % 1000 == 0 ? u(rng) : 0.8;
  }));
  // Runs of 1 to 40 lanes alternating between two classes.
  size_t left = 0;
  bool first = false;
  catalogs.push_back(make("alternating_runs", [&](size_t) {
    if (left == 0) {
      left = 1 + rng() % 40;
      first = !first;
    }
    --left;
    return first ? 0.8 : 1.7;
  }));
  // Funded lanes of one class with priced-out lanes between them, so a
  // slot is shared across the lanes that are left out.
  catalogs.push_back(make("priced_out_interleaved", [&](size_t) {
    return rng() % 3 == 0 ? 1e6 : 0.8;
  }));
  // Neighbouring doubles: some multipliers round both products to one
  // target while the warm seeds (from probes that kept them apart) differ,
  // so a slot must be keyed on the seed too.
  catalogs.push_back(make("ulp_neighbours", [&](size_t) {
    return rng() % 2 == 0 ? 0.8 : std::nextafter(0.8, 1.0);
  }));
  return catalogs;
}

TEST(KernelRunsTest, SpendAndCaptureMatchPerLaneReferenceBitForBit) {
  constexpr size_t kLanes = 6000;  // Several shards, blocks and tails.
  // A multi-probe sequence: repeats (warm seed == root), moves in both
  // directions, and multipliers that price whole classes in and out. The
  // last three are for ulp_neighbours: 1.2499999999999998 funds 0.8 just
  // below y = 1 and prices its neighbour out, and the next two round both
  // products to one target, reached from the two lanes' different seeds.
  const std::vector<double> probes = {
      0.5, 0.5,  1.1, 0.05, 0.9, 0.9, 1.3, 0.2, 0.55, 2.0, 0.55, 0.61,
      0.1, 1.2499999999999998, 0.31330000000000591, 0.31270000000000564};
  for (Kernel kernel : {Kernel::kFreshnessG, Kernel::kAgeH}) {
    for (const LaneCatalog& c : RunCatalogs(kLanes)) {
      for (size_t threads : {1u, 4u}) {
        const par::Executor exec(threads);
        BreakpointSpendEvaluator eval(kernel, c.target_scale, c.lambda,
                                      c.spend_scale, &exec);
        ASSERT_GT(eval.plan().size(), 1u);
        PerLaneReference ref(kernel, c.target_scale, c.lambda, c.spend_scale,
                             eval.plan());
        const std::string where = std::string(c.name) + " kernel=" +
                                  (kernel == Kernel::kAgeH ? "h" : "g") +
                                  " threads=" + std::to_string(threads);
        for (double mu : probes) {
          ASSERT_TRUE(SameBits(eval.SpendAt(mu), ref.SpendAt(mu)))
              << where << " mu=" << mu;
          std::vector<double> freq, ref_freq;
          eval.FillFrequenciesAt(mu, &freq);
          ref.FillFrequenciesAt(mu, &ref_freq);
          ASSERT_TRUE(SameBytes(freq, ref_freq)) << where << " mu=" << mu;
        }
      }
    }
  }
}

// All but 0.01% of elements share one (w, lambda, c): the shape of a
// controller's catalog before it has observed most elements.
CoreProblem OneClassProblem(size_t n, double budget_factor) {
  std::mt19937_64 rng(31);
  std::uniform_real_distribution<double> u(-2.0, 2.0);
  CoreProblem problem;
  problem.weights.assign(n, 1.0 / static_cast<double>(n));
  problem.change_rates.assign(n, 1.0);
  problem.costs.assign(n, 1.0);
  for (size_t k = 0; k < n / 10000 + 1; ++k) {
    const size_t i = rng() % n;
    problem.weights[i] = std::exp(u(rng)) / static_cast<double>(n);
    problem.change_rates[i] = std::exp(u(rng));
  }
  problem.bandwidth = budget_factor * static_cast<double>(n);
  return problem;
}

TEST(KernelRunsTest, OneClassCatalogIsByteIdenticalAcrossModesAndThreads) {
  for (double budget_factor : {1e-4, 0.05, 1.0}) {
    const CoreProblem problem = OneClassProblem(30000, budget_factor);
    const Allocation base =
        SolveFreshness(problem, MultiplierSearch::kSecant, 1);
    const Allocation oracle =
        SolveFreshness(problem, MultiplierSearch::kBisectionOracle, 1);
    ASSERT_TRUE(SameBits(base.multiplier, oracle.multiplier))
        << "bf=" << budget_factor;
    ASSERT_TRUE(SameBytes(base.frequencies, oracle.frequencies))
        << "bf=" << budget_factor;
    const Allocation age_base =
        SolveAge(problem, MultiplierSearch::kSecant, 1);
    const Allocation age_oracle =
        SolveAge(problem, MultiplierSearch::kBisectionOracle, 1);
    ASSERT_TRUE(SameBits(age_base.multiplier, age_oracle.multiplier))
        << "bf=" << budget_factor;
    ASSERT_TRUE(SameBytes(age_base.frequencies, age_oracle.frequencies))
        << "bf=" << budget_factor;
    for (size_t threads : {2u, 4u, 8u}) {
      const Allocation got =
          SolveFreshness(problem, MultiplierSearch::kSecant, threads);
      ASSERT_TRUE(SameBytes(got.frequencies, base.frequencies))
          << "bf=" << budget_factor << " threads=" << threads;
      const Allocation age_got =
          SolveAge(problem, MultiplierSearch::kSecant, threads);
      ASSERT_TRUE(SameBytes(age_got.frequencies, age_base.frequencies))
          << "bf=" << budget_factor << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace freshen
