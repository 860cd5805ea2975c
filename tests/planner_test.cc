// Tests for the FreshenPlanner: the end-to-end planning API in all its
// configurations, including the paper's key qualitative claims.
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "adaptive/adaptive_freshener.h"
#include "core/planner.h"
#include "model/metrics.h"
#include "obs/metrics.h"
#include "opt/water_filling.h"
#include "rng/rng.h"
#include "workload/generator.h"

namespace freshen {
namespace {

ElementSet IdealCatalog(double theta, Alignment alignment) {
  ExperimentSpec spec = ExperimentSpec::IdealCase();
  spec.theta = theta;
  spec.alignment = alignment;
  return GenerateCatalog(spec).value();
}

bool SameBytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

CoreProblem MakeProblem(const PlannerOptions& options,
                        const ElementSet& elements, double bandwidth) {
  return options.technique == Technique::kPerceived
             ? MakePerceivedProblem(elements, bandwidth, options.size_aware)
             : MakeGeneralProblem(elements, bandwidth, options.size_aware);
}

// What Plan() installed before the class transform: the per-element solve
// rescaled to the budget.
std::vector<double> PerElementPlan(const PlannerOptions& options,
                                   const ElementSet& elements,
                                   double bandwidth) {
  std::vector<double> frequencies =
      KktWaterFillingSolver()
          .Solve(MakeProblem(options, elements, bandwidth))
          .value()
          .frequencies;
  RescaleToBudget([&](size_t i) { return elements[i].size; }, bandwidth,
                  &frequencies);
  return frequencies;
}

// `num_classes` distinct (p, lambda, size) rows over `n` elements in
// shuffled order; class 0 holds `big` of them and the rest share the
// remainder round-robin. Every class differs in lambda, so the rows stay
// distinct whichever columns a configuration reads.
ElementSet PlantedClassCatalog(size_t n, size_t num_classes, size_t big,
                               uint64_t seed,
                               std::vector<size_t>* classes = nullptr) {
  Rng rng(seed);
  std::vector<double> rate(num_classes), prob(num_classes), size(num_classes);
  for (size_t j = 0; j < num_classes; ++j) {
    rate[j] = 0.05 + 0.01 * static_cast<double>(j) + 0.001 * rng.NextDouble();
    prob[j] = 1e-6 * (1.0 + 99.0 * rng.NextDouble());
    size[j] = 0.5 + 2.0 * rng.NextDouble();
  }
  std::vector<size_t> class_of(n);
  for (size_t i = 0; i < n; ++i) {
    class_of[i] = i < big ? 0 : 1 + (i - big) % (num_classes - 1);
  }
  for (size_t i = n; i > 1; --i) {
    std::swap(class_of[i - 1], class_of[rng.NextUint64Below(i)]);
  }
  ElementSet elements(n);
  for (size_t i = 0; i < n; ++i) {
    elements[i] = {rate[class_of[i]], prob[class_of[i]], size[class_of[i]]};
  }
  if (classes != nullptr) *classes = std::move(class_of);
  return elements;
}

TEST(PlannerTest, TechniqueNames) {
  EXPECT_EQ(ToString(Technique::kPerceived), "PF_TECHNIQUE");
  EXPECT_EQ(ToString(Technique::kGeneral), "GF_TECHNIQUE");
}

TEST(PlannerTest, ExactPlanSpendsExactlyTheBudget) {
  const ElementSet elements = IdealCatalog(1.0, Alignment::kShuffled);
  const FreshenPlan plan =
      FreshenPlanner({}).Plan(elements, 250.0).value();
  EXPECT_NEAR(plan.bandwidth_used, 250.0, 1e-6);
  EXPECT_NEAR(BandwidthUsed(elements, plan.frequencies), 250.0, 1e-6);
  EXPECT_EQ(plan.num_partitions_used, 0u);
}

TEST(PlannerTest, PfEqualsGfAtThetaZero) {
  // Figure 3's left edge: with a uniform profile both techniques produce
  // the same schedule.
  const ElementSet elements = IdealCatalog(0.0, Alignment::kShuffled);
  PlannerOptions pf_options;
  pf_options.technique = Technique::kPerceived;
  PlannerOptions gf_options;
  gf_options.technique = Technique::kGeneral;
  const FreshenPlan pf = FreshenPlanner(pf_options).Plan(elements, 250.0).value();
  const FreshenPlan gf = FreshenPlanner(gf_options).Plan(elements, 250.0).value();
  for (size_t i = 0; i < elements.size(); ++i) {
    EXPECT_NEAR(pf.frequencies[i], gf.frequencies[i], 1e-6);
  }
  EXPECT_NEAR(pf.perceived_freshness, gf.perceived_freshness, 1e-9);
}

class PlannerAlignmentTest : public ::testing::TestWithParam<Alignment> {};

TEST_P(PlannerAlignmentTest, PfBeatsGfOnPerceivedFreshnessUnderSkew) {
  // The paper's central claim, for every alignment and strong skew.
  const ElementSet elements = IdealCatalog(1.2, GetParam());
  PlannerOptions pf_options;
  PlannerOptions gf_options;
  gf_options.technique = Technique::kGeneral;
  const FreshenPlan pf = FreshenPlanner(pf_options).Plan(elements, 250.0).value();
  const FreshenPlan gf = FreshenPlanner(gf_options).Plan(elements, 250.0).value();
  EXPECT_GT(pf.perceived_freshness, gf.perceived_freshness);
  // And GF (which optimizes general freshness) wins on its own metric.
  EXPECT_GE(gf.general_freshness, pf.general_freshness - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Alignments, PlannerAlignmentTest,
                         ::testing::Values(Alignment::kAligned,
                                           Alignment::kReverse,
                                           Alignment::kShuffled));

TEST(PlannerTest, PartitionedApproachesExactAsPartitionsGrow) {
  const ElementSet elements = IdealCatalog(1.0, Alignment::kShuffled);
  const double bandwidth = 250.0;
  const double exact = FreshenPlanner({})
                           .Plan(elements, bandwidth)
                           .value()
                           .perceived_freshness;
  double prev = 0.0;
  for (size_t k : {5u, 25u, 125u, 500u}) {
    PlannerOptions options;
    options.mode = PlanMode::kPartitioned;
    options.partition_key = PartitionKey::kPerceivedFreshness;
    options.num_partitions = k;
    const double pf = FreshenPlanner(options)
                          .Plan(elements, bandwidth)
                          .value()
                          .perceived_freshness;
    EXPECT_LE(pf, exact + 1e-9) << k;
    EXPECT_GE(pf, prev - 0.02) << k;  // Broadly improving in k.
    prev = pf;
  }
  // With K = N the heuristic is the exact solution.
  PlannerOptions full;
  full.mode = PlanMode::kPartitioned;
  full.num_partitions = elements.size();
  const double pf_full = FreshenPlanner(full)
                             .Plan(elements, bandwidth)
                             .value()
                             .perceived_freshness;
  EXPECT_NEAR(pf_full, exact, 1e-6);
}

TEST(PlannerTest, PartitionedReportsPartitionCountAndTimings) {
  const ElementSet elements = IdealCatalog(1.0, Alignment::kShuffled);
  PlannerOptions options;
  options.mode = PlanMode::kPartitioned;
  options.num_partitions = 40;
  options.kmeans_iterations = 3;
  const FreshenPlan plan =
      FreshenPlanner(options).Plan(elements, 250.0).value();
  EXPECT_GT(plan.num_partitions_used, 0u);
  EXPECT_LE(plan.num_partitions_used, 40u);
  EXPECT_GE(plan.timings.total_seconds, 0.0);
  EXPECT_GE(plan.timings.kmeans_seconds, 0.0);
  EXPECT_NEAR(plan.bandwidth_used, 250.0, 1e-6);
}

TEST(PlannerTest, GfPartitionedIgnoresProfile) {
  // Partitioned GF must produce near-identical PF-evaluated plans for two
  // catalogs differing only in profile (weights are uniform).
  ExperimentSpec spec = ExperimentSpec::IdealCase();
  spec.alignment = Alignment::kShuffled;
  ElementSet a = GenerateCatalog(spec).value();
  ElementSet b = a;
  // Replace b's profile with uniform.
  for (auto& e : b) e.access_prob = 1.0 / static_cast<double>(b.size());
  PlannerOptions options;
  options.technique = Technique::kGeneral;
  options.mode = PlanMode::kPartitioned;
  options.partition_key = PartitionKey::kChangeRate;  // Profile-free key.
  options.num_partitions = 25;
  const FreshenPlan plan_a = FreshenPlanner(options).Plan(a, 250.0).value();
  const FreshenPlan plan_b = FreshenPlanner(options).Plan(b, 250.0).value();
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(plan_a.frequencies[i], plan_b.frequencies[i], 1e-9);
  }
}

TEST(PlannerTest, SizeAwarePlanningBeatsSizeBlindOnSizedCatalog) {
  // The §5 headline: accounting for sizes yields much better perceived
  // freshness under the same true bandwidth.
  ExperimentSpec spec = ExperimentSpec::IdealCase();
  spec.size_model = SizeModel::kPareto;
  spec.size_alignment = SizeAlignment::kAligned;
  spec.theta = 0.0;
  spec.alignment = Alignment::kAligned;
  const ElementSet elements = GenerateCatalog(spec).value();

  PlannerOptions blind;
  blind.size_aware = false;
  PlannerOptions aware;
  aware.size_aware = true;
  const FreshenPlan blind_plan =
      FreshenPlanner(blind).Plan(elements, 250.0).value();
  const FreshenPlan aware_plan =
      FreshenPlanner(aware).Plan(elements, 250.0).value();
  // Both consume the same true bandwidth...
  EXPECT_NEAR(blind_plan.bandwidth_used, 250.0, 1e-6);
  EXPECT_NEAR(aware_plan.bandwidth_used, 250.0, 1e-6);
  // ...but the size-aware plan sees clearly fresher accesses. (The paper's
  // Figure 10 gap is 0.312 vs 0.586; the exact ratio depends on the size
  // draw — bench_fig10 reports the measured gap.)
  EXPECT_GT(aware_plan.perceived_freshness,
            blind_plan.perceived_freshness + 0.02);
}

TEST(PlannerTest, RejectsInvalidInput) {
  const ElementSet elements = IdealCatalog(1.0, Alignment::kShuffled);
  EXPECT_FALSE(FreshenPlanner({}).Plan({}, 10.0).ok());
  EXPECT_FALSE(FreshenPlanner({}).Plan(elements, 0.0).ok());
  EXPECT_FALSE(FreshenPlanner({}).Plan(elements, -5.0).ok());
  ElementSet bad = elements;
  bad[0].size = 0.0;
  EXPECT_FALSE(FreshenPlanner({}).Plan(bad, 10.0).ok());
}

TEST(PlannerTest, FrequenciesAreNonNegativeAndFinite) {
  const ElementSet elements = IdealCatalog(1.6, Alignment::kAligned);
  for (auto mode : {PlanMode::kExact, PlanMode::kPartitioned}) {
    PlannerOptions options;
    options.mode = mode;
    options.num_partitions = 30;
    const FreshenPlan plan =
        FreshenPlanner(options).Plan(elements, 250.0).value();
    for (double f : plan.frequencies) {
      EXPECT_GE(f, 0.0);
      EXPECT_TRUE(std::isfinite(f));
    }
  }
}

// A controller's cold start: every row identical. The class solve spreads
// the budget evenly where the per-element solve hands it all to one
// boundary element.
TEST(PlannerClassTest, ColdStartSplitsTheBudgetEvenly) {
  const size_t n = 100000;
  const double bandwidth = 50.0;
  const ElementSet elements =
      MakeElementSet(std::vector<double>(n, 1.0),
                     std::vector<double>(n, 1.0 / static_cast<double>(n)));
  const FreshenPlan plan = FreshenPlanner({}).Plan(elements, bandwidth).value();
  for (double f : plan.frequencies) {
    ASSERT_EQ(std::memcmp(&f, &plan.frequencies[0], sizeof(double)), 0);
  }
  EXPECT_GT(plan.frequencies[0], 0.0);
  const CoreProblem problem = MakePerceivedProblem(elements, bandwidth);
  EXPECT_NEAR(problem.Spend(plan.frequencies), bandwidth, 1e-12 * bandwidth);
  const std::vector<double> per_element =
      KktWaterFillingSolver().Solve(problem).value().frequencies;
  EXPECT_GE(problem.Objective(plan.frequencies),
            40.0 * problem.Objective(per_element));
}

// 300 planted classes over 50k elements, one of them holding 49k: the class
// solve is at least as good as the per-element solve, gives every member of
// a class the same bits, and is byte-identical across thread counts and
// between the scan and the bisection-oracle multiplier search. At B = 400
// the big class is funded inside the schedule; at B = 20 it is the tied
// boundary class that takes the residual.
TEST(PlannerClassTest, PlantedClassesMatchOrBeatThePerElementSolve) {
  const size_t num_classes = 300;
  std::vector<size_t> class_of;
  const ElementSet elements =
      PlantedClassCatalog(50000, num_classes, 49000, 7, &class_of);
  for (double bandwidth : {400.0, 20.0}) {
    for (Technique technique : {Technique::kPerceived, Technique::kGeneral}) {
      for (bool size_aware : {false, true}) {
        SCOPED_TRACE(ToString(technique) +
                     (size_aware ? " size-aware" : " size-blind") + " B=" +
                     std::to_string(bandwidth));
        PlannerOptions options;
        options.technique = technique;
        options.size_aware = size_aware;
        const CoreProblem problem = MakeProblem(options, elements, bandwidth);

        ClassTransform classes;
        std::vector<double> frequencies;
        ASSERT_EQ(SolveByClasses(KktWaterFillingSolver(), problem, &classes,
                                 &frequencies)
                      .value(),
                  num_classes);
        const double per_element = problem.Objective(
            KktWaterFillingSolver().Solve(problem).value().frequencies);
        EXPECT_GE(problem.Objective(frequencies),
                  per_element - 1e-12 * std::fabs(per_element));
        EXPECT_NEAR(problem.Spend(frequencies), bandwidth, 1e-9 * bandwidth);

        // Members of a class carry equal bits.
        std::vector<size_t> first_member(num_classes, elements.size());
        for (size_t i = 0; i < elements.size(); ++i) {
          size_t& first = first_member[class_of[i]];
          if (first == elements.size()) first = i;
          ASSERT_EQ(std::memcmp(&frequencies[first], &frequencies[i],
                                sizeof(double)),
                    0)
              << "rows " << first << " and " << i;
        }

        for (MultiplierSearch search : {MultiplierSearch::kSecant,
                                        MultiplierSearch::kBisectionOracle}) {
          for (size_t threads : {1u, 2u, 4u, 8u}) {
            KktWaterFillingSolver::Options solver_options;
            solver_options.threads = threads;
            solver_options.search = search;
            std::vector<double> other;
            ASSERT_TRUE(SolveByClasses(KktWaterFillingSolver(solver_options),
                                       problem, &classes, &other)
                            .ok());
            EXPECT_TRUE(SameBytes(other, frequencies))
                << "threads " << threads << " oracle "
                << (search == MultiplierSearch::kBisectionOracle);
          }
        }
      }
    }
  }
}

// Past N/4 distinct rows the class transform steps aside and Plan()
// installs the per-element solve's bytes; at N/4 it still groups.
TEST(PlannerClassTest, ManyClassesFallBackToThePerElementSolve) {
  const ElementSet distinct = IdealCatalog(1.0, Alignment::kShuffled);
  const ElementSet guard = PlantedClassCatalog(2000, 501, 900, 11);
  const ElementSet grouped = PlantedClassCatalog(2000, 500, 900, 11);
  for (bool size_aware : {false, true}) {
    PlannerOptions options;
    options.size_aware = size_aware;
    for (const ElementSet* elements : {&distinct, &guard}) {
      const FreshenPlan plan =
          FreshenPlanner(options).Plan(*elements, 250.0).value();
      EXPECT_TRUE(SameBytes(plan.frequencies,
                            PerElementPlan(options, *elements, 250.0)));
      ClassTransform classes;
      std::vector<double> frequencies;
      EXPECT_EQ(SolveByClasses(KktWaterFillingSolver(),
                               MakeProblem(options, *elements, 250.0),
                               &classes, &frequencies)
                    .value(),
                elements->size());
    }
    ClassTransform classes;
    std::vector<double> frequencies;
    EXPECT_EQ(SolveByClasses(KktWaterFillingSolver(),
                             MakeProblem(options, grouped, 250.0), &classes,
                             &frequencies)
                  .value(),
              500u);
  }
}

// The rows before `grouped_rows` repeat kTies distinct rows, and every row
// after them is distinct: with grouped_rows = 0 no two rows repeat; with
// grouped_rows = n/2 the (n/4 + 1)-th class turns up three quarters of the
// way through the rows, so the transform starts over partway.
CoreProblem FallbackProblem(size_t n, size_t grouped_rows) {
  constexpr size_t kTies = 8;
  CoreProblem problem;
  problem.bandwidth = 0.05 * static_cast<double>(n);
  for (size_t i = 0; i < n; ++i) {
    const double key =
        static_cast<double>(i < grouped_rows ? i % kTies : kTies + i);
    problem.weights.push_back(1.0 / (3.0 + key));
    problem.change_rates.push_back(0.05 + 0.01 * key);
    problem.costs.push_back(1.0 + 0.125 * static_cast<double>(i % 3));
  }
  return problem;
}

// Past n/4 classes the transform is the identity grouping: the class
// problem is the dense problem, row for row, and the plan is the dense
// solve's bytes, whether the grouping gave up at once or partway. The
// controller exports N rows then; an invalid row still fails with
// Validate()'s status, before or after the point where the grouping
// starts over.
TEST(PlannerClassTest, FallbackSolvesTheDenseProblemToItsBytes) {
  const size_t n = 4000;
  for (const size_t grouped_rows : {size_t{0}, n / 2}) {
    SCOPED_TRACE("grouped rows " + std::to_string(grouped_rows));
    const CoreProblem problem = FallbackProblem(n, grouped_rows);
    ClassTransform classes;
    std::vector<double> frequencies;
    ASSERT_EQ(SolveByClasses(KktWaterFillingSolver(), problem, &classes,
                             &frequencies)
                  .value(),
              n);
    const std::vector<double> dense =
        KktWaterFillingSolver().Solve(problem).value().frequencies;
    EXPECT_TRUE(SameBytes(frequencies, dense));
    EXPECT_TRUE(SameBytes(classes.problem().weights, problem.weights));
    EXPECT_TRUE(
        SameBytes(classes.problem().change_rates, problem.change_rates));
    EXPECT_TRUE(SameBytes(classes.problem().costs, problem.costs));
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(classes.class_of()[i], i);

    for (const size_t bad_row : {size_t{5}, n - 5}) {
      CoreProblem invalid = problem;
      invalid.change_rates[bad_row] = -1.0;
      const Status expected = invalid.Validate();
      ASSERT_FALSE(expected.ok());
      EXPECT_EQ(SolveByClasses(KktWaterFillingSolver(), invalid, &classes,
                               &frequencies)
                    .status(),
                expected);
      // The same rows read through the callback, without Validate() first.
      std::vector<double> class_frequencies;
      EXPECT_EQ(SolveClasses(
                    KktWaterFillingSolver(), n, invalid.bandwidth,
                    [&invalid](size_t i) {
                      return CoreRow{invalid.weights[i],
                                     invalid.change_rates[i], invalid.costs[i]};
                    },
                    &classes, &class_frequencies),
                expected);
      EXPECT_EQ(class_frequencies,
                std::vector<double>(classes.problem().size(), 0.0));
    }
  }

  // The controller on learned rows that cross n/4 partway: half the
  // elements never accessed (one row), the other half accessed a distinct
  // number of times each.
  obs::MetricsRegistry registry;
  AdaptiveFreshener::Options options;
  options.registry = &registry;
  const size_t elements = 400;
  const double bandwidth = 20.0;
  auto controller = AdaptiveFreshener::Create(
                        std::vector<double>(elements, 1.0), bandwidth, options)
                        .value();
  for (size_t i = elements / 2; i < elements; ++i) {
    for (size_t a = 0; a < i; ++a) controller.ObserveAccess(i);
  }
  ASSERT_TRUE(controller.MaybeReplan(1.0).value());
  EXPECT_EQ(registry.GetGauge("freshen_adaptive_plan_classes")->value(),
            static_cast<double>(elements));
  const CoreProblem believed =
      MakePerceivedProblem(controller.BelievedCatalog(), bandwidth);
  std::vector<double> dense =
      KktWaterFillingSolver().Solve(believed).value().frequencies;
  RescaleToBudget([](size_t) { return 1.0; }, bandwidth, &dense);
  EXPECT_TRUE(SameBytes(controller.frequencies(), dense));
}

// Builds `rows` through a callback that counts its calls; fails unless
// the transform read every row exactly once.
void BuildCountingRows(const std::vector<CoreRow>& rows,
                       ClassTransform* classes) {
  size_t calls = 0;
  ASSERT_TRUE(classes
                  ->Build(rows.size(), 10.0,
                          [&](size_t i) {
                            ++calls;
                            return rows[i];
                          })
                  .ok());
  EXPECT_EQ(calls, rows.size());
}

// `num_rows` rows; row i takes the key key_of(i), and equal keys give
// bit-identical rows.
template <typename KeyOf>
std::vector<CoreRow> KeyedRows(size_t num_rows, KeyOf key_of) {
  std::vector<CoreRow> rows(num_rows);
  for (size_t i = 0; i < num_rows; ++i) {
    const double key = static_cast<double>(key_of(i));
    rows[i] = {1.0 / (3.0 + key), 0.05 + 0.01 * key, 1.0 + 0.5 * key};
  }
  return rows;
}

// The transform derives each row once, whether it groups every row or
// turns into the identity grouping at the first, a middle or the last row,
// or after a class row overflows. The identity grouping holds every row
// bit for bit, one class per row.
TEST(ClassTransformTest, BuildDerivesEveryRowOnce) {
  ClassTransform classes;
  const std::vector<CoreRow> grouped =
      KeyedRows(1000, [](size_t i) { return i % 10; });
  BuildCountingRows(grouped, &classes);
  ASSERT_EQ(classes.problem().size(), 10u);
  for (size_t i = 0; i < grouped.size(); ++i) {
    ASSERT_EQ(classes.class_of()[i], i % 10);
  }

  std::vector<std::pair<std::string, std::vector<CoreRow>>> fallbacks;
  fallbacks.emplace_back("all distinct",
                         KeyedRows(1000, [](size_t i) { return i; }));
  // Fewer than four rows cap the classes at zero: the first row switches.
  fallbacks.emplace_back("class 1 at the first row",
                         KeyedRows(3, [](size_t) { return 0; }));
  // 250 classes in the first 500 rows, then distinct rows: class 251
  // opens at row 500.
  fallbacks.emplace_back(
      "class 251 at a middle row",
      KeyedRows(1000, [](size_t i) { return i < 500 ? i % 250 : i; }));
  fallbacks.emplace_back(
      "class 251 at the last row",
      KeyedRows(1000, [](size_t i) { return i < 999 ? i % 250 : i; }));
  // Two classes; the second's weight, times its 512 members, overflows.
  std::vector<CoreRow> overflow =
      KeyedRows(1024, [](size_t i) { return i % 2; });
  for (size_t i = 1; i < overflow.size(); i += 2) overflow[i].weight = 1e306;
  fallbacks.emplace_back("overflowing class row", overflow);

  for (const auto& [name, rows] : fallbacks) {
    SCOPED_TRACE(name);
    // Start from a grouped table, as a controller that re-solves does.
    BuildCountingRows(grouped, &classes);
    BuildCountingRows(rows, &classes);
    std::vector<double> weights, change_rates, costs;
    for (const CoreRow& row : rows) {
      weights.push_back(row.weight);
      change_rates.push_back(row.change_rate);
      costs.push_back(row.cost);
    }
    EXPECT_TRUE(SameBytes(classes.problem().weights, weights));
    EXPECT_TRUE(SameBytes(classes.problem().change_rates, change_rates));
    EXPECT_TRUE(SameBytes(classes.problem().costs, costs));
    ASSERT_EQ(classes.class_of().size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      ASSERT_EQ(classes.class_of()[i], i);
    }
  }
}

}  // namespace
}  // namespace freshen
