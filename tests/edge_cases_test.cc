// Edge-case hardening across modules: ties, saturation, degenerate
// catalogs, and extreme parameter regimes that the main suites do not
// exercise.
#include <cmath>

#include <gtest/gtest.h>

#include "core/planner.h"
#include "model/metrics.h"
#include "opt/kkt.h"
#include "opt/problem.h"
#include "opt/water_filling.h"
#include "partition/partitioner.h"
#include "schedule/schedule.h"
#include "sim/simulator.h"
#include "workload/generator.h"

namespace freshen {
namespace {

TEST(SolverEdgeTest, IdenticalElementsShareBandwidthEqually) {
  // Perfect symmetry must survive the multiplier search and the residual
  // hand-off: identical elements get identical frequencies.
  const ElementSet elements =
      MakeElementSet({2.0, 2.0, 2.0, 2.0}, {0.25, 0.25, 0.25, 0.25});
  const Allocation allocation =
      KktWaterFillingSolver()
          .Solve(MakePerceivedProblem(elements, 3.0, false))
          .value();
  for (double f : allocation.frequencies) {
    EXPECT_NEAR(f, 0.75, 1e-9);
  }
}

TEST(SolverEdgeTest, HugeBandwidthSaturatesFreshness) {
  const ElementSet elements = MakeElementSet({1.0, 4.0}, {0.5, 0.5});
  const Allocation allocation =
      KktWaterFillingSolver()
          .Solve(MakePerceivedProblem(elements, 1e6, false))
          .value();
  EXPECT_GT(PerceivedFreshness(elements, allocation.frequencies), 0.99999);
  EXPECT_NEAR(allocation.bandwidth_used, 1e6, 1e-3);
}

TEST(SolverEdgeTest, TinyBandwidthFundsOnlyTheBestElement) {
  // With a sliver of bandwidth, only elements whose marginal tops the very
  // high water level receive anything.
  const ElementSet elements =
      MakeElementSet({1.0, 1.0, 1.0}, {0.8, 0.15, 0.05});
  const Allocation allocation =
      KktWaterFillingSolver()
          .Solve(MakePerceivedProblem(elements, 1e-4, false))
          .value();
  EXPECT_GT(allocation.frequencies[0], 0.0);
  EXPECT_NEAR(allocation.bandwidth_used, 1e-4, 1e-12);
  // The hottest element dominates the tiny budget.
  EXPECT_GT(allocation.frequencies[0],
            100.0 * (allocation.frequencies[1] + allocation.frequencies[2] +
                     1e-12));
}

TEST(SolverEdgeTest, ExtremeRateSpreadStaysFinite) {
  const ElementSet elements =
      MakeElementSet({1e-9, 1.0, 1e9}, {1.0 / 3, 1.0 / 3, 1.0 / 3});
  const CoreProblem problem = MakePerceivedProblem(elements, 10.0, false);
  const Allocation allocation =
      KktWaterFillingSolver().Solve(problem).value();
  for (double f : allocation.frequencies) {
    EXPECT_TRUE(std::isfinite(f));
    EXPECT_GE(f, 0.0);
  }
  EXPECT_NEAR(allocation.bandwidth_used, 10.0, 1e-8);
  const KktReport report = VerifyKkt(problem, allocation, 1e-4);
  EXPECT_TRUE(report.satisfied) << report.ToString();
}

TEST(SolverEdgeTest, ManyIdenticalPlusOneOutlierTies) {
  // 100 identical cold elements + 1 hot one: the identical block must get
  // identical allocations and KKT must hold despite massive ties.
  std::vector<double> rates(101, 1.0);
  std::vector<double> probs(101, 0.005);
  probs[100] = 0.5;
  const ElementSet elements = MakeElementSet(rates, probs);
  const CoreProblem problem = MakePerceivedProblem(elements, 30.0, false);
  const Allocation allocation =
      KktWaterFillingSolver().Solve(problem).value();
  for (int i = 1; i < 100; ++i) {
    EXPECT_NEAR(allocation.frequencies[i], allocation.frequencies[0], 1e-9);
  }
  EXPECT_GT(allocation.frequencies[100], allocation.frequencies[0]);
}

TEST(PlannerEdgeTest, SingleElementCatalog) {
  const ElementSet elements = MakeElementSet({3.0}, {1.0});
  for (auto mode : {PlanMode::kExact, PlanMode::kPartitioned}) {
    PlannerOptions options;
    options.mode = mode;
    options.num_partitions = 5;  // Clamped to 1.
    const FreshenPlan plan =
        FreshenPlanner(options).Plan(elements, 2.0).value();
    EXPECT_NEAR(plan.frequencies[0], 2.0, 1e-9);
  }
}

// The exact planner groups rows before solving; malformed input must still
// fail with the status the solver reports for it, before any grouping.
TEST(PlannerEdgeTest, ClassSolveRejectsInvalidInputLikeTheSolver) {
  const ElementSet elements = MakeElementSet(std::vector<double>(40, 1.0),
                                             std::vector<double>(40, 0.025));
  CoreProblem nan_weight = MakePerceivedProblem(elements, 5.0);
  nan_weight.weights[7] = std::nan("");
  CoreProblem negative_rate = MakePerceivedProblem(elements, 5.0);
  negative_rate.change_rates[3] = -1.0;
  CoreProblem mismatched = MakePerceivedProblem(elements, 5.0);
  mismatched.costs.pop_back();
  for (const CoreProblem* problem :
       {&nan_weight, &negative_rate, &mismatched}) {
    const Status expected = KktWaterFillingSolver().Solve(*problem).status();
    ASSERT_FALSE(expected.ok());
    ClassTransform classes;
    std::vector<double> frequencies;
    EXPECT_EQ(SolveByClasses(KktWaterFillingSolver(), *problem, &classes,
                             &frequencies)
                  .status(),
              expected)
        << expected.ToString();
  }
}

// A class row multiplies weight and cost by the class size. When that
// product overflows, the planner solves the per-element problem instead of
// failing on a class problem the caller never built.
TEST(PlannerEdgeTest, ClassSolveFallsBackWhenAClassRowOverflows) {
  CoreProblem problem;
  problem.weights.assign(1024, 1e306);
  problem.change_rates.assign(1024, 1.0);
  problem.costs.assign(1024, 1.0);
  problem.bandwidth = 512.0;
  ClassTransform classes;
  std::vector<double> frequencies;
  EXPECT_EQ(SolveByClasses(KktWaterFillingSolver(), problem, &classes,
                           &frequencies)
                .value(),
            1024u);
  const std::vector<double> reference =
      KktWaterFillingSolver().Solve(problem).value().frequencies;
  ASSERT_EQ(frequencies.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(frequencies[i], reference[i]) << i;
  }
}

TEST(PlannerEdgeTest, AllElementsNeverChange) {
  // Nothing to do: PF is 1 regardless; the plan must be feasible and sane.
  const ElementSet elements = MakeElementSet({0.0, 0.0}, {0.5, 0.5});
  const FreshenPlan plan = FreshenPlanner({}).Plan(elements, 5.0).value();
  EXPECT_DOUBLE_EQ(plan.perceived_freshness, 1.0);
  for (double f : plan.frequencies) EXPECT_DOUBLE_EQ(f, 0.0);
}

TEST(PlannerEdgeTest, PartitionedWithMorePartitionsThanElements) {
  const ElementSet elements =
      MakeElementSet({1.0, 2.0, 3.0}, {0.3, 0.3, 0.4});
  PlannerOptions options;
  options.mode = PlanMode::kPartitioned;
  options.num_partitions = 50;
  const FreshenPlan plan = FreshenPlanner(options).Plan(elements, 2.0).value();
  EXPECT_EQ(plan.num_partitions_used, 3u);
  // K = N: identical to exact.
  const FreshenPlan exact = FreshenPlanner({}).Plan(elements, 2.0).value();
  EXPECT_NEAR(plan.perceived_freshness, exact.perceived_freshness, 1e-9);
}

TEST(PlannerEdgeTest, KMeansOnTinyCatalog) {
  const ElementSet elements = MakeElementSet({1.0, 5.0}, {0.9, 0.1});
  PlannerOptions options;
  options.mode = PlanMode::kPartitioned;
  options.num_partitions = 2;
  options.kmeans_iterations = 10;
  const FreshenPlan plan = FreshenPlanner(options).Plan(elements, 1.0).value();
  EXPECT_NEAR(plan.bandwidth_used, 1.0, 1e-9);
}

TEST(PartitionEdgeTest, AllEqualKeysStillPartitionEvenly) {
  // Identical elements: sort keys tie everywhere; the contiguous cut must
  // still produce balanced partitions.
  const ElementSet elements =
      MakeElementSet(std::vector<double>(10, 2.0),
                     std::vector<double>(10, 0.1));
  const auto partitions =
      BuildPartitions(elements, PartitionKey::kPerceivedFreshness, 3).value();
  ASSERT_EQ(partitions.size(), 3u);
  EXPECT_EQ(partitions[0].members.size(), 4u);
  EXPECT_EQ(partitions[1].members.size(), 3u);
  EXPECT_EQ(partitions[2].members.size(), 3u);
}

TEST(SimulatorEdgeTest, NoAccessStreamStillMeasuresGeneralFreshness) {
  const ElementSet elements = MakeElementSet({2.0}, {1.0});
  SimulationConfig config;
  config.horizon_periods = 200.0;
  config.accesses_per_period = 0.0;
  config.warmup_periods = 10.0;
  const SimulationResult result =
      MirrorSimulator(elements, config).Run({2.0}).value();
  EXPECT_EQ(result.num_accesses, 0u);
  EXPECT_DOUBLE_EQ(result.empirical_perceived_freshness, 0.0);
  EXPECT_NEAR(result.empirical_general_freshness,
              FixedOrderFreshness(2.0, 2.0), 0.02);
}

TEST(SimulatorEdgeTest, StaticCatalogIsAlwaysFresh) {
  const ElementSet elements = MakeElementSet({0.0, 0.0}, {0.7, 0.3});
  SimulationConfig config;
  config.horizon_periods = 20.0;
  config.accesses_per_period = 100.0;
  config.warmup_periods = 1.0;
  const SimulationResult result =
      MirrorSimulator(elements, config).Run({0.0, 0.0}).value();
  EXPECT_DOUBLE_EQ(result.empirical_perceived_freshness, 1.0);
  EXPECT_DOUBLE_EQ(result.empirical_general_freshness, 1.0);
}

TEST(ScheduleEdgeTest, VeryHighFrequencyProducesDenseTimeline) {
  const auto schedule = SyncSchedule::FixedOrder({1000.0}, 1.0).value();
  EXPECT_EQ(schedule.size(), 1000u);
}

TEST(WorkloadEdgeTest, SingleObjectCatalog) {
  ExperimentSpec spec = ExperimentSpec::IdealCase();
  spec.num_objects = 1;
  const ElementSet elements = GenerateCatalog(spec).value();
  ASSERT_EQ(elements.size(), 1u);
  EXPECT_DOUBLE_EQ(elements[0].access_prob, 1.0);
}

TEST(WorkloadEdgeTest, ExtremeSkewConcentratesAlmostEverything) {
  ExperimentSpec spec = ExperimentSpec::IdealCase();
  spec.theta = 4.0;  // Far beyond the paper's 1.6.
  const ElementSet elements = GenerateCatalog(spec).value();
  EXPECT_GT(elements[0].access_prob, 0.9);
}

}  // namespace
}  // namespace freshen
