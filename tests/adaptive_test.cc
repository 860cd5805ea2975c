// Tests for the closed-loop AdaptiveFreshener: cold start, evidence
// accumulation, re-plan cadence, parity with the full planner, and
// convergence toward the oracle plan on a synthetic ground truth.
#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "adaptive/adaptive_freshener.h"
#include "core/planner.h"
#include "model/metrics.h"
#include "obs/metrics.h"
#include "rng/alias_table.h"
#include "rng/distributions.h"
#include "rng/rng.h"
#include "workload/generator.h"

namespace freshen {
namespace {

AdaptiveFreshener::Options DefaultOptions() {
  AdaptiveFreshener::Options options;
  options.replan_every_periods = 1.0;
  options.prior_change_rate = 2.0;
  return options;
}

bool SameBytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(AdaptiveTest, ColdStartInstallsUniformPlan) {
  auto controller =
      AdaptiveFreshener::Create({1.0, 1.0, 1.0, 1.0}, 4.0, DefaultOptions())
          .value();
  EXPECT_EQ(controller.num_replans(), 1u);
  // No evidence: believed catalog is uniform, so the plan is symmetric.
  const auto& freqs = controller.frequencies();
  for (double f : freqs) EXPECT_NEAR(f, freqs[0], 1e-9);
  const ElementSet believed = controller.BelievedCatalog();
  for (const Element& e : believed) {
    EXPECT_NEAR(e.access_prob, 0.25, 1e-12);
    EXPECT_DOUBLE_EQ(e.change_rate, 2.0);
  }
}

TEST(AdaptiveTest, RespectsReplanCadence) {
  auto controller =
      AdaptiveFreshener::Create({1.0, 1.0}, 2.0, DefaultOptions()).value();
  EXPECT_FALSE(controller.MaybeReplan(0.5).value());
  EXPECT_TRUE(controller.MaybeReplan(1.0).value());
  EXPECT_FALSE(controller.MaybeReplan(1.5).value());
  EXPECT_TRUE(controller.MaybeReplan(2.1).value());
  EXPECT_TRUE(controller.MaybeReplan(2.2, /*force=*/true).value());
  EXPECT_EQ(controller.num_replans(), 4u);
}

TEST(AdaptiveTest, AccessesSteerBandwidthTowardHotElements) {
  auto controller =
      AdaptiveFreshener::Create({1.0, 1.0}, 1.0, DefaultOptions()).value();
  for (int i = 0; i < 1000; ++i) controller.ObserveAccess(0);
  ASSERT_TRUE(controller.MaybeReplan(1.0).value());
  EXPECT_GT(controller.frequencies()[0], controller.frequencies()[1]);
}

TEST(AdaptiveTest, SyncEvidenceUpdatesChangeRates) {
  auto controller =
      AdaptiveFreshener::Create({1.0, 1.0}, 2.0, DefaultOptions()).value();
  // Element 0: changed on every observed gap; element 1: never.
  for (int k = 1; k < 50; ++k) {
    controller.ObserveSync(0, /*changed=*/true, /*gap=*/0.5);
    controller.ObserveSync(1, /*changed=*/false, /*gap=*/0.5);
  }
  const ElementSet believed = controller.BelievedCatalog();
  EXPECT_GT(believed[0].change_rate, 5.0);
  EXPECT_LT(believed[1].change_rate, 0.1);
}

TEST(AdaptiveTest, RejectsInvalidConfigurations) {
  EXPECT_FALSE(AdaptiveFreshener::Create({}, 1.0, DefaultOptions()).ok());
  EXPECT_FALSE(
      AdaptiveFreshener::Create({0.0}, 1.0, DefaultOptions()).ok());
  EXPECT_FALSE(
      AdaptiveFreshener::Create({1.0}, 0.0, DefaultOptions()).ok());
  auto bad_cadence = DefaultOptions();
  bad_cadence.replan_every_periods = 0.0;
  EXPECT_FALSE(AdaptiveFreshener::Create({1.0}, 1.0, bad_cadence).ok());
  auto bad_prior = DefaultOptions();
  bad_prior.prior_change_rate = 0.0;
  EXPECT_FALSE(AdaptiveFreshener::Create({1.0}, 1.0, bad_prior).ok());
  // Bad learner options are refused here, not left to abort the learner.
  for (const double smoothing : {0.0, std::nan("")}) {
    auto bad_smoothing = DefaultOptions();
    bad_smoothing.learner.smoothing = smoothing;
    EXPECT_FALSE(AdaptiveFreshener::Create({1.0}, 1.0, bad_smoothing).ok());
  }
  for (const double decay : {0.0, 1.5, std::nan("")}) {
    auto bad_decay = DefaultOptions();
    bad_decay.learner.decay = decay;
    EXPECT_FALSE(AdaptiveFreshener::Create({1.0}, 1.0, bad_decay).ok());
  }
}

// The exact replan exports the rows its solve ran on: one class for the
// cold-start catalog, N once the learned rows are all distinct and the
// class transform falls back to the per-element problem.
TEST(AdaptiveTest, PlanClassesGaugeCountsTheSolvedRows) {
  obs::MetricsRegistry registry;
  auto options = DefaultOptions();
  options.registry = &registry;
  const size_t n = 40;
  auto controller =
      AdaptiveFreshener::Create(std::vector<double>(n, 1.0), 10.0, options)
          .value();
  const obs::Gauge* classes =
      registry.GetGauge("freshen_adaptive_plan_classes");
  EXPECT_EQ(classes->value(), 1.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t a = 0; a < i; ++a) controller.ObserveAccess(i);
  }
  ASSERT_TRUE(controller.MaybeReplan(1.0).value());
  EXPECT_EQ(classes->value(), static_cast<double>(n));
}

// The exact replan derives the believed problem's rows as it groups them
// and keeps only the class table. It must install exactly the plan
// FreshenPlanner (PF, unit costs) builds from BelievedCatalog(), and
// PlannedChangeRate(i) must be the believed rates at that replan.
TEST(AdaptiveTest, ExactReplanMatchesPlannerOnBelievedCatalogByteForByte) {
  ExperimentSpec spec = ExperimentSpec::IdealCase();
  spec.num_objects = 90;
  spec.syncs_per_period = 30.0;
  spec.theta = 1.2;
  spec.alignment = Alignment::kShuffled;
  spec.size_model = SizeModel::kPareto;
  const ElementSet truth = GenerateCatalog(spec).value();

  auto controller = AdaptiveFreshener::Create(
                        Sizes(truth), spec.syncs_per_period, DefaultOptions())
                        .value();
  Rng rng(31);
  AliasTable traffic(AccessProbs(truth));
  for (int period = 1; period <= 6; ++period) {
    for (int a = 0; a < 500; ++a) {
      controller.ObserveAccess(traffic.Sample(rng));
    }
    const std::vector<double> freqs = controller.frequencies();
    for (size_t i = 0; i < truth.size(); ++i) {
      if (freqs[i] <= 0.0) continue;
      const double p_change = -std::expm1(-truth[i].change_rate / freqs[i]);
      controller.ObserveSync(i, rng.NextBool(p_change), /*gap=*/1.0);
    }
    controller.EndPeriod();
    ASSERT_TRUE(controller.MaybeReplan(period).value());
    const ElementSet believed = controller.BelievedCatalog();
    const FreshenPlan plan =
        FreshenPlanner(PlannerOptions())
            .Plan(believed, spec.syncs_per_period)
            .value();
    ASSERT_TRUE(SameBytes(controller.frequencies(), plan.frequencies))
        << "plans diverged at period " << period;
    std::vector<double> planned(truth.size());
    for (size_t i = 0; i < truth.size(); ++i) {
      planned[i] = controller.PlannedChangeRate(i);
    }
    ASSERT_TRUE(SameBytes(planned, ChangeRates(believed)))
        << "planned rates diverged at period " << period;
  }
}

// End-to-end convergence: drive the controller against a synthetic ground
// truth for many periods; the plan's true perceived freshness must climb
// from the cold-start level toward the oracle optimum.
TEST(AdaptiveTest, ConvergesTowardOraclePlan) {
  ExperimentSpec spec = ExperimentSpec::IdealCase();
  spec.num_objects = 120;
  spec.syncs_per_period = 60.0;
  spec.theta = 1.1;
  spec.alignment = Alignment::kShuffled;
  const ElementSet truth = GenerateCatalog(spec).value();

  const double oracle_pf = FreshenPlanner({})
                               .Plan(truth, spec.syncs_per_period)
                               .value()
                               .perceived_freshness;

  auto controller = AdaptiveFreshener::Create(
                        Sizes(truth), spec.syncs_per_period, DefaultOptions())
                        .value();
  const double cold_pf = PerceivedFreshness(truth, controller.frequencies());

  Rng rng(2024);
  AliasTable traffic(AccessProbs(truth));
  for (int period = 1; period <= 40; ++period) {
    // User traffic this period.
    for (int a = 0; a < 3000; ++a) {
      controller.ObserveAccess(traffic.Sample(rng));
    }
    // Sync outcomes: each element synced per its current frequency; a sync
    // after gap g sees a change with probability 1 - e^{-lambda g}.
    const auto freqs = controller.frequencies();
    for (size_t i = 0; i < truth.size(); ++i) {
      if (freqs[i] <= 0.0) continue;
      const double gap = 1.0 / freqs[i];
      const int syncs_this_period = static_cast<int>(freqs[i]) + 1;
      for (int s = 0; s < syncs_this_period; ++s) {
        const double t = period - 1 + s * gap;
        if (t >= period) break;
        const double p_change = -std::expm1(-truth[i].change_rate * gap);
        controller.ObserveSync(i, rng.NextBool(p_change), gap);
      }
    }
    ASSERT_TRUE(controller.MaybeReplan(period).ok());
  }

  const double warm_pf = PerceivedFreshness(truth, controller.frequencies());
  EXPECT_GT(warm_pf, cold_pf);
  EXPECT_GT(warm_pf, 0.9 * oracle_pf);
  EXPECT_GT(controller.num_replans(), 30u);
}

}  // namespace
}  // namespace freshen
