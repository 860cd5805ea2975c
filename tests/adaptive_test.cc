// Tests for the closed-loop AdaptiveFreshener: cold start, evidence
// accumulation, re-plan cadence, delta-mode parity with the full planner,
// and convergence toward the oracle plan on a synthetic ground truth.
#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "adaptive/adaptive_freshener.h"
#include "core/planner.h"
#include "model/metrics.h"
#include "obs/metrics.h"
#include "opt/water_filling.h"
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
  for (int k = 0; k < 50; ++k) {
    controller.ObserveSync(0, /*changed=*/k > 0, 0.5 * k);
    controller.ObserveSync(1, /*changed=*/false, 0.5 * k);
  }
  const ElementSet believed = controller.BelievedCatalog();
  EXPECT_GT(believed[0].change_rate, 5.0);
  EXPECT_LT(believed[1].change_rate, 0.1);
}

TEST(AdaptiveTest, FirstSyncCarriesNoEvidence) {
  auto controller =
      AdaptiveFreshener::Create({1.0}, 1.0, DefaultOptions()).value();
  controller.ObserveSync(0, /*changed=*/true, 3.0);
  // Single sync: no gap observed, prior still in force.
  EXPECT_DOUBLE_EQ(controller.BelievedCatalog()[0].change_rate, 2.0);
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
  auto bad_smoothing = DefaultOptions();
  bad_smoothing.learner.smoothing = 0.0;
  EXPECT_FALSE(AdaptiveFreshener::Create({1.0}, 1.0, bad_smoothing).ok());
}

TEST(AdaptiveTest, DeltaModeRejectsInvalidConfigurations) {
  auto partitioned = DefaultOptions();
  partitioned.delta.enable = true;
  partitioned.planner.mode = PlanMode::kPartitioned;
  EXPECT_FALSE(AdaptiveFreshener::Create({1.0}, 1.0, partitioned).ok());
  auto bad_threshold = DefaultOptions();
  bad_threshold.delta.enable = true;
  bad_threshold.delta.full_churn_threshold = 0.0;
  EXPECT_FALSE(AdaptiveFreshener::Create({1.0}, 1.0, bad_threshold).ok());
  auto bad_band = DefaultOptions();
  bad_band.delta.enable = true;
  bad_band.delta.value_deadband = -1e-3;
  EXPECT_FALSE(AdaptiveFreshener::Create({1.0}, 1.0, bad_band).ok());
}

// Delta-mode parity: with a zero deadband the delta controller solves the
// exact believed catalog every period. Delta mode keeps the per-element
// solve, so its plan must be byte-identical to a cold KktWaterFillingSolver
// run on the problem it holds. A twin full controller fed the same
// observation stream solves the same catalog through the planner's class
// transform: its plan must be FreshenPlanner::Plan's on the believed
// catalog, and never worse than the delta plan on the believed problem.
TEST(AdaptiveTest, DeltaModePlansMatchFullPlannerByteForByte) {
  ExperimentSpec spec = ExperimentSpec::IdealCase();
  spec.num_objects = 80;
  spec.syncs_per_period = 40.0;
  spec.theta = 1.2;
  spec.alignment = Alignment::kShuffled;
  const ElementSet truth = GenerateCatalog(spec).value();

  auto full_options = DefaultOptions();
  auto delta_options = DefaultOptions();
  delta_options.delta.enable = true;
  delta_options.delta.value_deadband = 0.0;  // Re-submit every drift.
  delta_options.delta.threads = 1;
  auto full = AdaptiveFreshener::Create(Sizes(truth), spec.syncs_per_period,
                                        full_options)
                  .value();
  auto delta = AdaptiveFreshener::Create(Sizes(truth), spec.syncs_per_period,
                                         delta_options)
                   .value();

  auto check_plans = [&](int period) {
    SCOPED_TRACE("period " + std::to_string(period));
    const ElementSet believed = full.BelievedCatalog();
    const CoreProblem problem =
        MakePerceivedProblem(believed, spec.syncs_per_period);
    const CoreProblem& solved = *delta.solved_problem();
    ASSERT_TRUE(SameBytes(solved.weights, problem.weights));
    ASSERT_TRUE(SameBytes(solved.change_rates, problem.change_rates));

    KktWaterFillingSolver::Options solver_options;
    solver_options.threads = 1;
    std::vector<double> delta_reference =
        KktWaterFillingSolver(solver_options).Solve(solved).value().frequencies;
    RescaleToBudget([&](size_t i) { return truth[i].size; },
                    spec.syncs_per_period, &delta_reference);
    ASSERT_TRUE(SameBytes(delta.frequencies(), delta_reference));

    const FreshenPlan full_reference =
        FreshenPlanner(full_options.planner)
            .Plan(believed, spec.syncs_per_period)
            .value();
    ASSERT_TRUE(SameBytes(full.frequencies(), full_reference.frequencies));

    const double delta_objective = problem.Objective(delta.frequencies());
    EXPECT_GE(problem.Objective(full.frequencies()),
              delta_objective - 1e-12 * std::fabs(delta_objective));
  };
  check_plans(0);

  Rng rng(77);
  AliasTable traffic(AccessProbs(truth));
  for (int period = 1; period <= 12; ++period) {
    for (int a = 0; a < 800; ++a) {
      const size_t element = traffic.Sample(rng);
      full.ObserveAccess(element);
      delta.ObserveAccess(element);
    }
    const auto freqs = full.frequencies();
    for (size_t i = 0; i < truth.size(); ++i) {
      if (freqs[i] <= 0.0) continue;
      const double gap = 1.0 / freqs[i];
      const double t = static_cast<double>(period - 1);
      const double p_change = -std::expm1(-truth[i].change_rate * gap);
      const bool changed = rng.NextBool(p_change);
      full.ObserveSync(i, changed, t);
      delta.ObserveSync(i, changed, t);
    }
    full.EndPeriod();
    delta.EndPeriod();
    ASSERT_TRUE(full.MaybeReplan(period).value());
    ASSERT_TRUE(delta.MaybeReplan(period).value());
    check_plans(period);
    if (HasFatalFailure()) return;
    EXPECT_TRUE(delta.last_replan().used_delta);
    EXPECT_FALSE(full.last_replan().used_delta);
  }
  EXPECT_NE(delta.solved_problem(), nullptr);
  EXPECT_EQ(full.solved_problem(), nullptr);
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

// The exact replan refills one persistent believed problem in place and
// solves it directly. It must install exactly the plan FreshenPlanner
// builds from BelievedCatalog(), for both techniques and both size models,
// and PlannedChangeRates() must be the believed rates at that replan.
TEST(AdaptiveTest, ExactReplanMatchesPlannerOnBelievedCatalogByteForByte) {
  ExperimentSpec spec = ExperimentSpec::IdealCase();
  spec.num_objects = 90;
  spec.syncs_per_period = 30.0;
  spec.theta = 1.2;
  spec.alignment = Alignment::kShuffled;
  spec.size_model = SizeModel::kPareto;
  const ElementSet truth = GenerateCatalog(spec).value();

  for (Technique technique : {Technique::kPerceived, Technique::kGeneral}) {
    for (bool size_aware : {false, true}) {
      SCOPED_TRACE(ToString(technique) +
                   (size_aware ? " size-aware" : " size-blind"));
      auto options = DefaultOptions();
      options.planner.technique = technique;
      options.planner.size_aware = size_aware;
      auto controller = AdaptiveFreshener::Create(
                            Sizes(truth), spec.syncs_per_period, options)
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
          const double p_change =
              -std::expm1(-truth[i].change_rate / freqs[i]);
          controller.ObserveSync(i, rng.NextBool(p_change), period - 1.0);
        }
        controller.EndPeriod();
        ASSERT_TRUE(controller.MaybeReplan(period).value());
        const ElementSet believed = controller.BelievedCatalog();
        const FreshenPlan plan =
            FreshenPlanner(options.planner)
                .Plan(believed, spec.syncs_per_period)
                .value();
        ASSERT_TRUE(SameBytes(controller.frequencies(), plan.frequencies))
            << "plans diverged at period " << period;
        ASSERT_TRUE(
            SameBytes(controller.PlannedChangeRates(), ChangeRates(believed)))
            << "planned rates diverged at period " << period;
      }
    }
  }
}

// With a deadband and no new evidence, a replan re-submits nothing, the
// replanner reports a pinned no-op, and the controller surfaces
// all_touched == false — the serving layer's cue to skip republication.
TEST(AdaptiveTest, QuiescentDeltaReplansReportPlanUnchanged) {
  auto options = DefaultOptions();
  options.delta.enable = true;
  options.delta.value_deadband = 1e-3;
  options.delta.threads = 1;
  auto controller =
      AdaptiveFreshener::Create({1.0, 1.0, 1.0}, 2.0, options).value();
  const std::vector<double> cold = controller.frequencies();
  // No observations between replans: beliefs are bit-stable, so the diff is
  // empty and the plan must not move.
  for (int period = 1; period <= 3; ++period) {
    ASSERT_TRUE(controller.MaybeReplan(period).value());
    EXPECT_TRUE(controller.last_replan().used_delta);
    EXPECT_EQ(controller.last_replan().dirty, 0u);
    EXPECT_FALSE(controller.last_replan().all_touched);
    ASSERT_TRUE(SameBytes(controller.frequencies(), cold));
  }
}

TEST(AdaptiveTest, StreamingModeTracksChangeRates) {
  auto options = DefaultOptions();
  options.estimator_mode = RateEstimatorMode::kStreaming;
  auto controller =
      AdaptiveFreshener::Create({1.0, 1.0}, 2.0, options).value();
  // Cold start: both modes report the prior.
  EXPECT_DOUBLE_EQ(controller.BelievedChangeRate(0), 2.0);
  // Element 0 changes on every observed gap, element 1 never.
  for (int k = 0; k < 400; ++k) {
    controller.ObserveSync(0, /*changed=*/k > 0, 0.25 * k);
    controller.ObserveSync(1, /*changed=*/false, 0.25 * k);
  }
  EXPECT_GT(controller.BelievedChangeRate(0), 4.0);
  EXPECT_LT(controller.BelievedChangeRate(1), 0.5);
  // Believed catalog and the per-element accessor agree.
  const ElementSet believed = controller.BelievedCatalog();
  EXPECT_DOUBLE_EQ(believed[0].change_rate, controller.BelievedChangeRate(0));
  EXPECT_DOUBLE_EQ(believed[1].change_rate, controller.BelievedChangeRate(1));
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
        controller.ObserveSync(i, rng.NextBool(p_change), t);
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
