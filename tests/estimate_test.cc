// Tests for poll-based change-rate estimation and sampling-based change
// ratios.
#include <cmath>

#include <gtest/gtest.h>

#include "estimate/change_estimator.h"
#include "rng/rng.h"

namespace freshen {
namespace {

TEST(ChangeRateEstimatorTest, FailsBeforeAnyPoll) {
  ChangeRateEstimator estimator(1.0);
  EXPECT_FALSE(estimator.EstimatedRate().ok());
}

TEST(ChangeRateEstimatorTest, NoChangesGivesNearZeroRate) {
  ChangeRateEstimator estimator(1.0);
  for (int i = 0; i < 100; ++i) estimator.RecordPoll(false);
  const double rate = estimator.EstimatedRate().value();
  EXPECT_GE(rate, 0.0);
  EXPECT_LT(rate, 0.01);
}

TEST(ChangeRateEstimatorTest, AllChangesStaysFinite) {
  // The naive estimator -log(1 - x/n)/tau diverges when x == n; the
  // bias-reduced form must not.
  ChangeRateEstimator estimator(1.0);
  for (int i = 0; i < 50; ++i) estimator.RecordPoll(true);
  const double rate = estimator.EstimatedRate().value();
  EXPECT_TRUE(std::isfinite(rate));
  EXPECT_GT(rate, 3.0);
}

TEST(ChangeRateEstimatorTest, ExactFormulaValue) {
  ChangeRateEstimator estimator(2.0);
  for (int i = 0; i < 6; ++i) estimator.RecordPoll(i < 2);  // x=2, n=6.
  EXPECT_EQ(estimator.num_polls(), 6u);
  EXPECT_EQ(estimator.num_changes(), 2u);
  const double expected = -std::log((6.0 - 2.0 + 0.5) / 6.5) / 2.0;
  EXPECT_NEAR(estimator.EstimatedRate().value(), expected, 1e-12);
}

class PollRecoveryTest : public ::testing::TestWithParam<double> {};

TEST_P(PollRecoveryTest, RecoversTrueRateWithManyPolls) {
  const double true_rate = GetParam();
  // Poll at interval such that change probability is informative (~0.5):
  // tau = 0.7 / rate keeps 1 - e^{-rate tau} around 0.5.
  const double tau = 0.7 / true_rate;
  const double estimate = SimulatePollEstimate(true_rate, tau, 20000, 1234);
  EXPECT_NEAR(estimate, true_rate, 0.05 * true_rate)
      << "true rate " << true_rate;
}

INSTANTIATE_TEST_SUITE_P(Rates, PollRecoveryTest,
                         ::testing::Values(0.1, 0.5, 1.0, 2.0, 5.0, 20.0));

TEST(PollRecoveryTest, TooCoarsePollingUnderestimates) {
  // When nearly every poll sees a change, the estimator saturates around
  // log(2n) / tau, far below a very fast true rate.
  const double estimate = SimulatePollEstimate(100.0, 1.0, 1000, 77);
  EXPECT_LT(estimate, 20.0);
}

TEST(ChangeRateEstimatorTest, ZeroDetectionsFlooredAwayFromZero) {
  // lambda_hat = 0 exactly would drop the element from the solver's active
  // set permanently (never scheduled -> never polled -> never recovers).
  // The floor must be positive, match -log(n/(n+1/2))/tau, and decay as
  // silent evidence accumulates.
  ChangeRateEstimator estimator(2.0);
  estimator.RecordPoll(false);
  const double one = estimator.EstimatedRate().value();
  EXPECT_GT(one, 0.0);
  EXPECT_NEAR(one, -std::log(1.0 / 1.5) / 2.0, 1e-15);
  for (int i = 0; i < 99; ++i) estimator.RecordPoll(false);
  const double hundred = estimator.EstimatedRate().value();
  EXPECT_GT(hundred, 0.0);
  EXPECT_LT(hundred, one);
  EXPECT_NEAR(hundred, -std::log(100.0 / 100.5) / 2.0, 1e-15);
  // One detection immediately dominates the floor.
  estimator.RecordPoll(true);
  EXPECT_GT(estimator.EstimatedRate().value(), hundred);
}

TEST(ChangeRateEstimatorTest, ZeroObservationWindowsAreIgnored) {
  ChangeRateEstimator estimator(1.0);
  estimator.RecordPoll(true, 0.0);    // Duplicate timestamp.
  estimator.RecordPoll(true, -3.0);   // Clock step backwards.
  estimator.RecordPoll(true, std::nan(""));
  EXPECT_EQ(estimator.num_polls(), 0u);
  EXPECT_FALSE(estimator.EstimatedRate().ok());
  // Irregular but positive gaps feed the mean-gap form.
  estimator.RecordPoll(true, 1.0);
  estimator.RecordPoll(false, 3.0);
  const double expected = BiasReducedRate(2, 1, 2.0);
  EXPECT_NEAR(estimator.EstimatedRate().value(), expected, 1e-15);
}

TEST(SampleChangeRatioTest, MatchesExpectedFractionOnHomogeneousSet) {
  // All elements at rate 1, window 1: P(change) = 1 - 1/e ~ 0.632.
  const std::vector<double> rates(500, 1.0);
  const double ratio = SampleChangeRatio(rates, 20000, 1.0, 5);
  EXPECT_NEAR(ratio, 1.0 - std::exp(-1.0), 0.02);
}

TEST(SampleChangeRatioTest, SampleSizeClampedToPopulation) {
  const std::vector<double> rates = {1000.0, 1000.0};
  const double ratio = SampleChangeRatio(rates, 10, 1.0, 6);
  EXPECT_NEAR(ratio, 1.0, 1e-12);
}

TEST(SampleChangeRatioTest, ZeroRatesNeverChange) {
  const std::vector<double> rates(10, 0.0);
  EXPECT_DOUBLE_EQ(SampleChangeRatio(rates, 10, 5.0, 7), 0.0);
}

}  // namespace
}  // namespace freshen
