// Tests for poll-based change-rate estimation (the SyncEvidence store and
// its bias-reduced estimate) and sampling-based change ratios.
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "estimate/change_estimator.h"
#include "rng/rng.h"

namespace freshen {
namespace {

// One element's bias-reduced rate after `polls` recorded polls at interval
// `tau`, the first `changes` of them detecting a change.
double RateAfterPolls(int polls, int changes, double tau) {
  SyncEvidence evidence(1);
  for (int i = 0; i < polls; ++i) evidence.Observe(0, i < changes, tau);
  return evidence.RateOr(0, /*prior=*/-1.0);
}

TEST(ChangeRateEstimatorTest, PriorBeforeAnyPoll) {
  SyncEvidence evidence(3);
  EXPECT_EQ(evidence.RateOr(1, 2.5), 2.5);
  EXPECT_EQ(evidence.polls(1), 0.0);
}

TEST(ChangeRateEstimatorTest, NoChangesGivesNearZeroRate) {
  const double rate = RateAfterPolls(100, 0, 1.0);
  EXPECT_GE(rate, 0.0);
  EXPECT_LT(rate, 0.01);
}

TEST(ChangeRateEstimatorTest, AllChangesStaysFinite) {
  // The naive estimator -log(1 - x/n)/tau diverges when x == n; the
  // bias-reduced form must not.
  const double rate = RateAfterPolls(50, 50, 1.0);
  EXPECT_TRUE(std::isfinite(rate));
  EXPECT_GT(rate, 3.0);
}

TEST(ChangeRateEstimatorTest, ExactFormulaValue) {
  SyncEvidence evidence(1);
  for (int i = 0; i < 6; ++i) evidence.Observe(0, i < 2, 2.0);  // x=2, n=6.
  EXPECT_EQ(evidence.polls(0), 6.0);
  EXPECT_EQ(evidence.changes(0), 2.0);
  EXPECT_EQ(evidence.watched_time(0), 12.0);
  const double expected = -std::log((6.0 - 2.0 + 0.5) / 6.5) / 2.0;
  EXPECT_NEAR(evidence.RateOr(0, -1.0), expected, 1e-12);
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
  const double one = RateAfterPolls(1, 0, 2.0);
  EXPECT_GT(one, 0.0);
  EXPECT_NEAR(one, -std::log(1.0 / 1.5) / 2.0, 1e-15);
  const double hundred = RateAfterPolls(100, 0, 2.0);
  EXPECT_GT(hundred, 0.0);
  EXPECT_LT(hundred, one);
  EXPECT_NEAR(hundred, -std::log(100.0 / 100.5) / 2.0, 1e-15);
  // One detection immediately dominates the floor.
  SyncEvidence evidence(1);
  for (int i = 0; i < 100; ++i) evidence.Observe(0, false, 2.0);
  evidence.Observe(0, true, 2.0);
  EXPECT_GT(evidence.RateOr(0, -1.0), hundred);
}

TEST(ChangeRateEstimatorTest, ZeroObservationWindowsAreIgnored) {
  SyncEvidence evidence(1);
  EXPECT_FALSE(evidence.Observe(0, true, 0.0));    // Duplicate timestamp.
  EXPECT_FALSE(evidence.Observe(0, true, -3.0));   // Clock step backwards.
  EXPECT_FALSE(evidence.Observe(0, true, std::nan("")));
  EXPECT_FALSE(evidence.Observe(0, true, INFINITY));
  EXPECT_EQ(evidence.polls(0), 0.0);
  EXPECT_EQ(evidence.RateOr(0, 7.0), 7.0);
  // Irregular but positive gaps feed the mean-gap form.
  EXPECT_TRUE(evidence.Observe(0, true, 1.0));
  EXPECT_TRUE(evidence.Observe(0, false, 3.0));
  const double expected = BiasReducedRate(2, 1, 2.0);
  EXPECT_NEAR(evidence.RateOr(0, 7.0), expected, 1e-15);
}

// Decay scales all three columns alike; Decay(1.0), the undecayed batch
// estimator, changes no bit.
TEST(SyncEvidenceTest, DecayScalesEveryColumn) {
  SyncEvidence evidence(2);
  for (int i = 0; i < 5; ++i) {
    evidence.Observe(0, i % 2 == 0, 0.3 + 0.1 * i);
    evidence.Observe(1, i == 0, 0.7);
  }
  const SyncEvidence before = evidence;
  const auto bits = [](const SyncEvidence& e, size_t i) {
    return std::array<uint64_t, 4>{
        std::bit_cast<uint64_t>(e.polls(i)),
        std::bit_cast<uint64_t>(e.changes(i)),
        std::bit_cast<uint64_t>(e.watched_time(i)),
        std::bit_cast<uint64_t>(e.RateOr(i, -1.0))};
  };
  evidence.Decay(1.0);
  for (size_t i = 0; i < 2; ++i) EXPECT_EQ(bits(evidence, i), bits(before, i));
  evidence.Decay(0.5);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(evidence.polls(i), 0.5 * before.polls(i));
    EXPECT_EQ(evidence.changes(i), 0.5 * before.changes(i));
    EXPECT_EQ(evidence.watched_time(i), 0.5 * before.watched_time(i));
  }
}

}  // namespace
}  // namespace freshen
