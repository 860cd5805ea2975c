// Tests for poll-based change-rate estimation (the SyncEvidence store and
// its bias-reduced estimate) and sampling-based change ratios.
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

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
  constexpr uint32_t kIgnored = SyncEvidence::kNoRow;
  EXPECT_EQ(evidence.Observe(0, true, 0.0), kIgnored);   // Duplicate time.
  EXPECT_EQ(evidence.Observe(0, true, -3.0), kIgnored);  // Clock stepped back.
  EXPECT_EQ(evidence.Observe(0, true, std::nan("")), kIgnored);
  EXPECT_EQ(evidence.Observe(0, true, INFINITY), kIgnored);
  EXPECT_EQ(evidence.polls(0), 0.0);
  EXPECT_EQ(evidence.RateOr(0, 7.0), 7.0);
  // Irregular but positive gaps feed the mean-gap form.
  EXPECT_EQ(evidence.Observe(0, true, 1.0), 0u);  // The element's row.
  EXPECT_EQ(evidence.Observe(0, false, 3.0), 0u);
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

// The store keeps rows only for elements with evidence. Reference: three
// dense columns updated by the same Observe rule and scaled whole by Decay.
// Random Observe/Decay sequences touching 1% and 100% of the elements, gaps
// <= 0 and non-finite among them, must leave the same bits in every column
// and rate, for touched and untouched elements alike. SortRowsByElement
// mid-sequence moves rows, never evidence.
class SparseEvidenceTest : public ::testing::TestWithParam<double> {};

TEST_P(SparseEvidenceTest, MatchesDenseColumnsBitForBit) {
  constexpr size_t kElements = 2000;
  const size_t touched = static_cast<size_t>(GetParam() * kElements);
  std::vector<double> polls(kElements, 0.0);
  std::vector<double> changes(kElements, 0.0);
  std::vector<double> watched(kElements, 0.0);
  SyncEvidence evidence(kElements);
  Rng rng(42 + touched);
  // The touched set: `touched` distinct ids in a random order.
  std::vector<size_t> ids(kElements);
  for (size_t i = 0; i < kElements; ++i) ids[i] = i;
  for (size_t k = kElements; k > 1; --k) {
    std::swap(ids[k - 1], ids[rng.NextUint64Below(k)]);
  }
  ids.resize(touched);
  const auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };
  const auto check = [&](int step) {
    for (size_t i = 0; i < kElements; ++i) {
      ASSERT_EQ(bits(evidence.polls(i)), bits(polls[i])) << step << " " << i;
      ASSERT_EQ(bits(evidence.changes(i)), bits(changes[i]));
      ASSERT_EQ(bits(evidence.watched_time(i)), bits(watched[i]));
      const double dense_rate =
          polls[i] == 0.0
              ? 0.5
              : BiasReducedRate(polls[i], changes[i], watched[i] / polls[i]);
      ASSERT_EQ(bits(evidence.RateOr(i, 0.5)), bits(dense_rate));
    }
  };
  for (int step = 0; step < 60; ++step) {
    for (int k = 0; k < 400; ++k) {
      const size_t i = ids[rng.NextUint64Below(ids.size())];
      const bool changed = rng.NextBool(0.4);
      const uint64_t kind = rng.NextUint64Below(20);
      const double gap = kind == 0   ? 0.0
                         : kind == 1 ? -1.0
                         : kind == 2 ? INFINITY
                                     : rng.NextDoubleIn(0.01, 3.0);
      const bool recorded = gap > 0.0 && std::isfinite(gap);
      if (recorded) {
        polls[i] += 1.0;
        if (changed) changes[i] += 1.0;
        watched[i] += gap;
      }
      const uint32_t row = evidence.Observe(i, changed, gap);
      ASSERT_EQ(row, recorded ? evidence.RowOf(i) : SyncEvidence::kNoRow);
    }
    if (step % 3 == 0) {
      const double factor = rng.NextDoubleIn(0.5, 1.0);
      for (size_t i = 0; i < kElements; ++i) {
        polls[i] *= factor;
        changes[i] *= factor;
        watched[i] *= factor;
      }
      evidence.Decay(factor);
    }
    if (step % 7 == 0) evidence.SortRowsByElement();
    check(step);
  }
  // Rows belong to exactly the elements with evidence, and sorting leaves
  // them in ascending element order with RowOf pointing back.
  evidence.SortRowsByElement();
  size_t with_evidence = 0;
  for (size_t i = 0; i < kElements; ++i) with_evidence += polls[i] > 0.0;
  EXPECT_EQ(evidence.rows(), with_evidence);
  for (size_t row = 0; row < evidence.rows(); ++row) {
    EXPECT_EQ(evidence.RowOf(evidence.ElementOf(row)), row);
    if (row > 0) {
      EXPECT_LT(evidence.ElementOf(row - 1), evidence.ElementOf(row));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TouchedShare, SparseEvidenceTest,
                         ::testing::Values(0.01, 1.0));

}  // namespace
}  // namespace freshen
