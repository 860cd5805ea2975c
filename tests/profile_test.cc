// Tests for user profiles, master-profile aggregation, and the request-log
// learner.
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "profile/learner.h"
#include "profile/profile.h"
#include "rng/alias_table.h"
#include "rng/rng.h"
#include "stats/descriptive.h"

namespace freshen {
namespace {

TEST(NormalizeProbabilitiesTest, Normalizes) {
  const auto probs = NormalizeProbabilities({2.0, 6.0}).value();
  EXPECT_DOUBLE_EQ(probs[0], 0.25);
  EXPECT_DOUBLE_EQ(probs[1], 0.75);
}

TEST(NormalizeProbabilitiesTest, RejectsBadInput) {
  EXPECT_FALSE(NormalizeProbabilities({}).ok());
  EXPECT_FALSE(NormalizeProbabilities({0.0, 0.0}).ok());
  EXPECT_FALSE(NormalizeProbabilities({1.0, -0.5}).ok());
  EXPECT_FALSE(
      NormalizeProbabilities({1.0, std::numeric_limits<double>::infinity()})
          .ok());
}

TEST(UserProfileTest, FromWeightsNormalizes) {
  const auto profile = UserProfile::FromWeights({1.0, 3.0}).value();
  EXPECT_EQ(profile.size(), 2u);
  EXPECT_DOUBLE_EQ(profile.probabilities()[1], 0.75);
}

TEST(AggregateProfilesTest, EqualWeightAggregation) {
  const auto a = UserProfile::FromWeights({1.0, 0.0}).value();
  const auto b = UserProfile::FromWeights({0.0, 1.0}).value();
  const auto master = AggregateProfiles({a, b}).value();
  EXPECT_DOUBLE_EQ(master[0], 0.5);
  EXPECT_DOUBLE_EQ(master[1], 0.5);
}

TEST(AggregateProfilesTest, WeightedAggregationFavorsImportantUsers) {
  // "individual profiles can be weighted … to give higher priority to more
  // important users (e.g., generals or higher paying customers)".
  const auto corporal = UserProfile::FromWeights({1.0, 0.0}).value();
  const auto general = UserProfile::FromWeights({0.0, 1.0}).value();
  const auto master = AggregateProfiles({corporal, general}, {1.0, 3.0}).value();
  EXPECT_DOUBLE_EQ(master[0], 0.25);
  EXPECT_DOUBLE_EQ(master[1], 0.75);
}

TEST(AggregateProfilesTest, RejectsMismatchedShapes) {
  const auto a = UserProfile::FromWeights({1.0, 1.0}).value();
  const auto b = UserProfile::FromWeights({1.0, 1.0, 1.0}).value();
  EXPECT_FALSE(AggregateProfiles({a, b}).ok());
  EXPECT_FALSE(AggregateProfiles({a}, {1.0, 2.0}).ok());
  EXPECT_FALSE(AggregateProfiles({a}, {-1.0}).ok());
  EXPECT_FALSE(AggregateProfiles({}).ok());
}

TEST(AggregateProfilesTest, MasterSumsToOne) {
  const auto a = UserProfile::FromWeights({5.0, 2.0, 3.0}).value();
  const auto b = UserProfile::FromWeights({1.0, 1.0, 8.0}).value();
  const auto master = AggregateProfiles({a, b}, {0.3, 0.7}).value();
  EXPECT_NEAR(Sum(master), 1.0, 1e-12);
}

TEST(AccessLogLearnerTest, CountsConvergeToTrueProfile) {
  // Feed accesses drawn from a known profile; the snapshot converges.
  const std::vector<double> truth = {0.5, 0.3, 0.15, 0.05};
  AliasTable table(truth);
  Rng rng(41);
  AccessLogLearner learner(truth.size(), {});
  for (int i = 0; i < 200000; ++i) learner.Observe(table.Sample(rng));
  const auto estimate = learner.Snapshot().value();
  for (size_t i = 0; i < truth.size(); ++i) {
    EXPECT_NEAR(estimate[i], truth[i], 0.01) << i;
  }
  EXPECT_EQ(learner.NumObservations(), 200000u);
  // The normaliser and per-element weight the controller reads instead of
  // a snapshot column give exactly Snapshot()'s bits.
  const double inverse_total = learner.InverseTotal().value();
  for (size_t i = 0; i < truth.size(); ++i) {
    const double weight = learner.Weight(i, inverse_total);
    EXPECT_EQ(std::memcmp(&weight, &estimate[i], sizeof(double)), 0) << i;
  }
}

TEST(AccessLogLearnerTest, SnapshotFailsWithNoDataAndNoSmoothing) {
  AccessLogLearner learner(3, {});
  EXPECT_FALSE(learner.Snapshot().ok());
  EXPECT_FALSE(learner.InverseTotal().ok());
}

TEST(AccessLogLearnerTest, SmoothingGivesColdStartUniform) {
  AccessLogLearner::Options options;
  options.smoothing = 1.0;
  AccessLogLearner learner(4, options);
  const auto estimate = learner.Snapshot().value();
  for (double p : estimate) EXPECT_DOUBLE_EQ(p, 0.25);
}

TEST(AccessLogLearnerTest, DecayForgetsOldInterest) {
  AccessLogLearner::Options options;
  options.decay = 0.5;
  AccessLogLearner learner(2, options);
  // Period 1: everyone hits element 0.
  for (int i = 0; i < 1000; ++i) learner.Observe(0);
  learner.EndPeriod();
  // Periods 2-6: interest moves to element 1.
  for (int period = 0; period < 5; ++period) {
    for (int i = 0; i < 1000; ++i) learner.Observe(1);
    learner.EndPeriod();
  }
  const auto estimate = learner.Snapshot().value();
  EXPECT_GT(estimate[1], 0.9);
}

TEST(AccessLogLearnerTest, NoDecayKeepsAllHistory) {
  AccessLogLearner learner(2, {});
  learner.Observe(0);
  learner.EndPeriod();
  learner.Observe(1);
  const auto estimate = learner.Snapshot().value();
  EXPECT_DOUBLE_EQ(estimate[0], 0.5);
}

}  // namespace
}  // namespace freshen
