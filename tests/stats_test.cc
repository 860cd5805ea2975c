// Tests for the statistics substrate.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "stats/descriptive.h"

namespace freshen {
namespace {

TEST(KahanSumTest, CompensatesSmallTerms) {
  KahanSum acc;
  acc.Add(1.0);
  for (int i = 0; i < 10000000; ++i) acc.Add(1e-16);
  EXPECT_NEAR(acc.Total(), 1.0 + 1e-9, 1e-12);
  EXPECT_EQ(acc.Count(), 10000001u);
}

TEST(KahanSumTest, EmptyIsZero) {
  KahanSum acc;
  EXPECT_EQ(acc.Total(), 0.0);
  EXPECT_EQ(acc.Count(), 0u);
}

TEST(RunningStatsTest, BasicMoments) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.Add(x);
  EXPECT_DOUBLE_EQ(stats.Mean(), 5.0);
  EXPECT_NEAR(stats.Variance(), 32.0 / 7.0, 1e-12);  // Sample variance.
  EXPECT_DOUBLE_EQ(stats.Min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.Max(), 9.0);
  EXPECT_EQ(stats.Count(), 8u);
}

TEST(RunningStatsTest, SingleValueHasZeroVariance) {
  RunningStats stats;
  stats.Add(3.0);
  EXPECT_DOUBLE_EQ(stats.Variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.StdDev(), 0.0);
}

TEST(RunningStatsTest, StableUnderLargeOffset) {
  RunningStats stats;
  for (double x : {1e9 + 4, 1e9 + 7, 1e9 + 13, 1e9 + 16}) stats.Add(x);
  EXPECT_NEAR(stats.Mean(), 1e9 + 10, 1e-3);
  EXPECT_NEAR(stats.Variance(), 30.0, 1e-6);
}

TEST(SumMeanTest, Basics) {
  EXPECT_DOUBLE_EQ(Sum({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Sum({1.5, 2.5}), 4.0);
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(QuantileTest, InterpolatesLinearly) {
  std::vector<double> values = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Quantile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(values, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(values, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile(values, 1.0 / 3.0), 2.0);
}

TEST(QuantileTest, UnsortedInput) {
  EXPECT_DOUBLE_EQ(Quantile({5.0, 1.0, 3.0}, 0.5), 3.0);
}

}  // namespace
}  // namespace freshen
