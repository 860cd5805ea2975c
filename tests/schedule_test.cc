// Tests for the Fixed-Order and Poisson sync timelines.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "model/element.h"
#include "rng/rng.h"
#include "schedule/schedule.h"

namespace freshen {
namespace {

TEST(ScheduleTest, EventCountMatchesFrequencyTimesHorizon) {
  const auto schedule = SyncSchedule::FixedOrder({2.0, 0.5}, 10.0).value();
  size_t count0 = 0;
  size_t count1 = 0;
  for (const auto& event : schedule.events()) {
    if (event.element == 0) ++count0;
    if (event.element == 1) ++count1;
  }
  EXPECT_EQ(count0, 20u);
  EXPECT_EQ(count1, 5u);
}

TEST(ScheduleTest, EventsAreSortedByTime) {
  const auto schedule =
      SyncSchedule::FixedOrder({3.0, 1.7, 0.9, 2.2}, 25.0).value();
  for (size_t i = 1; i < schedule.size(); ++i) {
    EXPECT_LE(schedule.events()[i - 1].time, schedule.events()[i].time);
  }
}

TEST(ScheduleTest, IntervalsAreRegular) {
  const auto schedule = SyncSchedule::FixedOrder({4.0}, 5.0).value();
  ASSERT_EQ(schedule.size(), 20u);
  for (size_t i = 1; i < schedule.size(); ++i) {
    EXPECT_NEAR(schedule.events()[i].time - schedule.events()[i - 1].time,
                0.25, 1e-9);
  }
}

TEST(ScheduleTest, ZeroFrequencyElementNeverSynced) {
  const auto schedule = SyncSchedule::FixedOrder({0.0, 1.0}, 10.0).value();
  for (const auto& event : schedule.events()) {
    EXPECT_EQ(event.element, 1u);
  }
}

TEST(ScheduleTest, PhasesStaggerEqualFrequencies) {
  // Two elements at the same frequency must not fire at identical times.
  const auto schedule = SyncSchedule::FixedOrder({1.0, 1.0}, 4.0).value();
  for (size_t i = 1; i < schedule.size(); ++i) {
    EXPECT_GT(schedule.events()[i].time - schedule.events()[i - 1].time,
              0.01);
  }
}

TEST(ScheduleTest, EmptyHorizonYieldsNoEvents) {
  const auto schedule = SyncSchedule::FixedOrder({5.0}, 0.0).value();
  EXPECT_EQ(schedule.size(), 0u);
}

TEST(ScheduleTest, BandwidthPerPeriodAccountsForSizes) {
  const ElementSet elements =
      MakeElementSet({1.0, 1.0}, {0.5, 0.5}, {2.0, 3.0});
  const auto schedule = SyncSchedule::FixedOrder({1.0, 2.0}, 10.0).value();
  // 10 syncs of size 2 + 20 syncs of size 3 over 10 periods = 8 per period.
  EXPECT_NEAR(schedule.BandwidthPerPeriod(elements, 10.0), 8.0, 1e-9);
}

TEST(ScheduleTest, RejectsInvalidInput) {
  EXPECT_FALSE(SyncSchedule::FixedOrder({1.0}, -1.0).ok());
  EXPECT_FALSE(SyncSchedule::FixedOrder({-1.0}, 1.0).ok());
  EXPECT_FALSE(
      SyncSchedule::FixedOrder({std::nan("")}, 1.0).ok());
}

TEST(ScheduleTest, FractionalFrequenciesSpanPeriods) {
  // f = 0.4 means one sync every 2.5 periods.
  const auto schedule = SyncSchedule::FixedOrder({0.4}, 10.0).value();
  ASSERT_EQ(schedule.size(), 4u);
  EXPECT_NEAR(schedule.events()[1].time - schedule.events()[0].time, 2.5,
              1e-9);
}

// Every instant ForEachPoissonSyncTime emits for `frequency` over
// [0, horizon), drawing from a fresh Rng seeded with `seed`.
std::vector<double> PoissonSyncTimes(double frequency, double horizon,
                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<double> times;
  ForEachPoissonSyncTime(frequency, horizon, rng,
                         [&](double t) { times.push_back(t); });
  return times;
}

TEST(PoissonScheduleTest, EventCountNearExpectation) {
  EXPECT_NEAR(static_cast<double>(PoissonSyncTimes(2.0, 1000.0, 11).size()),
              2000.0, 150.0);
  EXPECT_NEAR(static_cast<double>(PoissonSyncTimes(0.5, 1000.0, 12).size()),
              500.0, 80.0);
}

TEST(PoissonScheduleTest, SortedAndDeterministic) {
  const std::vector<double> a = PoissonSyncTimes(2.0, 50.0, 5);
  const std::vector<double> b = PoissonSyncTimes(2.0, 50.0, 5);
  ASSERT_NE(a.size(), 0u);
  EXPECT_EQ(a, b);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_GE(a[i], 0.0);
    EXPECT_LT(a[i], 50.0);
    if (i > 0) {
      EXPECT_LT(a[i - 1], a[i]);
    }
  }
  EXPECT_NE(a, PoissonSyncTimes(2.0, 50.0, 6));
}

TEST(PoissonScheduleTest, GapsAreIrregular) {
  const std::vector<double> times = PoissonSyncTimes(4.0, 100.0, 9);
  ASSERT_GT(times.size(), 100u);
  double min_gap = 1e300;
  double max_gap = 0.0;
  for (size_t i = 1; i < times.size(); ++i) {
    const double gap = times[i] - times[i - 1];
    min_gap = std::min(min_gap, gap);
    max_gap = std::max(max_gap, gap);
  }
  // Memoryless gaps vary wildly, unlike FixedOrder's constant 0.25.
  EXPECT_LT(min_gap, 0.05);
  EXPECT_GT(max_gap, 0.5);
}

}  // namespace
}  // namespace freshen
