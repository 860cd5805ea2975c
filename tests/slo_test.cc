// Tests for the live telemetry plane: the sliding-window freshness SLO
// monitor (obs/slo.h), the estimator drift detector (obs/drift.h), and
// their wiring into OnlineFreshenLoop (the loop feeds both). All
// period clocks here are virtual — the tests drive ObservePeriod/EndPeriod
// directly, so every state transition is deterministic.
#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/plan_classes.h"
#include "common/simd.h"
#include "mirror/online_loop.h"
#include "model/element.h"
#include "obs/drift.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "rng/rng.h"

namespace freshen {
namespace {

using obs::DriftDetector;
using obs::DriftReport;
using obs::SloMonitor;
using obs::SloReport;
using obs::SloState;

// Closes a detector's period against per-element planned rates, wrapped as
// a plan with one class per element.
void EndPeriodAgainst(DriftDetector& detector, double now,
                      const std::vector<double>& planned) {
  detector.EndPeriod(
      now,
      IdentityClasses(std::vector<double>(planned.size(), 0.0), planned)
          .view());
}

// ---- SloMonitor -----------------------------------------------------------

SloMonitor::Options TightSloOptions(obs::MetricsRegistry* registry) {
  SloMonitor::Options options;
  options.objective = 0.9;  // Error budget 0.1.
  options.fast_window_periods = 2.0;
  options.slow_window_periods = 4.0;
  options.warn_burn_rate = 2.0;
  options.page_burn_rate = 8.0;
  options.registry = registry;
  return options;
}

TEST(SloMonitorTest, CreateValidatesOptions) {
  obs::MetricsRegistry registry;
  auto options = TightSloOptions(&registry);
  EXPECT_TRUE(SloMonitor::Create(options).ok());

  auto bad = options;
  bad.objective = 1.0;
  EXPECT_FALSE(SloMonitor::Create(bad).ok());
  bad = options;
  bad.objective = 0.0;
  EXPECT_FALSE(SloMonitor::Create(bad).ok());
  bad = options;
  bad.age_slo = -1.0;
  EXPECT_FALSE(SloMonitor::Create(bad).ok());
  bad = options;
  bad.fast_window_periods = 0.5;
  EXPECT_FALSE(SloMonitor::Create(bad).ok());
  bad = options;
  bad.slow_window_periods = bad.fast_window_periods;
  EXPECT_FALSE(SloMonitor::Create(bad).ok());
  bad = options;
  bad.slow_window_periods = 1e9;
  EXPECT_FALSE(SloMonitor::Create(bad).ok());
  bad = options;
  bad.warn_burn_rate = 0.0;
  EXPECT_FALSE(SloMonitor::Create(bad).ok());
  bad = options;
  bad.page_burn_rate = 0.5 * bad.warn_burn_rate;
  EXPECT_FALSE(SloMonitor::Create(bad).ok());
}

// The acceptance drill in unit form: a healthy stream, then a burst outage
// (all accesses bad), then recovery — ok -> burning -> alert -> burning ->
// ok, with every transition counted.
TEST(SloMonitorTest, BurstOutageWalksOkBurningAlertAndBack) {
  obs::MetricsRegistry registry;
  auto monitor = SloMonitor::Create(TightSloOptions(&registry)).value();

  // Four perfect periods: state ok, no transitions.
  for (int t = 1; t <= 4; ++t) {
    monitor.ObservePeriod(static_cast<double>(t), 100, 100, 100);
  }
  EXPECT_EQ(monitor.state(), SloState::kOk);
  EXPECT_EQ(monitor.Report().transitions, 0u);

  // Outage period 5: fast window bad ratio 100/200 = 0.5, burn 5 >= warn 2
  // but < page 8 -> burning.
  monitor.ObservePeriod(5.0, 100, 0, 0);
  EXPECT_EQ(monitor.state(), SloState::kBurning);
  SloReport report = monitor.Report();
  EXPECT_EQ(report.transitions, 1u);
  EXPECT_DOUBLE_EQ(report.last_transition_time, 5.0);
  EXPECT_DOUBLE_EQ(report.fast.bad_ratio, 0.5);
  EXPECT_DOUBLE_EQ(report.fast.burn_rate, 5.0);

  // Outage period 6: fast burn 10 >= page AND slow burn (200/400 bad) 5 >=
  // warn -> alert.
  monitor.ObservePeriod(6.0, 100, 0, 0);
  EXPECT_EQ(monitor.state(), SloState::kAlert);
  report = monitor.Report();
  EXPECT_EQ(report.transitions, 2u);
  EXPECT_DOUBLE_EQ(report.fast.burn_rate, 10.0);
  EXPECT_DOUBLE_EQ(report.slow.burn_rate, 5.0);
  EXPECT_DOUBLE_EQ(report.budget_remaining, 0.0);

  // Recovery period 7: fast window still holds one outage period -> burn 5
  // -> back to burning (alert de-escalates as soon as paging burn clears).
  monitor.ObservePeriod(7.0, 100, 100, 100);
  EXPECT_EQ(monitor.state(), SloState::kBurning);
  EXPECT_EQ(monitor.Report().transitions, 3u);

  // Recovery period 8: fast window all good -> ok.
  monitor.ObservePeriod(8.0, 100, 100, 100);
  EXPECT_EQ(monitor.state(), SloState::kOk);
  report = monitor.Report();
  EXPECT_EQ(report.transitions, 4u);
  EXPECT_DOUBLE_EQ(report.last_transition_time, 8.0);

  // Whole-run totals: 8 periods, 2 fully bad.
  EXPECT_EQ(report.total_accesses, 800u);
  EXPECT_EQ(report.total_good, 600u);
  EXPECT_DOUBLE_EQ(report.overall_good_ratio, 0.75);

  // The same walk through the registry's eyes.
  EXPECT_DOUBLE_EQ(registry.GetGauge("freshen_slo_state")->value(), 0.0);
  EXPECT_DOUBLE_EQ(
      registry.GetCounter("freshen_slo_transitions", {{"to", "alert"}})
          ->value(),
      1.0);
  EXPECT_DOUBLE_EQ(
      registry.GetCounter("freshen_slo_transitions", {{"to", "burning"}})
          ->value(),
      2.0);
  EXPECT_DOUBLE_EQ(
      registry.GetCounter("freshen_slo_transitions", {{"to", "ok"}})->value(),
      1.0);
}

TEST(SloMonitorTest, WindowsShorterThanHistoryCountOnlySeenPeriods) {
  obs::MetricsRegistry registry;
  auto monitor = SloMonitor::Create(TightSloOptions(&registry)).value();
  monitor.ObservePeriod(1.0, 50, 40, 45);
  const SloReport report = monitor.Report();
  EXPECT_EQ(report.fast.periods, 1u);
  EXPECT_EQ(report.slow.periods, 1u);
  EXPECT_EQ(report.slow.accesses, 50u);
  EXPECT_DOUBLE_EQ(report.slow.bad_ratio, 0.2);
  EXPECT_DOUBLE_EQ(report.now, 1.0);
}

TEST(SloMonitorTest, AgeSloModeCountsAgeGoodAccesses) {
  obs::MetricsRegistry registry;
  auto options = TightSloOptions(&registry);
  options.good_is_age_slo = true;
  options.age_slo = 0.5;
  auto monitor = SloMonitor::Create(options).value();
  EXPECT_DOUBLE_EQ(monitor.age_slo(), 0.5);
  // 0 strictly fresh, but all within the age SLO: a perfect period.
  monitor.ObservePeriod(1.0, 100, 0, 100);
  monitor.ObservePeriod(2.0, 100, 0, 100);
  EXPECT_EQ(monitor.state(), SloState::kOk);
  const SloReport report = monitor.Report();
  EXPECT_EQ(report.total_good, 200u);
  EXPECT_TRUE(report.good_is_age_slo);
}

TEST(SloMonitorTest, GoodCountsAreClampedToAccesses) {
  obs::MetricsRegistry registry;
  auto monitor = SloMonitor::Create(TightSloOptions(&registry)).value();
  monitor.ObservePeriod(1.0, 10, 999, 999);  // Feeder bug: clamp, not UB.
  const SloReport report = monitor.Report();
  EXPECT_EQ(report.total_good, 10u);
  EXPECT_DOUBLE_EQ(report.fast.bad_ratio, 0.0);
}

TEST(SloMonitorTest, EmptyMonitorReportsHealthyDefaults) {
  obs::MetricsRegistry registry;
  auto monitor = SloMonitor::Create(TightSloOptions(&registry)).value();
  const SloReport report = monitor.Report();
  EXPECT_EQ(report.state, SloState::kOk);
  EXPECT_EQ(report.fast.periods, 0u);
  EXPECT_DOUBLE_EQ(report.overall_good_ratio, 1.0);
  EXPECT_DOUBLE_EQ(report.budget_remaining, 1.0);
}

TEST(SloStateNameTest, CoversAllStates) {
  EXPECT_STREQ(obs::SloStateName(SloState::kOk), "ok");
  EXPECT_STREQ(obs::SloStateName(SloState::kBurning), "burning");
  EXPECT_STREQ(obs::SloStateName(SloState::kAlert), "alert");
}

// Readers hammer Report()/state() while the writer streams periods; every
// sampled report must be internally coherent. Run under `ctest -L tsan` in
// a FRESHEN_SANITIZE=thread build.
TEST(SloMonitorTest, ConcurrentReadersSeeCoherentReports) {
  obs::MetricsRegistry registry;
  auto options = TightSloOptions(&registry);
  auto monitor = SloMonitor::Create(options).value();

  std::atomic<bool> done{false};
  std::atomic<size_t> violations{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        const SloReport report = monitor.Report();
        const bool ok =
            report.fast.good <= report.fast.accesses &&
            report.slow.good <= report.slow.accesses &&
            report.fast.periods <= 2 && report.slow.periods <= 4 &&
            report.total_good <= report.total_accesses &&
            report.budget_remaining >= 0.0 &&
            report.budget_remaining <= 1.0 &&
            static_cast<uint8_t>(report.state) <= 2;
        if (!ok) violations.fetch_add(1);
      }
    });
  }
  for (int t = 1; t <= 5000; ++t) {
    // Alternate good and bad periods so state churns constantly.
    const uint64_t fresh = (t % 3 == 0) ? 0 : 100;
    monitor.ObservePeriod(static_cast<double>(t), 100, fresh, fresh);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(violations.load(), 0u);
}

// ---- DriftDetector --------------------------------------------------------

DriftDetector::Options SmallDriftOptions(size_t n,
                                         obs::MetricsRegistry* registry) {
  DriftDetector::Options options;
  options.num_elements = n;
  options.min_evidence = 3.0;
  options.top_k = 4;
  options.registry = registry;
  return options;
}

TEST(DriftDetectorTest, CreateValidatesOptions) {
  obs::MetricsRegistry registry;
  auto options = SmallDriftOptions(8, &registry);
  EXPECT_TRUE(DriftDetector::Create(options).ok());

  auto bad = options;
  bad.num_elements = 0;
  EXPECT_FALSE(DriftDetector::Create(bad).ok());
  bad = options;
  bad.decay = 0.0;
  EXPECT_FALSE(DriftDetector::Create(bad).ok());
  bad = options;
  bad.decay = 1.5;
  EXPECT_FALSE(DriftDetector::Create(bad).ok());
  bad = options;
  bad.min_evidence = 0.5;
  EXPECT_FALSE(DriftDetector::Create(bad).ok());
  bad = options;
  bad.top_k = 0;
  EXPECT_FALSE(DriftDetector::Create(bad).ok());
}

// Feed evidence exactly consistent with the planned rate: with 10 polls at
// gap 0.5 and 4 detected changes, the plain Poisson estimate is
// -ln(0.6)/0.5 = 1.0217 against planned 1.0 — a near-zero score, no flags.
TEST(DriftDetectorTest, MatchedRatesScoreNearZero) {
  obs::MetricsRegistry registry;
  auto detector = DriftDetector::Create(SmallDriftOptions(4, &registry))
                      .value();
  for (size_t element = 0; element < 4; ++element) {
    for (int poll = 0; poll < 10; ++poll) {
      detector.ObserveSync(element, /*changed=*/poll < 4, /*gap=*/0.5);
    }
  }
  EndPeriodAgainst(detector, 1.0, std::vector<double>(4, 1.0));
  const DriftReport report = detector.Report();
  EXPECT_EQ(report.scored_elements, 4u);
  EXPECT_EQ(report.flagged_elements, 0u);
  EXPECT_LT(report.aggregate_score, 0.1);
  EXPECT_DOUBLE_EQ(report.now, 1.0);
  ASSERT_EQ(report.top.size(), 4u);
  EXPECT_NEAR(report.top[0].observed_rate, -std::log(0.6) / 0.5, 1e-12);
}

// The acceptance scenario: most elements behave as planned, two shifted to
// a much hotter rate. The shifted pair must top the offender list, be
// flagged, and carry observed >> planned.
TEST(DriftDetectorTest, LambdaShiftPutsShiftedElementsInTopK) {
  obs::MetricsRegistry registry;
  auto detector = DriftDetector::Create(SmallDriftOptions(10, &registry))
                      .value();
  for (size_t element = 0; element < 10; ++element) {
    const bool shifted = element == 3 || element == 7;
    for (int poll = 0; poll < 10; ++poll) {
      // Shifted elements change on every poll; matched ones at the planned
      // 40% detection ratio.
      detector.ObserveSync(element, shifted || poll < 4, 0.5);
    }
  }
  EndPeriodAgainst(detector, 1.0, std::vector<double>(10, 1.0));
  const DriftReport report = detector.Report();
  EXPECT_EQ(report.scored_elements, 10u);
  EXPECT_EQ(report.flagged_elements, 2u);
  ASSERT_GE(report.top.size(), 2u);
  const bool top_pair_is_shifted =
      (report.top[0].element == 3 && report.top[1].element == 7) ||
      (report.top[0].element == 7 && report.top[1].element == 3);
  EXPECT_TRUE(top_pair_is_shifted)
      << "top offenders: " << report.top[0].element << ", "
      << report.top[1].element;
  EXPECT_GT(report.top[0].observed_rate, 10.0 * report.top[0].planned_rate);
  EXPECT_GE(report.top[0].score, report.top[1].score);
  EXPECT_GT(report.max_score, DriftDetector::kFlagScore);
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("freshen_drift_flagged_elements")->value(), 2.0);
}

TEST(DriftDetectorTest, IgnoresBadObservationsAndThinEvidence) {
  obs::MetricsRegistry registry;
  auto detector = DriftDetector::Create(SmallDriftOptions(4, &registry))
                      .value();
  detector.ObserveSync(99, true, 0.5);   // Out of range: dropped.
  detector.ObserveSync(0, true, 0.0);    // Non-positive gap: dropped.
  detector.ObserveSync(0, true, -1.0);   // Negative gap: dropped.
  detector.ObserveSync(0, true, 0.5);    // 1 poll < min_evidence 3.
  detector.ObserveSync(1, true, 0.5);
  detector.ObserveSync(1, true, 0.5);
  EndPeriodAgainst(detector, 1.0, std::vector<double>(4, 1.0));
  const DriftReport report = detector.Report();
  EXPECT_EQ(report.scored_elements, 0u);
  EXPECT_TRUE(report.top.empty());
  EXPECT_DOUBLE_EQ(report.aggregate_score, 0.0);
}

TEST(DriftDetectorTest, EvidenceDecaysBelowScoringThreshold) {
  obs::MetricsRegistry registry;
  auto options = SmallDriftOptions(1, &registry);
  options.decay = 0.5;
  auto detector = DriftDetector::Create(options).value();
  for (int poll = 0; poll < 4; ++poll) {
    detector.ObserveSync(0, true, 0.5);
  }
  EndPeriodAgainst(detector, 1.0, {1.0});
  EXPECT_EQ(detector.Report().scored_elements, 1u);
  // No new syncs: 4 -> 2 -> 1 effective polls; below min_evidence 3 the
  // element stops being scored.
  EndPeriodAgainst(detector, 2.0, {1.0});
  EXPECT_EQ(detector.Report().scored_elements, 0u);
}

// Decay scales an element's polls, changes and watched time alike, so the
// detector keeps an element's score until a sync adds evidence or the plan's
// rate for it changes. An eager oracle that rescores every element from its
// decayed evidence at every period close must agree up to rounding.
TEST(DriftDetectorTest, CachedScoresMatchEagerRescoring) {
  const size_t n = 64;
  obs::MetricsRegistry registry;
  auto options = SmallDriftOptions(n, &registry);
  options.top_k = n;  // Report every scored element.
  auto detector = DriftDetector::Create(options).value();
  std::vector<double> polls(n, 0.0);
  std::vector<double> changes(n, 0.0);
  std::vector<double> watch(n, 0.0);
  std::vector<double> planned(n, 1.0);
  Rng rng(11);
  for (int period = 1; period <= 300; ++period) {
    // Sync probabilities from 5% to 95% per period: the rarely synced
    // elements idle for many periods and cross min_evidence both ways.
    for (size_t i = 0; i < n; ++i) {
      if (!rng.NextBool(0.05 + 0.9 * static_cast<double>(i) / n)) continue;
      const bool changed = rng.NextBool(0.4);
      const double gap = rng.NextDoubleIn(0.1, 2.0);
      detector.ObserveSync(i, changed, gap);
      polls[i] += 1.0;
      if (changed) changes[i] += 1.0;
      watch[i] += gap;
    }
    // A replan every 25 periods moves about a third of the planned rates.
    if (period % 25 == 0) {
      for (double& rate : planned) {
        if (rng.NextBool(0.3)) rate = rng.NextDoubleIn(0.2, 4.0);
      }
    }
    EndPeriodAgainst(detector, period, planned);

    const DriftReport report = detector.Report();
    std::vector<double> eager(n, -1.0);
    size_t scored = 0;
    double weighted = 0.0;
    double weight = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (polls[i] < options.min_evidence) continue;
      const double ratio = std::min(changes[i] / polls[i], 0.999);
      const double observed =
          std::max(-std::log1p(-ratio) / (watch[i] / polls[i]),
                   DriftDetector::kRateFloor);
      eager[i] = std::fabs(std::log(observed / planned[i]));
      ++scored;
      weighted += eager[i] * polls[i];
      weight += polls[i];
    }
    ASSERT_EQ(report.scored_elements, scored) << "period " << period;
    ASSERT_EQ(report.top.size(), scored) << "period " << period;
    for (const obs::DriftOffender& offender : report.top) {
      ASSERT_NEAR(offender.score, eager[offender.element], 1e-12)
          << "period " << period << " element " << offender.element;
      EXPECT_EQ(offender.planned_rate, planned[offender.element]);
      EXPECT_EQ(offender.evidence, polls[offender.element]);
    }
    if (scored > 0) {
      EXPECT_NEAR(report.aggregate_score, weighted / weight, 1e-12);
    }
    for (size_t i = 0; i < n; ++i) {
      polls[i] *= options.decay;
      changes[i] *= options.decay;
      watch[i] *= options.decay;
    }
  }
}

// The detector keeps evidence rows only for synced elements, appended in
// first-sync order, and sorts them by element id at each period close.
// Reference: the dense layout the rows replaced, a score per element kept
// until the element syncs or its planned rate moves (decay changes the
// observed rate only in its last bits), and a sweep over every element in
// id order, with the scalar forms of the batch logarithms. Elements
// first sync in a shuffled order over 40 periods, each period's syncs
// arrive in descending id order, and elements 2p and 2p + 1 share their
// evidence and planned rate, so their scores tie. The counts, maximum and
// aggregate must match bit for bit, and the top-k list must match the
// dense ranking, ties in ascending element order.
TEST(DriftDetectorTest, SparseRowsMatchADenseSweepBitForBit) {
  const size_t n = 600;
  obs::MetricsRegistry registry;
  auto options = SmallDriftOptions(n, &registry);
  options.top_k = 16;
  auto detector = DriftDetector::Create(options).value();
  std::vector<double> polls(n, 0.0);
  std::vector<double> changes(n, 0.0);
  std::vector<double> watch(n, 0.0);
  std::vector<double> planned(n, 1.0);
  std::vector<double> score(n, 0.0);
  std::vector<double> scored_against(n, 0.0);
  Rng rng(29);
  std::vector<int> first_period(n / 2);
  for (int& first : first_period) first = 1 + rng.NextUint64Below(40);
  const auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };
  for (int period = 1; period <= 80; ++period) {
    std::vector<bool> synced(n, false);
    for (size_t pair = n / 2; pair-- > 0;) {
      if (period < first_period[pair] || !rng.NextBool(0.5)) continue;
      const bool changed = rng.NextBool(0.4);
      const double gap = rng.NextDoubleIn(0.1, 2.0);
      for (const size_t i : {2 * pair + 1, 2 * pair}) {
        detector.ObserveSync(i, changed, gap);
        synced[i] = true;
        polls[i] += 1.0;
        if (changed) changes[i] += 1.0;
        watch[i] += gap;
      }
    }
    if (period % 10 == 0) {
      for (size_t pair = 0; pair < n / 2; ++pair) {
        if (!rng.NextBool(0.3)) continue;
        planned[2 * pair] = planned[2 * pair + 1] = rng.NextDoubleIn(0.2, 4.0);
      }
    }
    EndPeriodAgainst(detector, period, planned);

    size_t scored = 0;
    size_t flagged = 0;
    double max_score = 0.0;
    double weighted = 0.0;
    double weight = 0.0;
    std::vector<std::pair<double, size_t>> ranked;
    for (size_t i = 0; i < n; ++i) {
      if (polls[i] < options.min_evidence || !(watch[i] > 0.0)) continue;
      const double against = std::max(planned[i], DriftDetector::kRateFloor);
      if (synced[i] || scored_against[i] != against) {
        const double ratio = std::min(changes[i] / polls[i], 0.999);
        const double observed =
            std::max(-simd::Log1pRef(-ratio) / (watch[i] / polls[i]),
                     DriftDetector::kRateFloor);
        score[i] = std::fabs(simd::LogPosRef(observed / against));
        scored_against[i] = against;
      }
      ++scored;
      if (score[i] >= DriftDetector::kFlagScore) ++flagged;
      max_score = std::max(max_score, score[i]);
      weighted += score[i] * polls[i];
      weight += polls[i];
      ranked.emplace_back(score[i], i);
    }
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto& a, const auto& b) {
                       return a.first > b.first;
                     });
    ranked.resize(std::min(ranked.size(), options.top_k));

    const DriftReport report = detector.Report();
    ASSERT_EQ(report.scored_elements, scored) << "period " << period;
    ASSERT_EQ(report.flagged_elements, flagged) << "period " << period;
    ASSERT_EQ(bits(report.max_score), bits(max_score)) << "period " << period;
    ASSERT_EQ(bits(report.aggregate_score),
              bits(weight > 0.0 ? weighted / weight : 0.0))
        << "period " << period;
    ASSERT_EQ(report.top.size(), ranked.size()) << "period " << period;
    for (size_t k = 0; k < ranked.size(); ++k) {
      ASSERT_EQ(report.top[k].element, ranked[k].second)
          << "period " << period << " rank " << k;
      ASSERT_EQ(bits(report.top[k].score), bits(ranked[k].first));
      ASSERT_EQ(bits(report.top[k].evidence), bits(polls[ranked[k].second]));
    }
    for (size_t i = 0; i < n; ++i) {
      polls[i] *= options.decay;
      changes[i] *= options.decay;
      watch[i] *= options.decay;
    }
  }
}

// EndPeriod rescores through the batch logarithms (common/simd.h), not
// libm. Over a catalog spanning several rescoring chunks, with planned
// rates over twelve decades (and one so large that the observed/planned
// ratio is subnormal, which takes the libm fallback), every score and
// observed rate must match libm rescoring of the same evidence to 1e-14
// relative, both on fresh evidence and after a replan against decayed
// evidence.
TEST(DriftDetectorTest, BatchedScoresMatchLibmRescoring) {
  const size_t n = 3001;
  obs::MetricsRegistry registry;
  auto options = SmallDriftOptions(n, &registry);
  options.top_k = n;  // Report every scored element.
  auto detector = DriftDetector::Create(options).value();
  std::vector<double> polls(n, 0.0);
  std::vector<double> changes(n, 0.0);
  std::vector<double> watch(n, 0.0);
  std::vector<double> planned(n);
  Rng rng(29);
  for (size_t i = 0; i < n; ++i) {
    planned[i] = std::pow(10.0, rng.NextDoubleIn(-6.0, 6.0));
    if (i == 7) continue;  // Set up below.
    // Some elements stay below min_evidence; some see every poll change.
    const int syncs = static_cast<int>(rng.NextDoubleIn(0.0, 12.0));
    const double change_p = rng.NextBool(0.1) ? 1.0 : rng.NextDoubleIn(0, 1);
    for (int s = 0; s < syncs; ++s) {
      const bool changed = rng.NextBool(change_p);
      const double gap = rng.NextDoubleIn(0.01, 3.0);
      detector.ObserveSync(i, changed, gap);
      polls[i] += 1.0;
      if (changed) changes[i] += 1.0;
      watch[i] += gap;
    }
  }
  planned[7] = 1e305;
  for (int s = 0; s < 5; ++s) {
    detector.ObserveSync(7, false, 1.0);
    polls[7] += 1.0;
    watch[7] += 1.0;
  }

  for (int round = 0; round < 2; ++round) {
    if (round == 1) {
      // A replan moves every planned rate; the evidence has decayed once.
      for (double& rate : planned) rate *= 1.5;
    }
    EndPeriodAgainst(detector, round + 1.0, planned);
    const DriftReport report = detector.Report();
    size_t scored = 0;
    for (size_t i = 0; i < n; ++i) {
      if (polls[i] >= options.min_evidence) ++scored;
    }
    ASSERT_EQ(report.top.size(), scored);
    for (const obs::DriftOffender& o : report.top) {
      const size_t i = o.element;
      const double ratio = std::min(changes[i] / polls[i], 0.999);
      const double observed =
          std::max(-std::log1p(-ratio) / (watch[i] / polls[i]),
                   DriftDetector::kRateFloor);
      const double score =
          std::fabs(std::log(observed / std::max(planned[i],
                                                 DriftDetector::kRateFloor)));
      EXPECT_NEAR(o.observed_rate, observed, 1e-14 * observed)
          << "round " << round << " element " << i;
      EXPECT_NEAR(o.score, score, 1e-14 * score)
          << "round " << round << " element " << i;
    }
    for (size_t i = 0; i < n; ++i) {
      polls[i] *= options.decay;
      changes[i] *= options.decay;
      watch[i] *= options.decay;
    }
  }
}

// ---- OnlineFreshenLoop wiring --------------------------------------------

ElementSet UniformHotCatalog(size_t n, double change_rate) {
  std::vector<double> rates(n, change_rate);
  std::vector<double> probs(n, 1.0 / static_cast<double>(n));
  return MakeElementSet(rates, probs);
}

// The loop feeds the SLO monitor one sample per period boundary.
TEST(LoopTelemetryTest, SloMonitorReceivesEveryPeriod) {
  obs::MetricsRegistry registry;
  auto monitor = SloMonitor::Create(TightSloOptions(&registry)).value();

  OnlineFreshenLoop::Options options;
  options.accesses_per_period = 200.0;
  options.seed = 42;
  options.registry = &registry;
  options.slo = &monitor;
  auto loop = OnlineFreshenLoop::Create(UniformHotCatalog(16, 1.0), 8.0,
                                        options)
                  .value();
  for (int period = 0; period < 3; ++period) loop.RunPeriod();

  const SloReport report = monitor.Report();
  EXPECT_DOUBLE_EQ(report.now, 3.0);
  EXPECT_EQ(report.fast.periods, 2u);
  EXPECT_EQ(report.slow.periods, 3u);
  EXPECT_GT(report.total_accesses, 0u);
  EXPECT_LE(report.total_good, report.total_accesses);
}

// A true-rate shift the plan never corrects (the controller believes 0.01,
// the truth is 4, and the cadence is parked at 1000 periods) keeps the stale
// plan in force; the drift detector the loop feeds must flag every shifted
// element against the 0.01 it is planned on. The detector only reports:
// nothing replans early.
TEST(LoopTelemetryTest, DriftFlagsAnUncorrectedLambdaShift) {
  const size_t n = 32;
  obs::MetricsRegistry registry;
  DriftDetector::Options drift_options;
  drift_options.num_elements = n;
  drift_options.min_evidence = 2.0;
  drift_options.registry = &registry;
  auto detector = DriftDetector::Create(drift_options).value();

  OnlineFreshenLoop::Options options;
  options.controller.replan_every_periods = 1000.0;
  options.controller.prior_change_rate = 0.01;
  options.accesses_per_period = 100.0;
  options.seed = 7;
  options.registry = &registry;
  options.drift = &detector;
  // Bandwidth 2N: every element syncs ~2x per period, plenty of polls.
  auto loop = OnlineFreshenLoop::Create(UniformHotCatalog(n, 4.0), 2.0 * n,
                                        options)
                  .value();
  for (int period = 0; period < 6; ++period) {
    EXPECT_FALSE(loop.RunPeriod().replanned);
  }
  EXPECT_EQ(loop.controller().num_replans(), 1u);  // Cold-start plan only.
  EXPECT_DOUBLE_EQ(loop.controller().PlannedChangeRate(0), 0.01);

  const DriftReport report = detector.Report();
  EXPECT_EQ(report.scored_elements, n);
  EXPECT_EQ(report.flagged_elements, n);
  EXPECT_GE(report.aggregate_score, DriftDetector::kFlagScore);
  ASSERT_EQ(report.top.size(), drift_options.top_k);
  for (const obs::DriftOffender& offender : report.top) {
    EXPECT_DOUBLE_EQ(offender.planned_rate, 0.01);
    EXPECT_GT(offender.observed_rate, 100.0 * offender.planned_rate);
  }
}

}  // namespace
}  // namespace freshen
