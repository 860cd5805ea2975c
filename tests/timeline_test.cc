// Tests for the per-element staleness-attribution ledger: hand-computed
// window accounting, clamping and idempotent transition semantics, per-period
// deltas and offender rankings, report formatting — and the contract the
// ledger exists for: on an N=5000 Zipf catalog its weighted time-in-fresh
// reproduces the simulator's measured perceived freshness to 1e-9, and both
// the metric and the CSV report are identical at every thread count. Runs
// under `ctest -L tsan` (shards feed the ledger concurrently).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/timeline.h"
#include "opt/problem.h"
#include "opt/water_filling.h"
#include "sim/simulator.h"
#include "workload/generator.h"
#include "workload/spec.h"

namespace freshen {
namespace {

using obs::StalenessTimeline;
using obs::TimelineReport;

StalenessTimeline MakeTimeline(std::vector<double> weights,
                               StalenessTimeline::Options options) {
  auto timeline = StalenessTimeline::Create(std::move(weights), options);
  EXPECT_TRUE(timeline.ok()) << timeline.status().message();
  return std::move(timeline.value());
}

TEST(TimelineTest, CreateRejectsBadShapes) {
  StalenessTimeline::Options options;
  EXPECT_FALSE(StalenessTimeline::Create({}, options).ok());
  EXPECT_FALSE(StalenessTimeline::Create({1.0, -0.5}, options).ok());
  EXPECT_FALSE(StalenessTimeline::Create({0.0, 0.0}, options).ok());
  options.window_end = options.window_begin;
  EXPECT_FALSE(StalenessTimeline::Create({1.0}, options).ok());
  // The age SLO follows SloMonitor's rule: finite and >= 0.
  for (const double age_slo : {-1.0, std::nan(""), HUGE_VAL}) {
    EXPECT_FALSE(StalenessTimeline::Create({1.0}, {.age_slo = age_slo}).ok());
  }
  EXPECT_TRUE(StalenessTimeline::Create({1.0}, {.age_slo = 0.0}).ok());
}

TEST(TimelineTest, HandComputedLedger) {
  StalenessTimeline::Options options;
  options.window_begin = 0.0;
  options.window_end = 10.0;
  options.age_slo = 0.25;
  obs::MetricsRegistry registry;
  options.registry = &registry;
  StalenessTimeline timeline = MakeTimeline({3.0, 1.0}, options);

  // Element 0 stale over [2, 4]; element 1 stale from 8 to the end.
  timeline.MarkStale(0, 2.0);
  timeline.MarkFresh(0, 4.0);
  timeline.MarkStale(1, 8.0);

  timeline.OnAccess(0, 1.0, 0.0);  // Fresh.
  timeline.OnAccess(0, 3.0, 1.0);  // Stale, over the SLO.
  timeline.OnAccess(1, 9.0, 0.2);  // Stale but within the age SLO.

  const TimelineReport report = timeline.Finalize();
  ASSERT_EQ(report.elements.size(), 2u);
  EXPECT_DOUBLE_EQ(report.elements[0].weight, 0.75);
  EXPECT_DOUBLE_EQ(report.elements[1].weight, 0.25);
  EXPECT_DOUBLE_EQ(report.elements[0].stale_time, 2.0);
  EXPECT_DOUBLE_EQ(report.elements[1].stale_time, 2.0);
  EXPECT_DOUBLE_EQ(report.elements[0].fresh_fraction, 0.8);
  EXPECT_DOUBLE_EQ(report.elements[1].fresh_fraction, 0.8);
  EXPECT_DOUBLE_EQ(report.elements[0].stale_score, 0.75 * 0.2);
  EXPECT_DOUBLE_EQ(report.elements[0].mean_access_age, 0.5);
  EXPECT_EQ(report.elements[0].accesses, 2u);
  EXPECT_EQ(report.elements[0].fresh_accesses, 1u);
  EXPECT_EQ(report.elements[0].slo_accesses, 1u);
  EXPECT_EQ(report.elements[1].slo_accesses, 1u);

  EXPECT_NEAR(report.overall.weighted_freshness, 0.8, 1e-15);
  EXPECT_DOUBLE_EQ(report.fresh_access_ratio, 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(report.slo_access_ratio, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(report.age_slo, 0.25);

  // Finalize published the gauges into the caller's registry.
  const obs::RegistrySnapshot snapshot = registry.Snapshot();
  const obs::MetricSample* freshness =
      snapshot.Find("freshen_timeline_weighted_freshness");
  ASSERT_NE(freshness, nullptr);
  EXPECT_NEAR(freshness->value, 0.8, 1e-15);
  const obs::MetricSample* elements =
      snapshot.Find("freshen_timeline_elements");
  ASSERT_NE(elements, nullptr);
  EXPECT_DOUBLE_EQ(elements->value, 2.0);
}

TEST(TimelineTest, MarkStaleIsIdempotentEarliestOnsetWins) {
  StalenessTimeline::Options options;
  options.window_end = 10.0;
  StalenessTimeline timeline = MakeTimeline({1.0}, options);
  timeline.MarkStale(0, 2.0);
  timeline.MarkStale(0, 5.0);  // Ignored: already stale since 2.
  timeline.MarkFresh(0, 6.0);
  timeline.MarkFresh(0, 8.0);  // Ignored: already fresh.
  const TimelineReport report = timeline.Finalize();
  EXPECT_DOUBLE_EQ(report.elements[0].stale_time, 4.0);
}

TEST(TimelineTest, IntervalsClampToTheObservationWindow) {
  StalenessTimeline::Options options;
  options.window_begin = 5.0;
  options.window_end = 15.0;
  StalenessTimeline timeline = MakeTimeline({1.0}, options);
  timeline.MarkStale(0, 0.0);    // Before the window: clamps to 5.
  timeline.MarkFresh(0, 10.0);   // Charges [5, 10].
  timeline.MarkStale(0, 12.0);   // Still open at Finalize: charges [12, 15].
  const TimelineReport report = timeline.Finalize();
  EXPECT_DOUBLE_EQ(report.elements[0].stale_time, 8.0);
  EXPECT_DOUBLE_EQ(report.elements[0].fresh_fraction, 0.2);
}

TEST(TimelineTest, CloseWindowReportsPerPeriodDeltasAndOffenders) {
  StalenessTimeline::Options options;
  options.window_begin = 0.0;
  options.window_end = 2.0;
  options.top_k = 2;
  StalenessTimeline timeline = MakeTimeline({1.0, 1.0, 2.0}, options);

  timeline.MarkStale(2, 0.0);
  timeline.MarkFresh(2, 0.5);
  timeline.MarkStale(0, 0.75);  // Spans the period boundary at 1.0.
  timeline.OnAccess(2, 0.25, 0.25);
  timeline.CloseWindow(1.0);
  timeline.MarkFresh(0, 1.25);
  timeline.OnAccess(1, 1.5, 0.0);

  const TimelineReport report = timeline.Finalize();
  ASSERT_EQ(report.periods.size(), 2u);

  // Period 1 over [0, 1): element 2 stale 0.5 (score 0.5*0.5 = 0.25),
  // element 0 stale 0.25 (score 0.25*0.25 = 0.0625).
  const obs::TimelineWindow& first = report.periods[0];
  EXPECT_DOUBLE_EQ(first.begin, 0.0);
  EXPECT_DOUBLE_EQ(first.end, 1.0);
  ASSERT_EQ(first.offenders.size(), 2u);
  EXPECT_EQ(first.offenders[0].element, 2u);
  EXPECT_DOUBLE_EQ(first.offenders[0].stale_score, 0.5 * 0.5);
  EXPECT_EQ(first.offenders[1].element, 0u);
  EXPECT_DOUBLE_EQ(first.offenders[1].stale_score, 0.25 * 0.25);
  EXPECT_EQ(first.accesses, 1u);
  EXPECT_NEAR(first.weighted_freshness,
              0.25 * 0.75 + 0.25 * 1.0 + 0.5 * 0.5, 1e-15);

  // Period 2 over [1, 2]: only element 0's tail [1, 1.25] is stale.
  const obs::TimelineWindow& second = report.periods[1];
  EXPECT_DOUBLE_EQ(second.begin, 1.0);
  EXPECT_DOUBLE_EQ(second.end, 2.0);
  ASSERT_FALSE(second.offenders.empty());
  EXPECT_EQ(second.offenders[0].element, 0u);
  EXPECT_DOUBLE_EQ(second.offenders[0].stale_score, 0.25 * 0.25);
  EXPECT_EQ(second.accesses, 1u);
  EXPECT_EQ(second.fresh_accesses, 1u);

  // The overall window is totals, not deltas: element 0 stale 0.5 of 2.
  EXPECT_DOUBLE_EQ(report.elements[0].stale_time, 0.5);
  EXPECT_NEAR(report.overall.weighted_freshness,
              0.25 * 0.75 + 0.25 * 1.0 + 0.5 * 0.75, 1e-15);
}

TEST(TimelineTest, ReportsFormatAsCsvAndJson) {
  StalenessTimeline::Options options;
  options.window_end = 4.0;
  StalenessTimeline timeline = MakeTimeline({1.0, 3.0}, options);
  timeline.MarkStale(1, 1.0);
  timeline.OnAccess(1, 2.0, 1.0);
  timeline.CloseWindow(2.0);
  const TimelineReport report = timeline.Finalize();

  const std::string csv = obs::FormatTimelineCsv(report);
  EXPECT_NE(csv.find("element,weight,stale_time,fresh_fraction,stale_score,"
                     "accesses,fresh_accesses,slo_accesses,mean_access_age"),
            std::string::npos);
  // One header plus one row per element.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);

  const std::string json = obs::FormatTimelineJson(report);
  EXPECT_NE(json.find("\"overall\""), std::string::npos);
  EXPECT_NE(json.find("\"periods\""), std::string::npos);
  EXPECT_NE(json.find("\"fresh_access_ratio\""), std::string::npos);
  EXPECT_NE(json.find("\"offenders\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// The 1e-9 contract (the acceptance criterion this ledger exists for): on an
// N=5000 Zipf catalog under a planned schedule, the ledger's weighted
// time-in-fresh equals the simulator's measured perceived freshness to 1e-9,
// at any thread count, and the CSV report is byte-identical across thread
// counts.

struct SimWithTimeline {
  SimulationResult result;
  TimelineReport report;
  std::string csv;
};

SimWithTimeline RunSimWithTimeline(const ElementSet& elements,
                                   const std::vector<double>& frequencies,
                                   size_t threads) {
  SimulationConfig config;
  config.horizon_periods = 20.0;
  config.warmup_periods = 2.0;
  config.accesses_per_period = 2000.0;
  config.seed = 20030305;
  config.threads = threads;

  std::vector<double> weights(elements.size());
  for (size_t i = 0; i < elements.size(); ++i) {
    weights[i] = elements[i].access_prob;
  }
  StalenessTimeline::Options timeline_options;
  timeline_options.window_begin = config.warmup_periods;
  timeline_options.window_end = config.horizon_periods;
  obs::MetricsRegistry registry;  // Keep gauges off the global registry.
  timeline_options.registry = &registry;
  auto timeline =
      StalenessTimeline::Create(std::move(weights), timeline_options);
  EXPECT_TRUE(timeline.ok());

  config.timeline = &timeline.value();
  auto result = MirrorSimulator(elements, config).Run(frequencies);
  EXPECT_TRUE(result.ok()) << result.status().message();

  SimWithTimeline out;
  out.result = result.value();
  out.report = timeline.value().Finalize();
  out.csv = obs::FormatTimelineCsv(out.report);
  return out;
}

TEST(TimelineTest, WeightedFreshnessMatchesSimulatorTo1e9OnZipf5000) {
  ExperimentSpec spec = ExperimentSpec::IdealCase();
  spec.num_objects = 5000;
  spec.syncs_per_period = 2500.0;
  const ElementSet elements = GenerateCatalog(spec).value();
  const CoreProblem problem =
      MakePerceivedProblem(elements, spec.syncs_per_period, false);
  const std::vector<double> frequencies =
      KktWaterFillingSolver().Solve(problem).value().frequencies;

  const SimWithTimeline run = RunSimWithTimeline(elements, frequencies, 4);
  EXPECT_GT(run.result.num_accesses, 0u);
  EXPECT_GT(run.result.measured_weighted_freshness, 0.0);
  EXPECT_LT(run.result.measured_weighted_freshness, 1.0);
  EXPECT_NEAR(run.report.overall.weighted_freshness,
              run.result.measured_weighted_freshness, 1e-9);
  // The measured PF and the access-sampled PF estimate the same quantity;
  // they agree loosely (the sampled one carries Poisson noise).
  EXPECT_NEAR(run.result.measured_weighted_freshness,
              run.result.empirical_perceived_freshness, 0.05);
}

TEST(TimelineTest, LedgerIsThreadCountInvariant) {
  ExperimentSpec spec = ExperimentSpec::IdealCase();
  spec.num_objects = 1000;
  spec.syncs_per_period = 500.0;
  const ElementSet elements = GenerateCatalog(spec).value();
  const CoreProblem problem =
      MakePerceivedProblem(elements, spec.syncs_per_period, false);
  const std::vector<double> frequencies =
      KktWaterFillingSolver().Solve(problem).value().frequencies;

  const SimWithTimeline one = RunSimWithTimeline(elements, frequencies, 1);
  const SimWithTimeline eight = RunSimWithTimeline(elements, frequencies, 8);
  EXPECT_EQ(std::memcmp(&one.result.measured_weighted_freshness,
                        &eight.result.measured_weighted_freshness,
                        sizeof(double)),
            0)
      << one.result.measured_weighted_freshness << " vs "
      << eight.result.measured_weighted_freshness;
  EXPECT_EQ(one.csv, eight.csv);
  EXPECT_NEAR(one.report.overall.weighted_freshness,
              one.result.measured_weighted_freshness, 1e-9);
}

}  // namespace
}  // namespace freshen
