// Tests for the sync executor and its OnlineFreshenLoop integration:
// determinism, failure semantics, breaker behavior, the admission bound, and
// the PerfectSource bit-for-bit parity guarantee. Runs under TSan via the
// `tsan` ctest label.
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "mirror/online_loop.h"
#include "obs/metrics.h"
#include "sync/executor.h"
#include "sync/source.h"
#include "workload/generator.h"

namespace freshen {
namespace sync {
namespace {

std::vector<SyncTask> MakeTasks(size_t count, double start = 0.0,
                                double spacing = 0.01) {
  std::vector<SyncTask> tasks;
  tasks.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    tasks.push_back({i % 8, start + spacing * static_cast<double>(i), 1.0});
  }
  return tasks;
}

TEST(SyncExecutorTest, ValidatesOptions) {
  PerfectSource source;
  EXPECT_FALSE(SyncExecutor::Create(nullptr, {}).ok());
  SyncExecutor::Options options;
  options.queue_capacity = 0;
  EXPECT_FALSE(SyncExecutor::Create(&source, options).ok());
  options = {};
  options.retry.max_attempts = 0;
  EXPECT_FALSE(SyncExecutor::Create(&source, options).ok());
  options = {};
  options.breaker.failure_threshold = 0;
  EXPECT_FALSE(SyncExecutor::Create(&source, options).ok());
}

TEST(SyncExecutorTest, PerfectSourceAppliesEverythingAtScheduledTime) {
  obs::MetricsRegistry registry;
  PerfectSource source;
  SyncExecutor::Options options;
  options.registry = &registry;
  auto executor = SyncExecutor::Create(&source, options).value();
  const std::vector<SyncTask> tasks = MakeTasks(100);
  const std::vector<SyncOutcome> outcomes = executor->Execute(tasks);
  ASSERT_EQ(outcomes.size(), tasks.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].kind, SyncOutcomeKind::kApplied);
    EXPECT_EQ(outcomes[i].attempts, 1u);
    EXPECT_DOUBLE_EQ(outcomes[i].apply_time, outcomes[i].scheduled_time);
    EXPECT_EQ(outcomes[i].wasted_bandwidth, 0.0);
  }
  EXPECT_EQ(executor->last_stats().applied, 100u);
  EXPECT_EQ(executor->last_stats().failed, 0u);
  EXPECT_EQ(executor->breaker().state(), BreakerState::kClosed);
  EXPECT_DOUBLE_EQ(
      registry.Snapshot().Find("freshen_sync_applied_total")->value, 100.0);
}

TEST(SyncExecutorTest, OutcomesAreSortedByScheduledTime) {
  obs::MetricsRegistry registry;
  PerfectSource source;
  SyncExecutor::Options options;
  options.registry = &registry;
  auto executor = SyncExecutor::Create(&source, options).value();
  std::vector<SyncTask> tasks = {{0, 0.9, 1.0}, {1, 0.1, 1.0}, {2, 0.5, 1.0}};
  const std::vector<SyncOutcome> outcomes = executor->Execute(tasks);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(outcomes[0].element, 1u);
  EXPECT_EQ(outcomes[1].element, 2u);
  EXPECT_EQ(outcomes[2].element, 0u);
}

TEST(SyncExecutorTest, DeterministicAcrossRuns) {
  SimulatedSource::Options source_options;
  source_options.error_rate = 0.3;
  source_options.stall_rate = 0.05;
  source_options.seed = 11;
  const auto run = [&source_options]() {
    obs::MetricsRegistry registry;
    SimulatedSource source = SimulatedSource::Create(source_options).value();
    SyncExecutor::Options options;
    options.registry = &registry;
    auto executor = SyncExecutor::Create(&source, options).value();
    std::vector<SyncOutcome> all;
    for (int batch = 0; batch < 3; ++batch) {
      const std::vector<SyncOutcome> outcomes =
          executor->Execute(MakeTasks(80, static_cast<double>(batch)));
      all.insert(all.end(), outcomes.begin(), outcomes.end());
    }
    return all;
  };
  const std::vector<SyncOutcome> a = run();
  const std::vector<SyncOutcome> b = run();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].element, b[i].element);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].attempts, b[i].attempts);
    EXPECT_DOUBLE_EQ(a[i].apply_time, b[i].apply_time);
    EXPECT_DOUBLE_EQ(a[i].wasted_bandwidth, b[i].wasted_bandwidth);
  }
}

TEST(SyncExecutorTest, DeadSourceTripsTheBreakerAndStopsBurningBandwidth) {
  obs::MetricsRegistry registry;
  SimulatedSource::Options source_options;
  source_options.error_rate = 1.0;
  SimulatedSource source = SimulatedSource::Create(source_options).value();
  SyncExecutor::Options options;
  options.registry = &registry;
  options.retry.max_attempts = 2;
  options.breaker.failure_threshold = 3;
  options.breaker.open_duration_seconds = 100.0;  // Stays open all batch.
  auto executor = SyncExecutor::Create(&source, options).value();
  const std::vector<SyncOutcome> outcomes = executor->Execute(MakeTasks(50));
  EXPECT_EQ(executor->breaker().state(), BreakerState::kOpen);
  EXPECT_GE(executor->breaker().open_transitions(), 1u);
  const ExecuteStats& stats = executor->last_stats();
  EXPECT_EQ(stats.applied, 0u);
  EXPECT_GT(stats.failed, 0u);
  // Most of the batch must have been refused locally instead of burning
  // bandwidth on a dead source.
  EXPECT_GT(stats.breaker_open, 30u);
  EXPECT_EQ(stats.failed + stats.breaker_open, 50u);
  // Wasted bandwidth only for tasks that actually attempted.
  EXPECT_DOUBLE_EQ(stats.wasted_bandwidth,
                   static_cast<double>(stats.attempts));
  const obs::RegistrySnapshot snapshot = registry.Snapshot();
  EXPECT_GT(snapshot.Find("freshen_sync_breaker_skipped_total")->value, 0.0);
  EXPECT_GT(snapshot.Find("freshen_sync_breaker_opens_total")->value, 0.0);
  EXPECT_GT(snapshot.Find("freshen_sync_wasted_bandwidth_total")->value, 0.0);
}

TEST(SyncExecutorTest, BreakerHalfOpensAndRecoversAcrossBatches) {
  SimulatedSource::Options source_options;
  source_options.error_rate = 1.0;
  SimulatedSource source = SimulatedSource::Create(source_options).value();
  SyncExecutor::Options options;
  options.retry.max_attempts = 1;
  options.breaker.failure_threshold = 2;
  options.breaker.open_duration_seconds = 0.5;
  obs::MetricsRegistry registry;
  options.registry = &registry;
  auto executor = SyncExecutor::Create(&source, options).value();
  executor->Execute(MakeTasks(20, /*start=*/0.0));
  ASSERT_EQ(executor->breaker().state(), BreakerState::kOpen);
  // Fault clears; the next batch (later times) probes and re-closes.
  source.SetFaultsEnabled(false);
  const std::vector<SyncOutcome> recovered =
      executor->Execute(MakeTasks(20, /*start=*/5.0));
  EXPECT_EQ(executor->breaker().state(), BreakerState::kClosed);
  EXPECT_GT(executor->last_stats().applied, 15u);
  (void)recovered;
}

TEST(SyncExecutorTest, QueueOverflowDropsFailFast) {
  // A burst far larger than the admission bound: the first 100 tasks in
  // scheduled order run, every later one drops, the same way every run.
  const auto run = [] {
    obs::MetricsRegistry registry;
    PerfectSource source;
    SyncExecutor::Options options;
    options.registry = &registry;
    options.queue_capacity = 100;
    auto executor = SyncExecutor::Create(&source, options).value();
    const std::vector<SyncOutcome> outcomes =
        executor->Execute(MakeTasks(5000));
    const ExecuteStats& stats = executor->last_stats();
    EXPECT_EQ(stats.applied, 100u);
    EXPECT_EQ(stats.dropped, 4900u);
    EXPECT_DOUBLE_EQ(
        registry.Snapshot().Find("freshen_sync_dropped_total")->value,
        4900.0);
    return outcomes;
  };
  const std::vector<SyncOutcome> outcomes = run();
  ASSERT_EQ(outcomes.size(), 5000u);
  for (size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].kind, i < 100 ? SyncOutcomeKind::kApplied
                                        : SyncOutcomeKind::kDropped)
        << "task " << i;
  }
  const std::vector<SyncOutcome> again = run();
  ASSERT_EQ(again.size(), outcomes.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(again[i].element, outcomes[i].element);
    EXPECT_EQ(again[i].kind, outcomes[i].kind);
    EXPECT_EQ(again[i].attempts, outcomes[i].attempts);
  }
}

TEST(SyncExecutorTest, TimeoutsCutOffStalledFetches) {
  obs::MetricsRegistry registry;
  SimulatedSource::Options source_options;
  source_options.stall_rate = 1.0;
  source_options.stall_latency_seconds = 60.0;
  SimulatedSource source = SimulatedSource::Create(source_options).value();
  SyncExecutor::Options options;
  options.registry = &registry;
  options.retry.max_attempts = 2;
  options.retry.attempt_timeout_seconds = 0.5;
  options.breaker.failure_threshold = 1000;  // Keep the breaker out of it.
  auto executor = SyncExecutor::Create(&source, options).value();
  const std::vector<SyncOutcome> outcomes = executor->Execute(MakeTasks(10));
  for (const SyncOutcome& outcome : outcomes) {
    EXPECT_EQ(outcome.kind, SyncOutcomeKind::kFailed);
    EXPECT_EQ(outcome.attempts, 2u);
  }
  // Every recorded latency is capped at the attempt timeout.
  const obs::RegistrySnapshot snapshot = registry.Snapshot();
  const obs::MetricSample* latency = snapshot.Find(
      "freshen_sync_fetch_latency_seconds", {{"source", "simulated"}});
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, 20u);
  EXPECT_DOUBLE_EQ(latency->sum, 20u * 0.5);
}

// --- OnlineFreshenLoop integration ---------------------------------------

ElementSet TestCatalog(size_t objects = 60, uint64_t seed = 20030305) {
  ExperimentSpec spec;
  spec.num_objects = objects;
  spec.theta = 1.0;
  spec.seed = seed;
  return GenerateCatalog(spec).value();
}

struct LoopRun {
  std::vector<PeriodStats> periods;
};

// Runs `periods` loop periods with an optional executor, all state isolated
// in a private registry.
LoopRun RunLoop(const ElementSet& truth, SyncExecutor* executor, int periods,
                obs::MetricsRegistry* registry) {
  OnlineFreshenLoop::Options options;
  options.accesses_per_period = 500.0;
  options.seed = 41;
  options.registry = registry;
  options.executor = executor;
  auto loop =
      OnlineFreshenLoop::Create(truth, /*bandwidth=*/30.0, options).value();
  LoopRun run;
  for (int period = 0; period < periods; ++period) {
    run.periods.push_back(loop.RunPeriod());
  }
  return run;
}

TEST(OnlineLoopSyncTest, PerfectExecutorMatchesInlinePathBitForBit) {
  const ElementSet truth = TestCatalog();
  obs::MetricsRegistry inline_registry;
  const LoopRun inline_run = RunLoop(truth, nullptr, 8, &inline_registry);

  PerfectSource source;
  obs::MetricsRegistry executor_registry;
  SyncExecutor::Options executor_options;
  executor_options.registry = &executor_registry;
  auto executor = SyncExecutor::Create(&source, executor_options).value();
  const LoopRun executor_run =
      RunLoop(truth, executor.get(), 8, &executor_registry);

  ASSERT_EQ(inline_run.periods.size(), executor_run.periods.size());
  for (size_t p = 0; p < inline_run.periods.size(); ++p) {
    const PeriodStats& a = inline_run.periods[p];
    const PeriodStats& b = executor_run.periods[p];
    EXPECT_EQ(a.accesses, b.accesses) << "period " << p;
    EXPECT_EQ(a.syncs, b.syncs) << "period " << p;
    EXPECT_DOUBLE_EQ(a.bandwidth_spent, b.bandwidth_spent) << "period " << p;
    EXPECT_DOUBLE_EQ(a.perceived_freshness, b.perceived_freshness)
        << "period " << p;
    EXPECT_DOUBLE_EQ(a.mean_access_age, b.mean_access_age) << "period " << p;
    EXPECT_EQ(a.replanned, b.replanned) << "period " << p;
    EXPECT_EQ(b.failed_syncs, 0u);
    EXPECT_EQ(b.wasted_bandwidth, 0.0);
  }
}

TEST(OnlineLoopSyncTest, InjectedFaultsDegradeFreshnessAndRecover) {
  const ElementSet truth = TestCatalog();
  const int periods = 10;

  obs::MetricsRegistry perfect_registry;
  const LoopRun perfect_run = RunLoop(truth, nullptr, periods,
                                      &perfect_registry);

  SimulatedSource::Options source_options;
  source_options.error_rate = 0.3;
  source_options.seed = 5;
  SimulatedSource source = SimulatedSource::Create(source_options).value();
  SyncExecutor::Options executor_options;
  obs::MetricsRegistry faulted_registry;
  executor_options.registry = &faulted_registry;
  executor_options.retry.max_attempts = 2;  // Leave failures visible.
  auto executor = SyncExecutor::Create(&source, executor_options).value();

  OnlineFreshenLoop::Options loop_options;
  loop_options.accesses_per_period = 500.0;
  loop_options.seed = 41;
  loop_options.registry = &faulted_registry;
  loop_options.executor = executor.get();
  auto loop =
      OnlineFreshenLoop::Create(truth, /*bandwidth=*/30.0, loop_options)
          .value();

  double perfect_mean = 0.0;
  double faulted_mean = 0.0;
  uint64_t failed = 0;
  double wasted = 0.0;
  for (int period = 0; period < periods; ++period) {
    const PeriodStats stats = loop.RunPeriod();
    perfect_mean += perfect_run.periods[period].perceived_freshness;
    faulted_mean += stats.perceived_freshness;
    failed += stats.failed_syncs;
    wasted += stats.wasted_bandwidth;
  }
  // 30% failures => strictly lower perceived freshness on the same
  // seed/plan, visible failed syncs, and visible wasted bandwidth.
  EXPECT_LT(faulted_mean, perfect_mean);
  EXPECT_GT(failed, 0u);
  EXPECT_GT(wasted, 0.0);

  // Faults clear: the loop recovers within a few periods.
  source.SetFaultsEnabled(false);
  double last_faulted = 0.0;
  for (int period = 0; period < 4; ++period) {
    last_faulted = loop.RunPeriod().perceived_freshness;
  }
  // Steady-state perfect freshness on this workload (averaged for a stable
  // reference band).
  const double perfect_reference = perfect_mean / periods;
  EXPECT_GT(last_faulted, perfect_reference - 0.1);
}

TEST(OnlineLoopSyncTest, BreakerSkipsShowUpInPeriodStats) {
  const ElementSet truth = TestCatalog();
  SimulatedSource::Options source_options;
  source_options.error_rate = 1.0;
  SimulatedSource source = SimulatedSource::Create(source_options).value();
  obs::MetricsRegistry registry;
  SyncExecutor::Options executor_options;
  executor_options.registry = &registry;
  executor_options.retry.max_attempts = 1;
  executor_options.breaker.failure_threshold = 3;
  executor_options.breaker.open_duration_seconds = 10.0;  // > one period.
  auto executor = SyncExecutor::Create(&source, executor_options).value();
  const LoopRun run = RunLoop(truth, executor.get(), 3, &registry);
  uint64_t skipped = 0;
  uint64_t applied = 0;
  for (const PeriodStats& stats : run.periods) {
    skipped += stats.breaker_skipped_syncs;
    applied += stats.syncs;
  }
  EXPECT_GT(skipped, 0u);
  EXPECT_EQ(applied, 0u);  // Nothing ever succeeds against a dead source.
}

}  // namespace
}  // namespace sync
}  // namespace freshen
