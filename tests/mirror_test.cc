// Tests for the versioned source/mirror state machines and the online
// closed-loop runtime.
#include <malloc.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "io/catalog_binary.h"
#include "mirror/mirror_state.h"
#include "mirror/online_loop.h"
#include "model/freshness.h"
#include "model/metrics.h"
#include "obs/drift.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/timeline.h"
#include "rng/distributions.h"
#include "rng/rng.h"
#include "schedule/schedule.h"
#include "stats/descriptive.h"
#include "sync/executor.h"
#include "sync/source.h"
#include "workload/generator.h"

namespace freshen {
namespace {

// Updates of `element` in (0, t], read one at a time.
std::vector<double> UpdatesUpTo(VersionedSource& source, size_t element,
                                double t) {
  std::vector<double> times;
  for (double u = source.NextUpdate(element); u <= t;
       u = source.AdvancePast(element, u)) {
    times.push_back(u);
  }
  return times;
}

TEST(VersionedSourceTest, VersionsAdvanceWithTime) {
  auto source = VersionedSource::Create({5.0, 0.0}, 1).value();
  const size_t updates = UpdatesUpTo(source, 0, 10.0).size();
  EXPECT_GT(updates, 20u);  // ~50 expected.
  EXPECT_LT(updates, 100u);
  // Rate 0 never changes.
  EXPECT_TRUE(std::isinf(source.NextUpdate(1)));
  EXPECT_TRUE(std::isinf(source.AdvancePast(1, 10.0)));
}

TEST(VersionedSourceTest, UpdateCountMatchesPoissonMean) {
  auto source = VersionedSource::Create(std::vector<double>(200, 2.0), 2)
                    .value();
  size_t total = 0;
  for (size_t i = 0; i < source.size(); ++i) {
    total += UpdatesUpTo(source, i, 50.0).size();
  }
  // 200 elements * rate 2 * 50 periods = 20,000 expected updates.
  EXPECT_NEAR(static_cast<double>(total), 20000.0, 600.0);
}

TEST(VersionedSourceTest, AdvancePastReturnsTheNextUpdate) {
  auto source = VersionedSource::Create({1.0}, 3).value();
  const double first = source.NextUpdate(0);
  EXPECT_GT(first, 0.0);
  EXPECT_LT(first, 100.0);
  // Advancing to before the first update keeps it pending.
  EXPECT_EQ(source.AdvancePast(0, first / 2.0), first);
  // The next one after `first` is strictly later.
  const double second = source.AdvancePast(0, first);
  EXPECT_GT(second, first);
  EXPECT_EQ(source.NextUpdate(0), second);
  // Past any horizon there is always a later update.
  EXPECT_GT(source.AdvancePast(0, 100.0), 100.0);
}

TEST(VersionedSourceTest, DeterministicInSeed) {
  auto a = VersionedSource::Create({3.0, 1.0}, 7).value();
  auto b = VersionedSource::Create({3.0, 1.0}, 7).value();
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(UpdatesUpTo(a, i, 20.0), UpdatesUpTo(b, i, 20.0));
  }
}

TEST(VersionedSourceTest, RejectsInvalidRates) {
  EXPECT_FALSE(VersionedSource::Create({}, 1).ok());
  EXPECT_FALSE(VersionedSource::Create({-1.0}, 1).ok());
}

// The source builds an element's stream only when a second draw is due.
// Reference: the eager layout, one root.Fork() per element in id order and
// one exponential per element of positive rate, then one per update passed.
// Elements are touched in a shuffled order, at times that grow per element;
// rate-0 elements and never-touched ones are in the mix.
TEST(VersionedSourceTest, LazyStreamsMatchEagerForksBitForBit) {
  constexpr size_t kElements = 400;
  constexpr uint64_t kSeed = 0x5eed;
  Rng setup(91);
  std::vector<double> rates(kElements);
  for (size_t i = 0; i < kElements; ++i) {
    rates[i] = i % 7 == 0 ? 0.0 : SampleExponential(setup, 0.5);
  }
  Rng root(kSeed);
  std::vector<Rng> streams;
  std::vector<double> next(kElements, std::numeric_limits<double>::infinity());
  for (size_t i = 0; i < kElements; ++i) {
    streams.push_back(root.Fork());
    if (rates[i] > 0.0) next[i] = SampleExponential(streams[i], rates[i]);
  }
  auto source = VersionedSource::Create(rates, kSeed).value();
  for (size_t i = 0; i < kElements; ++i) {
    ASSERT_EQ(std::bit_cast<uint64_t>(source.NextUpdate(i)),
              std::bit_cast<uint64_t>(next[i]))
        << "element " << i;
  }

  // Touches: every fifth element never; the rest 1-6 times each.
  std::vector<size_t> touches;
  for (size_t i = 0; i < kElements; ++i) {
    if (i % 5 == 3) continue;
    const uint64_t count = 1 + setup.NextUint64Below(6);
    for (uint64_t k = 0; k < count; ++k) touches.push_back(i);
  }
  for (size_t k = touches.size(); k > 1; --k) {
    std::swap(touches[k - 1], touches[setup.NextUint64Below(k)]);
  }
  std::vector<double> now(kElements, 0.0);
  for (const size_t i : touches) {
    now[i] += SampleExponential(setup, 0.3);
    while (next[i] <= now[i]) {
      next[i] += SampleExponential(streams[i], rates[i]);
    }
    ASSERT_EQ(std::bit_cast<uint64_t>(source.AdvancePast(i, now[i])),
              std::bit_cast<uint64_t>(next[i]))
        << "element " << i << " at " << now[i];
  }
  for (size_t i = 0; i < kElements; ++i) {
    ASSERT_EQ(std::bit_cast<uint64_t>(source.NextUpdate(i)),
              std::bit_cast<uint64_t>(next[i]))
        << "element " << i;
  }
}

TEST(MirrorStateTest, SyncDetectsChanges) {
  auto source = VersionedSource::Create({10.0, 0.0}, 4).value();
  MirrorState mirror(source);
  EXPECT_FALSE(mirror.IsFresh(0, 1.0));  // ~10 updates happened.
  EXPECT_TRUE(mirror.IsFresh(1, 1.0));   // Never changes.
  EXPECT_TRUE(mirror.Sync(0, 1.0, source));   // Pulls a changed copy.
  EXPECT_FALSE(mirror.Sync(1, 1.0, source));  // Nothing new.
  EXPECT_TRUE(mirror.IsFresh(0, 1.0));
  EXPECT_DOUBLE_EQ(mirror.LastSyncTime(0), 1.0);
}

TEST(MirrorStateTest, SyncAtTimeZeroCountsAsSynced) {
  auto source = VersionedSource::Create({1.0, 1.0}, 4).value();
  MirrorState mirror(source);
  EXPECT_FALSE(mirror.Synced(0));
  EXPECT_FALSE(mirror.Sync(0, 0.0, source));
  EXPECT_TRUE(mirror.Synced(0));
  EXPECT_DOUBLE_EQ(mirror.LastSyncTime(0), 0.0);
  EXPECT_FALSE(mirror.Synced(1));
}

TEST(MirrorStateTest, AgeTracksFirstMissedUpdate) {
  auto source = VersionedSource::Create({1.0}, 5).value();
  MirrorState mirror(source);
  const double first = source.NextUpdate(0);
  // Never synced: stale since the first update.
  EXPECT_NEAR(mirror.Age(0, 100.0), 100.0 - first, 1e-12);
  // After syncing at t=100, fresh: age 0.
  mirror.Sync(0, 100.0, source);
  EXPECT_DOUBLE_EQ(mirror.Age(0, 100.0), 0.0);
}

TEST(MirrorStateTest, FreshnessFractionMatchesClosedForm) {
  // Regularly sync one element and measure the fraction of probe instants
  // it is fresh — must match F(f, lambda).
  const double lambda = 2.0;
  const double f = 2.0;
  auto source = VersionedSource::Create({lambda}, 6).value();
  MirrorState mirror(source);
  int fresh = 0;
  int probes = 0;
  const double interval = 1.0 / f;
  for (int k = 1; k < 4000; ++k) {
    const double sync_time = k * interval;
    // Probe halfway through each interval as an unbiased-ish sample grid.
    for (int p = 1; p <= 8; ++p) {
      const double probe = sync_time - interval + p * interval / 9.0;
      ++probes;
      if (mirror.IsFresh(0, probe)) ++fresh;
    }
    mirror.Sync(0, sync_time, source);
  }
  EXPECT_NEAR(static_cast<double>(fresh) / probes,
              FixedOrderFreshness(f, lambda), 0.02);
}

// Reference oracle: the full-history source and version-counter mirror. It
// keeps every update time of every element, advances the whole source to
// each query time, and answers from version counts and a history search.
class FullHistoryMirror {
 public:
  FullHistoryMirror(std::vector<double> rates, uint64_t seed)
      : rates_(std::move(rates)),
        update_times_(rates_.size()),
        next_update_(rates_.size(), std::numeric_limits<double>::infinity()),
        local_version_(rates_.size(), 0),
        last_sync_time_(rates_.size(), 0.0) {
    Rng root(seed);
    for (size_t i = 0; i < rates_.size(); ++i) {
      streams_.push_back(root.Fork());
      if (rates_[i] > 0.0) {
        next_update_[i] = SampleExponential(streams_[i], rates_[i]);
      }
    }
  }

  bool Sync(size_t i, double t) {
    AdvanceTo(t);
    const bool changed = update_times_[i].size() != local_version_[i];
    local_version_[i] = update_times_[i].size();
    last_sync_time_[i] = t;
    return changed;
  }

  bool IsFresh(size_t i, double t) {
    AdvanceTo(t);
    return local_version_[i] == update_times_[i].size();
  }

  double Age(size_t i, double t) {
    if (IsFresh(i, t)) return 0.0;
    const std::vector<double>& times = update_times_[i];
    return t - *std::upper_bound(times.begin(), times.end(),
                                 last_sync_time_[i]);
  }

 private:
  void AdvanceTo(double t) {
    for (size_t i = 0; i < rates_.size(); ++i) {
      while (next_update_[i] <= t) {
        update_times_[i].push_back(next_update_[i]);
        next_update_[i] += SampleExponential(streams_[i], rates_[i]);
      }
    }
  }

  std::vector<double> rates_;
  std::vector<std::vector<double>> update_times_;
  std::vector<double> next_update_;
  std::vector<Rng> streams_;
  std::vector<size_t> local_version_;
  std::vector<double> last_sync_time_;
};

TEST(MirrorStateTest, MatchesFullHistoryOracleBitForBit) {
  // Rate-0 elements (0, 5), one so slow that consecutive syncs see no
  // update in between (1), and two elements that are only ever accessed,
  // never synced (6, 7).
  const std::vector<double> rates = {0.0, 1e-3, 0.5, 2.0, 8.0, 0.0, 3.0, 30.0};
  const size_t synced_elements = 6;
  uint64_t changed_syncs = 0;
  uint64_t unchanged_syncs = 0;
  uint64_t stale_reads = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    auto source = VersionedSource::Create(rates, seed).value();
    MirrorState mirror(source);
    FullHistoryMirror oracle(rates, seed);
    Rng ops(seed * 7919);
    double t = 0.0;
    for (int step = 0; step < 2000; ++step) {
      // Half the steps reuse the current instant, so syncs and accesses of
      // one element often land at the same time, in either order.
      if (ops.NextBool(0.5)) t += SampleExponential(ops, 4.0);
      const size_t i = ops.NextUint64Below(rates.size());
      if (i < synced_elements && ops.NextBool(0.4)) {
        const bool changed = mirror.Sync(i, t, source);
        ASSERT_EQ(changed, oracle.Sync(i, t)) << "seed " << seed;
        ++(changed ? changed_syncs : unchanged_syncs);
        EXPECT_EQ(mirror.LastSyncTime(i), t);
      } else {
        const bool fresh = mirror.IsFresh(i, t);
        ASSERT_EQ(fresh, oracle.IsFresh(i, t)) << "seed " << seed;
        ASSERT_EQ(mirror.Age(i, t), oracle.Age(i, t)) << "seed " << seed;
        if (!fresh) ++stale_reads;
      }
    }
  }
  EXPECT_GT(changed_syncs, 100u);
  EXPECT_GT(unchanged_syncs, 100u);
  EXPECT_GT(stale_reads, 100u);
}

OnlineFreshenLoop::Options LoopOptions() {
  OnlineFreshenLoop::Options options;
  options.accesses_per_period = 2000.0;
  options.controller.replan_every_periods = 1.0;
  options.controller.prior_change_rate = 2.0;
  options.seed = 99;
  return options;
}

TEST(OnlineLoopTest, RunsAndReportsSaneStats) {
  ExperimentSpec spec = ExperimentSpec::IdealCase();
  spec.num_objects = 50;
  spec.syncs_per_period = 25.0;
  const ElementSet truth = GenerateCatalog(spec).value();
  auto loop = OnlineFreshenLoop::Create(truth, 25.0, LoopOptions()).value();
  const PeriodStats stats = loop.RunPeriod();
  EXPECT_GT(stats.accesses, 1500u);
  EXPECT_GT(stats.syncs, 10u);
  EXPECT_GT(stats.perceived_freshness, 0.0);
  EXPECT_LE(stats.perceived_freshness, 1.0);
  EXPECT_GT(stats.bandwidth_spent, 0.0);
  EXPECT_TRUE(stats.replanned);
  EXPECT_DOUBLE_EQ(loop.Now(), 1.0);
}

TEST(OnlineLoopTest, FreshnessImprovesAsControllerLearns) {
  // Compare the *plans* (analytic PF on the ground truth) rather than the
  // in-loop empirical freshness, whose early periods are inflated by the
  // mirror starting fully fresh.
  ExperimentSpec spec = ExperimentSpec::IdealCase();
  spec.num_objects = 100;
  spec.syncs_per_period = 50.0;
  spec.theta = 1.2;
  spec.alignment = Alignment::kShuffled;
  const ElementSet truth = GenerateCatalog(spec).value();
  auto loop = OnlineFreshenLoop::Create(truth, 50.0, LoopOptions()).value();

  const double cold_plan_pf =
      PerceivedFreshness(truth, loop.controller().frequencies());
  double late_empirical = 0.0;
  for (int period = 0; period < 30; ++period) {
    const PeriodStats stats = loop.RunPeriod();
    if (period >= 25) late_empirical += stats.perceived_freshness / 5.0;
  }
  const double warm_plan_pf =
      PerceivedFreshness(truth, loop.controller().frequencies());
  EXPECT_GT(warm_plan_pf, cold_plan_pf + 0.05);
  // The running mirror actually delivers the learned plan quality.
  EXPECT_GT(late_empirical, cold_plan_pf);
}

TEST(OnlineLoopTest, TracksProfileDriftWithDecay) {
  // Interest flips to the reversed ranking mid-run; a decaying learner
  // recovers, measured against the periods right after the flip.
  ExperimentSpec spec = ExperimentSpec::IdealCase();
  spec.num_objects = 80;
  spec.syncs_per_period = 40.0;
  spec.theta = 1.3;
  const ElementSet truth = GenerateCatalog(spec).value();

  OnlineFreshenLoop::Options options = LoopOptions();
  options.controller.learner.decay = 0.5;
  auto loop = OnlineFreshenLoop::Create(truth, 40.0, options).value();
  for (int period = 0; period < 15; ++period) loop.RunPeriod();

  // Flip: the coldest elements become the hottest.
  std::vector<double> flipped(truth.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    flipped[i] = truth[truth.size() - 1 - i].access_prob;
  }
  ASSERT_TRUE(loop.SetTrueProfile(flipped).ok());

  double just_after = 0.0;
  double recovered = 0.0;
  for (int period = 0; period < 25; ++period) {
    const PeriodStats stats = loop.RunPeriod();
    if (period < 3) just_after += stats.perceived_freshness / 3.0;
    if (period >= 20) recovered += stats.perceived_freshness / 5.0;
  }
  EXPECT_GT(recovered, just_after);
}

TEST(OnlineLoopTest, StatsAgreeWithRegistryCountersToTheLastSync) {
  // The loop adds each period's PeriodStats to its registry counters;
  // accumulated over a run, the two accountings must agree exactly —
  // bandwidth to the last synced byte, events to the last sync.
  ExperimentSpec spec = ExperimentSpec::IdealCase();
  spec.num_objects = 70;
  spec.syncs_per_period = 35.0;
  spec.size_model = SizeModel::kPareto;  // Sizes vary: bandwidth != #syncs.
  const ElementSet truth = GenerateCatalog(spec).value();

  obs::MetricsRegistry registry;
  OnlineFreshenLoop::Options options = LoopOptions();
  options.registry = &registry;
  auto loop = OnlineFreshenLoop::Create(truth, 35.0, options).value();

  double bandwidth_from_stats = 0.0;
  uint64_t syncs_from_stats = 0;
  uint64_t accesses_from_stats = 0;
  for (int period = 0; period < 5; ++period) {
    const PeriodStats stats = loop.RunPeriod();
    bandwidth_from_stats += stats.bandwidth_spent;
    syncs_from_stats += stats.syncs;
    accesses_from_stats += stats.accesses;
  }

  const obs::RegistrySnapshot snapshot = loop.registry().Snapshot();
  const obs::MetricSample* bandwidth =
      snapshot.Find("freshen_mirror_bandwidth_spent_total");
  ASSERT_NE(bandwidth, nullptr);
  EXPECT_DOUBLE_EQ(bandwidth->value, bandwidth_from_stats);
  EXPECT_GT(bandwidth->value, 0.0);

  const obs::MetricSample* syncs =
      snapshot.Find("freshen_mirror_syncs_total");
  ASSERT_NE(syncs, nullptr);
  EXPECT_DOUBLE_EQ(syncs->value, static_cast<double>(syncs_from_stats));

  const obs::MetricSample* accesses =
      snapshot.Find("freshen_mirror_accesses_total");
  ASSERT_NE(accesses, nullptr);
  EXPECT_DOUBLE_EQ(accesses->value,
                   static_cast<double>(accesses_from_stats));

  const obs::MetricSample* periods =
      snapshot.Find("freshen_mirror_periods_total");
  ASSERT_NE(periods, nullptr);
  EXPECT_DOUBLE_EQ(periods->value, 5.0);

  // An isolated registry means none of this leaked into the global one...
  // and the controller reported its replans into the same local registry.
  ASSERT_NE(snapshot.Find("freshen_adaptive_replans_total"), nullptr);
}

TEST(OnlineLoopTest, PeriodStatsHoldWithTheRegistryDisabled) {
  // A disabled registry drops every counter update. The loop counts its own
  // period, so PeriodStats and the SLO monitor's feed must match a twin
  // that reports into an enabled registry.
  ExperimentSpec spec = ExperimentSpec::IdealCase();
  spec.num_objects = 200;
  spec.syncs_per_period = 50.0;
  const ElementSet truth = GenerateCatalog(spec).value();
  OnlineFreshenLoop::Options options = LoopOptions();
  options.accesses_per_period = 500.0;

  obs::MetricsRegistry disabled_registry;
  disabled_registry.set_enabled(false);
  obs::SloMonitor::Options slo_options;
  slo_options.registry = &disabled_registry;
  auto slo = obs::SloMonitor::Create(slo_options).value();
  options.registry = &disabled_registry;
  options.slo = &slo;
  auto loop = OnlineFreshenLoop::Create(truth, 50.0, options).value();

  obs::MetricsRegistry enabled_registry;
  options.registry = &enabled_registry;
  options.slo = nullptr;
  auto twin = OnlineFreshenLoop::Create(truth, 50.0, options).value();

  uint64_t accesses = 0;
  for (int period = 0; period < 3; ++period) {
    const PeriodStats stats = loop.RunPeriod();
    const PeriodStats expected = twin.RunPeriod();
    EXPECT_GT(stats.accesses, 0u) << period;
    EXPECT_GT(stats.syncs, 0u) << period;
    EXPECT_EQ(stats.accesses, expected.accesses) << period;
    EXPECT_EQ(stats.syncs, expected.syncs) << period;
    EXPECT_EQ(stats.bandwidth_spent, expected.bandwidth_spent) << period;
    EXPECT_EQ(stats.perceived_freshness, expected.perceived_freshness)
        << period;
    accesses += stats.accesses;
  }
  EXPECT_EQ(slo.Report().total_accesses, accesses);
  EXPECT_EQ(
      disabled_registry.GetCounter("freshen_mirror_accesses_total")->value(),
      0.0);
}

TEST(OnlineLoopTest, RejectsInvalidInput) {
  EXPECT_FALSE(OnlineFreshenLoop::Create({}, 1.0, LoopOptions()).ok());
  const ElementSet truth = MakeElementSet({1.0}, {1.0});
  OnlineFreshenLoop::Options infinite_rate = LoopOptions();
  infinite_rate.accesses_per_period =
      std::numeric_limits<double>::infinity();
  EXPECT_EQ(OnlineFreshenLoop::Create(truth, 1.0, infinite_rate)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  auto loop = OnlineFreshenLoop::Create(truth, 1.0, LoopOptions()).value();
  EXPECT_FALSE(loop.SetTrueProfile({1.0, 2.0}).ok());
  EXPECT_FALSE(loop.SetTrueProfile({0.0}).ok());
}

TEST(OnlineLoopTest, SyncAtTimeZeroKeepsItsPhase) {
  // Element 0's phase offset is 0, so on the inline path its first sync
  // lands at exactly t=0. That is a sync like any other: with f < 1 the next
  // one is due 1/f later, not at the next period start.
  ExperimentSpec spec;
  spec.num_objects = 10;
  const ElementSet truth = GenerateCatalog(spec).value();
  OnlineFreshenLoop::Options options = LoopOptions();
  options.controller.replan_every_periods = 1000.0;  // Keep the cold plan.
  std::vector<double> sync_times;
  const OnlineFreshenLoop* observed = nullptr;
  options.on_period_end = [&](const PeriodStats&,
                              const std::vector<uint32_t>& synced) {
    if (std::find(synced.begin(), synced.end(), 0u) != synced.end()) {
      sync_times.push_back(observed->mirror().LastSyncTime(0));
    }
  };
  auto loop = OnlineFreshenLoop::Create(truth, 5.0, options).value();
  observed = &loop;
  const double f = loop.controller().frequencies()[0];
  ASSERT_GT(f, 0.0);
  ASSERT_LT(f, 1.0);

  for (int period = 0; period < 6; ++period) loop.RunPeriod();
  const double interval = 1.0 / f;
  std::vector<double> expected;
  for (double t = 0.0; t < 6.0; t += interval) expected.push_back(t);
  EXPECT_EQ(sync_times, expected);
}

TEST(OnlineLoopTest, FirstSyncCarriesNoControllerEvidence) {
  // The loop computes each sync's gap from the mirror. A first sync has no
  // previous sync, so the controller gets no evidence from it and keeps its
  // prior; the drift detector counts the window from t=0 and scores it.
  ExperimentSpec spec;
  spec.num_objects = 10;
  const ElementSet truth = GenerateCatalog(spec).value();
  obs::MetricsRegistry registry;
  obs::DriftDetector drift =
      obs::DriftDetector::Create({.num_elements = truth.size(),
                                  .min_evidence = 1.0,
                                  .top_k = truth.size(),
                                  .registry = &registry})
          .value();
  OnlineFreshenLoop::Options options = LoopOptions();
  options.controller.replan_every_periods = 1000.0;  // Keep the cold plan.
  options.registry = &registry;
  options.drift = &drift;
  std::vector<int> syncs(truth.size(), 0);
  options.on_period_end = [&](const PeriodStats&,
                              const std::vector<uint32_t>& synced) {
    for (uint32_t i : synced) ++syncs[i];
  };
  auto loop = OnlineFreshenLoop::Create(truth, 10.0, options).value();
  // The cold plan syncs every element once a period, phased at i/N.
  for (double f : loop.controller().frequencies()) ASSERT_EQ(f, 1.0);
  loop.RunPeriod();

  // A first sync at t=0 watched nothing, so only later ones are scored.
  std::vector<size_t> expected_scored;
  for (size_t i = 0; i < truth.size(); ++i) {
    ASSERT_EQ(syncs[i], 1) << i;
    EXPECT_EQ(loop.controller().BelievedChangeRate(i), 2.0) << i;
    if (loop.mirror().LastSyncTime(i) > 0.0) expected_scored.push_back(i);
  }
  EXPECT_EQ(expected_scored.size(), truth.size() - 1);
  std::vector<size_t> scored;
  for (const obs::DriftOffender& offender : drift.Report().top) {
    scored.push_back(offender.element);
  }
  std::sort(scored.begin(), scored.end());
  EXPECT_EQ(scored, expected_scored);
}

// A zero-latency origin that logs every fetch attempt as (element, scheduled
// time). The scheduled time is the loop's sync time, bit for bit, and the
// executor fetches in scheduled order, so the log is sorted by (time,
// element). Fetches of `failing_element` scheduled before `fail_until` fail;
// everything else succeeds, as from a sync::PerfectSource.
class RecordingSource final : public sync::Source {
 public:
  explicit RecordingSource(
      size_t failing_element = std::numeric_limits<size_t>::max(),
      double fail_until = 0.0)
      : failing_element_(failing_element), fail_until_(fail_until) {}

  sync::FetchResult Fetch(const sync::FetchRequest& request) override {
    fetches_.push_back({request.scheduled_seconds, request.element});
    if (request.element == failing_element_ &&
        request.scheduled_seconds < fail_until_) {
      return {Status::Unavailable("injected"), 0.0};
    }
    return {Status::OK(), 0.0};
  }
  const char* name() const override { return "recording"; }

  // Every attempt so far, in the order the executor made them.
  const std::vector<SyncEvent>& fetches() const { return fetches_; }

 private:
  const size_t failing_element_;
  const double fail_until_;
  std::vector<SyncEvent> fetches_;
};

// One "element@time" line per event, time as a %a hex float.
std::vector<std::string> EventLines(const std::vector<SyncEvent>& events) {
  std::vector<std::string> lines;
  for (const SyncEvent& event : events) {
    lines.push_back(StrFormat("%zu@%a", event.element, event.time));
  }
  return lines;
}

TEST(OnlineLoopTest, FixedPlanSyncTimesEqualTheFixedOrderSchedule) {
  // Under a plan that never changes, the loop runs the simulator's
  // Fixed-Order timeline (schedule.h): the same sync instants, bit for bit,
  // for f < 1 (the first sync lies periods ahead) and f > 1 (several syncs
  // a period). The loop hands every due sync to the executor, and a
  // zero-latency source applies it at its scheduled time.
  ExperimentSpec spec;
  spec.num_objects = 10;
  const ElementSet truth = GenerateCatalog(spec).value();
  const int periods = 40;
  for (const double bandwidth : {5.0, 1.0, 13.0}) {
    RecordingSource source;
    obs::MetricsRegistry registry;
    sync::SyncExecutor::Options executor_options;
    executor_options.registry = &registry;
    auto executor =
        sync::SyncExecutor::Create(&source, executor_options).value();
    OnlineFreshenLoop::Options options = LoopOptions();
    options.controller.replan_every_periods = 1000.0;  // Keep the cold plan.
    options.registry = &registry;
    options.executor = executor.get();
    auto loop = OnlineFreshenLoop::Create(truth, bandwidth, options).value();
    const std::vector<double> freqs = loop.controller().frequencies();
    ASSERT_DOUBLE_EQ(freqs[0], bandwidth / 10.0);
    for (int period = 0; period < periods; ++period) loop.RunPeriod();
    EXPECT_EQ(loop.controller().frequencies(), freqs);

    const SyncSchedule expected =
        SyncSchedule::FixedOrder(freqs, periods).value();
    ASSERT_GT(expected.size(), 0u);
    EXPECT_EQ(EventLines(source.fetches()),
              EventLines(expected.events()))
        << "B=" << bandwidth;
  }
}

// Spent over planned bandwidth of an inline loop over `periods` periods. The
// planned bandwidth of a period is that of the plan in force during it.
double SpendRatio(const ElementSet& truth, double bandwidth,
                  const OnlineFreshenLoop::Options& options, int periods) {
  auto loop = OnlineFreshenLoop::Create(truth, bandwidth, options).value();
  const std::vector<double> sizes = Sizes(truth);
  KahanSum planned;
  KahanSum spent;
  for (int period = 0; period < periods; ++period) {
    const std::vector<double>& freqs = loop.controller().frequencies();
    for (size_t i = 0; i < freqs.size(); ++i) planned.Add(freqs[i] * sizes[i]);
    spent.Add(loop.RunPeriod().bandwidth_spent);
  }
  return spent.Total() / planned.Total();
}

TEST(OnlineLoopTest, ColdPlanSpendsItsBudget) {
  // The cold plan gives every element f = B/N. With f < 1 an element's
  // first sync is due (i/N)/f after t = 0, so over 40 periods the loop
  // spends what the plan planned, whatever the element's id.
  struct Shape {
    size_t objects;
    double bandwidth;
  };
  for (const Shape shape : {Shape{10, 5.0}, Shape{1000, 100.0},
                            Shape{500000, 50.0}}) {
    ExperimentSpec spec;
    spec.num_objects = shape.objects;
    const ElementSet truth = GenerateCatalog(spec).value();
    obs::MetricsRegistry registry;
    OnlineFreshenLoop::Options options;
    options.accesses_per_period = 100.0;
    options.controller.replan_every_periods = 1000.0;  // Keep the cold plan.
    options.registry = &registry;
    const double ratio = SpendRatio(truth, shape.bandwidth, options, 40);
    EXPECT_GE(ratio, 0.99) << "N=" << shape.objects;
    EXPECT_LE(ratio, 1.01) << "N=" << shape.objects;
  }
}

TEST(OnlineLoopTest, LearnedPlansSpendTheirBudgetWhateverTheIdLayout) {
  // A controller that replans every period, at the benchmark's loop shapes
  // (freshen-e2e/workloads.cc: gamma change rates, Zipf(1) interest). The
  // spend must not depend much on whether the Zipf head holds the lowest
  // ids. In rank order a newly funded head element has a phase near 0, so
  // it syncs at once: at the loop_replan shape rank order spends 1.04-1.05
  // and shuffled ids 0.97-0.99 (catalog seeds 1-5).
  struct Shape {
    const char* name;
    size_t objects;
    double update_stddev;
    double bandwidth;
    double accesses_per_period;
  };
  for (const Shape shape : {Shape{"loop_events", 10000, 1.0, 2500.0, 10000.0},
                            Shape{"query", 100000, 2.0, 200.0, 200.0},
                            Shape{"loop_replan", 500000, 2.0, 50.0, 40.0}}) {
    ExperimentSpec spec;
    spec.num_objects = shape.objects;
    spec.update_stddev = shape.update_stddev;
    spec.theta = 1.0;
    spec.seed = 1;
    const ElementSet ranked = GenerateCatalog(spec).value();
    ElementSet shuffled = ranked;
    Rng rng(2003);
    Shuffle(rng, shuffled);
    double ratios[2];
    for (int layout = 0; layout < 2; ++layout) {
      obs::MetricsRegistry registry;
      OnlineFreshenLoop::Options options;
      options.accesses_per_period = shape.accesses_per_period;
      options.registry = &registry;
      ratios[layout] = SpendRatio(layout == 0 ? ranked : shuffled,
                                  shape.bandwidth, options, 40);
      EXPECT_GE(ratios[layout], 0.94) << shape.name << " layout " << layout;
      EXPECT_LE(ratios[layout], 1.06) << shape.name << " layout " << layout;
    }
    EXPECT_NEAR(ratios[0], ratios[1], 0.1) << shape.name;
  }
}

TEST(OnlineLoopSyncTest, FailedFirstFetchIsRetriedAtTheNextPeriodStart) {
  // Element 4 of 10 at f = 0.5 is first due at (4/10) / 0.5 = 0.8. That
  // fetch fails, so the element is still never synced when period 1 opens:
  // its first-sync time has passed, so it is due at the period start, and
  // every 1/f after that.
  ExperimentSpec spec;
  spec.num_objects = 10;
  const ElementSet truth = GenerateCatalog(spec).value();
  const size_t element = 4;
  RecordingSource source(element, /*fail_until=*/1.0);
  obs::MetricsRegistry registry;
  sync::SyncExecutor::Options executor_options;
  executor_options.registry = &registry;
  executor_options.retry.max_attempts = 1;
  auto executor = sync::SyncExecutor::Create(&source, executor_options).value();
  OnlineFreshenLoop::Options options = LoopOptions();
  options.controller.replan_every_periods = 1000.0;  // Keep the cold plan.
  options.registry = &registry;
  options.executor = executor.get();
  auto loop = OnlineFreshenLoop::Create(truth, 5.0, options).value();
  ASSERT_EQ(loop.controller().frequencies()[element], 0.5);

  EXPECT_EQ(loop.RunPeriod().failed_syncs, 1u);
  EXPECT_FALSE(loop.mirror().Synced(element));
  EXPECT_EQ(loop.RunPeriod().failed_syncs, 0u);
  ASSERT_TRUE(loop.mirror().Synced(element));
  EXPECT_EQ(loop.mirror().LastSyncTime(element), 1.0);
  for (int period = 2; period < 6; ++period) loop.RunPeriod();

  std::vector<double> fetch_times;
  for (const SyncEvent& fetch : source.fetches()) {
    if (fetch.element == element) fetch_times.push_back(fetch.time);
  }
  EXPECT_EQ(fetch_times, (std::vector<double>{0.8, 1.0, 3.0, 5.0}));
}

// Resident set size of this process in KiB, or -1 when /proc is missing.
long ResidentKib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stol(line.substr(6));
  }
  return -1;
}

TEST(OnlineLoopTest, MemoryStaysBoundedOverALongRun) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer allocators hold freed memory, inflating RSS";
#endif
  if (ResidentKib() < 0) GTEST_SKIP() << "no /proc/self/status";
  // A resident daemon's loop: N=5k elements changing ~2x per period, sparse
  // replans, SLO and drift attached. Per-element state must not grow with
  // the number of periods run (a source that kept its update history grew
  // by ~N * 2 * 8 bytes every period here).
  ExperimentSpec spec;
  spec.num_objects = 5000;
  const ElementSet truth = GenerateCatalog(spec).value();
  obs::MetricsRegistry registry;
  obs::SloMonitor::Options slo_options;
  slo_options.registry = &registry;
  obs::SloMonitor slo = obs::SloMonitor::Create(slo_options).value();
  obs::DriftDetector::Options drift_options;
  drift_options.num_elements = truth.size();
  drift_options.registry = &registry;
  obs::DriftDetector drift = obs::DriftDetector::Create(drift_options).value();
  OnlineFreshenLoop::Options options;
  options.accesses_per_period = 20.0;
  options.controller.replan_every_periods = 500.0;
  options.registry = &registry;
  options.slo = &slo;
  options.drift = &drift;
  auto loop = OnlineFreshenLoop::Create(truth, 50.0, options).value();

  for (int period = 0; period < 200; ++period) loop.RunPeriod();
  const long early_kib = ResidentKib();
  for (int period = 0; period < 2000; ++period) loop.RunPeriod();
  const long late_kib = ResidentKib();
  EXPECT_LT(late_kib - early_kib, 4096)
      << "RSS grew from " << early_kib << " KiB to " << late_kib << " KiB";
}

// Bytes malloc has handed out and not had back: the main arena's chunks in
// use plus the blocks it mapped on its own (large columns).
size_t HeapInUseBytes() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

TEST(OnlineLoopTest, HeapPerElementHoldsNoDenseSyncColumn) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer allocators do not report through mallinfo2";
#endif
  // A sparse shape: B = 20 of N = 200k, 20 accesses per period, so a few
  // hundred elements ever sync. The loop's dense columns (catalog 24, alias
  // table 12, source 24.125, mirror 8.125, first-funded 4, sizes 8, learner
  // and frequencies 16, believed problem 24, class ids 4, the controller's
  // and the detector's id -> row columns 4 + 4) come to ~132 B/element,
  // which is what this run holds. The 24 B margin is less than any one
  // dense column of sync state: evidence (24), drift evidence and scores
  // (40), RNG streams (32). With all three dense the run held 212.
  constexpr size_t kElements = 200000;
  constexpr double kMaxBytesPerElement = 132.0 + 24.0;
  ExperimentSpec spec;
  spec.num_objects = kElements;
  const ElementSet truth = GenerateCatalog(spec).value();
  obs::MetricsRegistry registry;
  const size_t heap_before = HeapInUseBytes();
  obs::DriftDetector::Options drift_options;
  drift_options.num_elements = truth.size();
  drift_options.registry = &registry;
  obs::DriftDetector drift = obs::DriftDetector::Create(drift_options).value();
  OnlineFreshenLoop::Options options;
  options.accesses_per_period = 20.0;
  options.registry = &registry;
  options.drift = &drift;
  auto loop = OnlineFreshenLoop::Create(truth, 20.0, options).value();
  for (int period = 0; period < 10; ++period) loop.RunPeriod();
  EXPECT_LT(static_cast<double>(HeapInUseBytes() - heap_before) /
                static_cast<double>(kElements),
            kMaxBytesPerElement);
}

// Golden runs: every observable output of a fixed-seed loop, recorded bit
// for bit (doubles as %a hex floats). A refactor of the source, mirror or
// loop internals must leave these strings untouched; a mismatch prints the
// new line, which is also how the expectations were recorded.
std::string GoldenPeriodLine(const PeriodStats& s, double lambda_error) {
  return StrFormat(
      "pf=%a age=%a acc=%llu syncs=%llu bw=%a waste=%a failed=%llu "
      "dropped=%llu breaker=%llu replanned=%d lambda_err=%a",
      s.perceived_freshness, s.mean_access_age,
      static_cast<unsigned long long>(s.accesses),
      static_cast<unsigned long long>(s.syncs), s.bandwidth_spent,
      s.wasted_bandwidth, static_cast<unsigned long long>(s.failed_syncs),
      static_cast<unsigned long long>(s.dropped_syncs),
      static_cast<unsigned long long>(s.breaker_skipped_syncs),
      s.replanned ? 1 : 0, lambda_error);
}

std::string GoldenPlanLine(const OnlineFreshenLoop& loop) {
  const std::vector<double>& freqs = loop.controller().frequencies();
  return StrFormat("freqs n=%zu crc=%08x", freqs.size(),
                   Crc32(freqs.data(), freqs.size() * sizeof(double)));
}

std::string GoldenWindowLine(const char* name, const obs::SloWindowView& w) {
  return StrFormat("%s len=%a periods=%llu acc=%llu good=%llu bad=%a burn=%a",
                   name, w.length_periods,
                   static_cast<unsigned long long>(w.periods),
                   static_cast<unsigned long long>(w.accesses),
                   static_cast<unsigned long long>(w.good), w.bad_ratio,
                   w.burn_rate);
}

std::vector<std::string> GoldenSloLines(const obs::SloReport& r) {
  return {StrFormat("slo state=%s transitions=%llu last=%a total=%llu "
                    "good=%llu ratio=%a budget=%a now=%a",
                    obs::SloStateName(r.state),
                    static_cast<unsigned long long>(r.transitions),
                    r.last_transition_time,
                    static_cast<unsigned long long>(r.total_accesses),
                    static_cast<unsigned long long>(r.total_good),
                    r.overall_good_ratio, r.budget_remaining, r.now),
          GoldenWindowLine("fast", r.fast), GoldenWindowLine("slow", r.slow)};
}

std::vector<std::string> GoldenDriftLines(const obs::DriftReport& r) {
  std::vector<std::string> lines = {
      StrFormat("drift now=%a scored=%zu flagged=%zu aggregate=%a max=%a",
                r.now, r.scored_elements, r.flagged_elements,
                r.aggregate_score, r.max_score)};
  for (const obs::DriftOffender& o : r.top) {
    lines.push_back(StrFormat("offender %zu planned=%a observed=%a score=%a "
                              "evidence=%a",
                              o.element, o.planned_rate, o.observed_rate,
                              o.score, o.evidence));
  }
  return lines;
}

std::vector<std::string> GoldenTimelineLines(const obs::TimelineReport& r) {
  std::vector<double> stale_times;
  for (const obs::TimelineElementStats& e : r.elements) {
    stale_times.push_back(e.stale_time);
  }
  std::vector<double> period_freshness;
  for (const obs::TimelineWindow& w : r.periods) {
    period_freshness.push_back(w.weighted_freshness);
  }
  return {StrFormat("timeline wf=%a fresh=%a slo=%a periods=%zu "
                    "period_wf_crc=%08x stale_crc=%08x",
                    r.overall.weighted_freshness, r.fresh_access_ratio,
                    r.slo_access_ratio, r.periods.size(),
                    Crc32(period_freshness.data(),
                          period_freshness.size() * sizeof(double)),
                    Crc32(stale_times.data(),
                          stale_times.size() * sizeof(double)))};
}

void ExpectGolden(const std::vector<std::string>& actual,
                  const std::vector<std::string>& expected) {
  EXPECT_EQ(actual.size(), expected.size());
  for (size_t k = 0; k < actual.size(); ++k) {
    EXPECT_EQ(actual[k], k < expected.size() ? expected[k] : std::string())
        << "golden line " << k;
  }
}

ElementSet GoldenCatalog() {
  ExperimentSpec spec;
  spec.num_objects = 150;
  spec.theta = 1.0;
  spec.seed = 20030305;
  return GenerateCatalog(spec).value();
}

constexpr int kGoldenPeriods = 8;

TEST(OnlineLoopGoldenTest, InlinePathMatchesRecordedRun) {
  const ElementSet truth = GoldenCatalog();
  obs::MetricsRegistry registry;
  OnlineFreshenLoop::Options options = LoopOptions();
  options.registry = &registry;
  auto loop = OnlineFreshenLoop::Create(truth, 200.0, options).value();
  const obs::Gauge* lambda_error =
      registry.GetGauge("freshen_mirror_lambda_error");
  std::vector<std::string> actual;
  for (int period = 0; period < kGoldenPeriods; ++period) {
    const PeriodStats stats = loop.RunPeriod();
    actual.push_back(GoldenPeriodLine(stats, lambda_error->value()));
  }
  actual.push_back(GoldenPlanLine(loop));
  const std::vector<std::string> expected = {
      "pf=0x1.50177456e3592p-1 age=0x1.66b29613e209ep-4 acc=1921 syncs=200 "
          "bw=0x1.9p+7 waste=0x0p+0 failed=0 dropped=0 breaker=0 replanned=1 "
          "lambda_err=0x1.db66b7ec2c95p-2",
      "pf=0x1.542b64e0f367ep-1 age=0x1.8990c254b1467p-4 acc=2053 syncs=189 "
          "bw=0x1.7ap+7 waste=0x0p+0 failed=0 dropped=0 breaker=0 replanned=1 "
          "lambda_err=0x1.fdbe5fdcc1911p-2",
      "pf=0x1.6a1012f904591p-1 age=0x1.f49ffeb2f80f7p-4 acc=1943 syncs=188 "
          "bw=0x1.78p+7 waste=0x0p+0 failed=0 dropped=0 breaker=0 replanned=1 "
          "lambda_err=0x1.ede48a5ecb955p-2",
      "pf=0x1.658bd61682227p-1 age=0x1.3e5bd2c0e3501p-3 acc=1979 syncs=188 "
          "bw=0x1.78p+7 waste=0x0p+0 failed=0 dropped=0 breaker=0 replanned=1 "
          "lambda_err=0x1.be86047590a9ap-2",
      "pf=0x1.5fc1f8813a482p-1 age=0x1.b29ce8b532609p-3 acc=1981 syncs=193 "
          "bw=0x1.82p+7 waste=0x0p+0 failed=0 dropped=0 breaker=0 replanned=1 "
          "lambda_err=0x1.ad1d80b1f119cp-2",
      "pf=0x1.64d33406b68b3p-1 age=0x1.5bdc833d01a6bp-3 acc=1983 syncs=197 "
          "bw=0x1.8ap+7 waste=0x0p+0 failed=0 dropped=0 breaker=0 replanned=1 "
          "lambda_err=0x1.bef52ccff04d7p-2",
      "pf=0x1.766fb9109801p-1 age=0x1.832d168a1e116p-3 acc=2021 syncs=190 "
          "bw=0x1.7cp+7 waste=0x0p+0 failed=0 dropped=0 breaker=0 replanned=1 "
          "lambda_err=0x1.aec64a0c352ccp-2",
      "pf=0x1.74fed774fed77p-1 age=0x1.700037bc66d2p-3 acc=1989 syncs=204 "
          "bw=0x1.98p+7 waste=0x0p+0 failed=0 dropped=0 breaker=0 replanned=1 "
          "lambda_err=0x1.98f2f68aaf442p-2",
      "freqs n=150 crc=eb913bee"};
  ExpectGolden(actual, expected);
}

TEST(OnlineLoopTest, MovedLoopRunsLikeAnUnmovedTwin) {
  // The mirror reads the source's pending-update column through a pointer
  // between two of the loop's members; moving the loop, mid-run too, must
  // not leave it reading a moved-from source.
  const ElementSet truth = GoldenCatalog();
  obs::MetricsRegistry twin_registry;
  OnlineFreshenLoop::Options twin_options = LoopOptions();
  twin_options.registry = &twin_registry;
  auto twin = OnlineFreshenLoop::Create(truth, 200.0, twin_options).value();
  obs::MetricsRegistry moved_registry;
  OnlineFreshenLoop::Options moved_options = LoopOptions();
  moved_options.registry = &moved_registry;
  auto created = OnlineFreshenLoop::Create(truth, 200.0, moved_options);
  ASSERT_TRUE(created.ok());
  OnlineFreshenLoop moved = std::move(created).value();
  const obs::Gauge* twin_error =
      twin_registry.GetGauge("freshen_mirror_lambda_error");
  const obs::Gauge* moved_error =
      moved_registry.GetGauge("freshen_mirror_lambda_error");
  for (int period = 0; period < kGoldenPeriods; ++period) {
    if (period == kGoldenPeriods / 2) {
      obs::MetricsRegistry scratch_registry;
      OnlineFreshenLoop::Options scratch_options = LoopOptions();
      scratch_options.registry = &scratch_registry;
      auto target =
          OnlineFreshenLoop::Create(truth, 200.0, scratch_options).value();
      target = std::move(moved);
      moved = std::move(target);
    }
    const std::string expected =
        GoldenPeriodLine(twin.RunPeriod(), twin_error->value());
    EXPECT_EQ(GoldenPeriodLine(moved.RunPeriod(), moved_error->value()),
              expected)
        << "period " << period;
  }
  EXPECT_EQ(GoldenPlanLine(moved), GoldenPlanLine(twin));
}

TEST(OnlineLoopGoldenTest, ExecutorPathWithTelemetryMatchesRecordedRun) {
  const ElementSet truth = GoldenCatalog();
  obs::MetricsRegistry registry;

  sync::SimulatedSource::Options source_options;
  source_options.error_rate = 0.2;
  source_options.seed = 5;
  sync::SimulatedSource source =
      sync::SimulatedSource::Create(source_options).value();
  sync::SyncExecutor::Options executor_options;
  executor_options.registry = &registry;
  executor_options.retry.max_attempts = 2;
  auto executor = sync::SyncExecutor::Create(&source, executor_options).value();

  obs::StalenessTimeline::Options timeline_options;
  timeline_options.window_end = kGoldenPeriods;
  timeline_options.registry = &registry;
  obs::StalenessTimeline timeline =
      obs::StalenessTimeline::Create(AccessProbs(truth), timeline_options)
          .value();
  obs::SloMonitor::Options slo_options;
  slo_options.registry = &registry;
  obs::SloMonitor slo = obs::SloMonitor::Create(slo_options).value();
  obs::DriftDetector::Options drift_options;
  drift_options.num_elements = truth.size();
  drift_options.registry = &registry;
  obs::DriftDetector drift = obs::DriftDetector::Create(drift_options).value();

  OnlineFreshenLoop::Options options = LoopOptions();
  options.registry = &registry;
  options.executor = executor.get();
  options.timeline = &timeline;
  options.slo = &slo;
  options.drift = &drift;
  options.controller.replan_every_periods = 3.0;
  auto loop = OnlineFreshenLoop::Create(truth, 60.0, options).value();
  const obs::Gauge* lambda_error =
      registry.GetGauge("freshen_mirror_lambda_error");
  std::vector<std::string> actual;
  for (int period = 0; period < kGoldenPeriods; ++period) {
    const PeriodStats stats = loop.RunPeriod();
    actual.push_back(GoldenPeriodLine(stats, lambda_error->value()));
  }
  actual.push_back(GoldenPlanLine(loop));
  for (std::string& line : GoldenSloLines(slo.Report())) {
    actual.push_back(std::move(line));
  }
  for (std::string& line : GoldenDriftLines(drift.Report())) {
    actual.push_back(std::move(line));
  }
  for (std::string& line : GoldenTimelineLines(timeline.Finalize())) {
    actual.push_back(std::move(line));
  }
  const std::vector<std::string> expected = {
      "pf=0x1.509feaad82772p-1 age=0x1.b148dfbfff6dap-4 acc=1921 syncs=59 "
          "bw=0x1.d8p+5 waste=0x1.4p+3 failed=1 dropped=0 breaker=0 "
          "replanned=0 lambda_err=0x1.11e9bd5dc40a2p-1",
      "pf=0x1.1dcd5fa4395c2p-2 age=0x1.182fb78cf6b81p-1 acc=2053 syncs=59 "
          "bw=0x1.d8p+5 waste=0x1p+3 failed=2 dropped=0 breaker=0 replanned=0 "
          "lambda_err=0x1.11e9bd5dc40a2p-1",
      "pf=0x1.012f9045910ffp-2 age=0x1.dfa8d6688668bp-1 acc=1943 syncs=58 "
          "bw=0x1.dp+5 waste=0x1p+3 failed=2 dropped=0 breaker=0 replanned=1 "
          "lambda_err=0x1.e2f3c01ed704fp-2",
      "pf=0x1.f903c05b1176ap-2 age=0x1.100df14c5bac7p-1 acc=1979 syncs=50 "
          "bw=0x1.9p+5 waste=0x1.8p+3 failed=4 dropped=0 breaker=0 replanned=0 "
          "lambda_err=0x1.059ac988973acp-1",
      "pf=0x1.19f989e2cb678p-1 age=0x1.462a9cb9ab67p-1 acc=1981 syncs=60 "
          "bw=0x1.ep+5 waste=0x1.6p+3 failed=1 dropped=0 breaker=0 replanned=0 "
          "lambda_err=0x1.0235bc90be87p-1",
      "pf=0x1.d24caf0e546ep-2 age=0x1.9fe5e4ec8fd94p-1 acc=1983 syncs=54 "
          "bw=0x1.bp+5 waste=0x1.8p+3 failed=3 dropped=0 breaker=0 replanned=1 "
          "lambda_err=0x1.e90dcc2a1894bp-2",
      "pf=0x1.1831a79598e4p-1 age=0x1.0285b01bdb2dfp+0 acc=2021 syncs=53 "
          "bw=0x1.a8p+5 waste=0x1.8p+3 failed=1 dropped=0 breaker=0 "
          "replanned=0 lambda_err=0x1.e4cf92d0961d7p-2",
      "pf=0x1.11a20b11a20b1p-1 age=0x1.2367e30347a97p+0 acc=1989 syncs=62 "
          "bw=0x1.fp+5 waste=0x1.cp+3 failed=1 dropped=0 breaker=0 replanned=0 "
          "lambda_err=0x1.d69ebfe06dab8p-2",
      "freqs n=150 crc=f70504c9",
      "slo state=alert transitions=1 last=0x1p+0 total=15870 good=7463 "
          "ratio=0x1.e18b6797fca51p-2 budget=0x0p+0 now=0x1p+3",
      "fast len=0x1p+2 periods=4 acc=7974 good=4163 bad=0x1.e96607101dcbp-2 "
          "burn=0x1.7e57b58497464p+5",
      "slow len=0x1p+5 periods=8 acc=15870 good=7463 bad=0x1.0f3a4c3401ad8p-1 "
          "burn=0x1.a7cb1711429ebp+5",
      "drift now=0x1p+3 scored=46 flagged=19 aggregate=0x1.4d1dc6d73e995p-1 "
          "max=0x1.b42538cae381p+2",
      "offender 9 planned=0x1.753b25627b238p-4 observed=0x1.a36e2eb1c432dp-14 "
          "score=0x1.b42538cae381p+2 evidence=0x1.1f8bd50b6316cp+2",
      "offender 26 planned=0x1.414adffec7d0bp-1 observed=0x1.f3781d040eb29p+1 "
          "score=0x1.d3d647f14127cp+0 evidence=0x1.d0d6d269775fap+1",
      "offender 18 planned=0x1.3163ed6a898eap+0 observed=0x1.8838ffdb32977p+2 "
          "score=0x1.a2f3d8227cf9ap+0 evidence=0x1.9f60e8c3d1b2ap+2",
      "offender 49 planned=0x1.8ae692902eb4ap-1 observed=0x1.fa20f5171939cp+1 "
          "score=0x1.a26b63fb13db3p+0 evidence=0x1.c9b8af7e3ae61p+1",
      "offender 20 planned=0x1.2d6c23e281c14p+0 observed=0x1.612c88c30e52cp+2 "
          "score=0x1.8b743d620caeap+0 evidence=0x1.5f60e8c3d1b2ap+2",
      "offender 30 planned=0x1.2c1b06ead2ca3p+0 observed=0x1.52bd0a6e34804p+2 "
          "score=0x1.81e432caf2761p+0 evidence=0x1.61140c61510f1p+2",
      "offender 28 planned=0x1.21242dba6d2cep+0 observed=0x1.4013322348885p+2 "
          "score=0x1.7ce93f7089fc6p+0 evidence=0x1.1f60e8c3d1b2ap+2",
      "offender 21 planned=0x1.3e06a7d9156fep+0 observed=0x1.4fc7214692565p+2 "
          "score=0x1.70cbe215f45cfp+0 evidence=0x1.5da04fecaac4dp+2",
      "timeline wf=0x1.e455196b8af32p-2 fresh=0x1.e18b6797fca51p-2 "
          "slo=0x1.367da0f4ad0ddp-1 periods=8 period_wf_crc=c61547c1 "
          "stale_crc=aaa8f373"};
  ExpectGolden(actual, expected);
}

}  // namespace
}  // namespace freshen
