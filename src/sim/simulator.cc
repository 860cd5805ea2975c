#include "sim/simulator.h"

#include <algorithm>
#include <cmath>

#include "common/parallel.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "model/metrics.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "rng/alias_table.h"
#include "rng/distributions.h"
#include "rng/rng.h"
#include "schedule/schedule.h"
#include "stats/descriptive.h"

namespace freshen {
namespace {

enum class EventType : uint8_t {
  // Order matters for simultaneous events: process the source update first,
  // then the sync (a sync at time t picks up an update at time t), and score
  // accesses against the post-transition state.
  kUpdate = 0,
  kSync = 1,
  kAccess = 2,
};

struct SimEvent {
  double time;
  EventType type;
  uint32_t element;
};

// Everything one element shard produces; merged in shard order. The float
// fields are per-shard Kahan totals — combining them in shard-index order
// keeps SimulationResult bit-identical at every thread count.
struct ShardStats {
  double freshness_integral = 0.0;  // integral of shard fresh_count dt.
  double age_sum = 0.0;
  uint64_t accesses = 0;  // Post-warmup counts.
  uint64_t fresh_accesses = 0;
  uint64_t updates = 0;
  uint64_t syncs = 0;
  uint64_t total_events = 0;  // Whole-horizon event count (metrics).
  uint64_t total_syncs = 0;   // Whole-horizon sync count (metrics).
};

// Registered once; updated lock-free per Run.
struct SimMetrics {
  obs::Counter* runs;
  obs::Counter* update_events;
  obs::Counter* sync_events;
  obs::Counter* access_events;
  obs::Gauge* queue_depth;
  obs::Gauge* events_per_second;
};

const SimMetrics& GetSimMetrics() {
  static const SimMetrics metrics = [] {
    auto& registry = obs::MetricsRegistry::Global();
    return SimMetrics{
        registry.GetCounter("freshen_sim_runs_total"),
        registry.GetCounter("freshen_sim_events_total",
                            {{"type", "update"}}),
        registry.GetCounter("freshen_sim_events_total", {{"type", "sync"}}),
        registry.GetCounter("freshen_sim_events_total",
                            {{"type", "access"}}),
        registry.GetGauge("freshen_sim_event_queue_depth"),
        registry.GetGauge("freshen_sim_events_per_second")};
  }();
  return metrics;
}

}  // namespace

MirrorSimulator::MirrorSimulator(ElementSet elements, SimulationConfig config)
    : elements_(std::move(elements)), config_(config) {}

Result<SimulationResult> MirrorSimulator::Run(
    const std::vector<double>& frequencies) const {
  if (frequencies.size() != elements_.size()) {
    return Status::InvalidArgument(
        StrFormat("got %zu frequencies for %zu elements", frequencies.size(),
                  elements_.size()));
  }
  if (elements_.empty()) {
    return Status::InvalidArgument("catalog is empty");
  }
  if (!(config_.horizon_periods > 0.0)) {
    return Status::InvalidArgument("horizon must be positive");
  }
  if (!(config_.warmup_periods >= 0.0) ||
      config_.warmup_periods >= config_.horizon_periods) {
    return Status::InvalidArgument("warmup must be in [0, horizon)");
  }
  for (size_t i = 0; i < frequencies.size(); ++i) {
    if (!(frequencies[i] >= 0.0) || !std::isfinite(frequencies[i])) {
      return Status::InvalidArgument(
          StrFormat("frequency %zu is negative or non-finite", i));
    }
  }
  obs::ScopedSpan run_span("sim_run");
  WallTimer run_timer;
  const double horizon = config_.horizon_periods;
  const double warmup = config_.warmup_periods;
  const size_t n = elements_.size();
  const par::Executor exec(config_.threads);
  const std::vector<par::Shard> plan = par::ShardPlan(n);

  // Per-element RNG streams, forked from the root exactly as a sequential
  // run would (one fork per updating element, in index order; one fork per
  // element for the Poisson sync policy). Shards then reconstruct their
  // elements' streams from these seeds, so the event timeline is identical
  // to the sequential fork order no matter how shards are scheduled.
  std::vector<uint64_t> update_seeds(n, 0);
  {
    Rng update_rng(config_.seed ^ 0x75706474ULL);
    for (size_t i = 0; i < n; ++i) {
      if (elements_[i].change_rate > 0.0) update_seeds[i] = update_rng.NextUint64();
    }
  }
  std::vector<uint64_t> sync_seeds;
  if (config_.sync_policy == SyncPolicy::kPoisson) {
    sync_seeds.resize(n);
    Rng sync_root(config_.seed ^ 0x706f6973ULL);
    for (size_t i = 0; i < n; ++i) sync_seeds[i] = sync_root.NextUint64();
  }

  // User Request Generator: one global Poisson arrival stream with elements
  // drawn from the master profile. Inherently sequential (each arrival
  // advances the shared stream), so accesses are generated here and routed
  // to the owning shard's queue; everything per-element runs sharded below.
  std::vector<std::vector<SimEvent>> shard_accesses(plan.size());
  uint64_t planned_accesses = 0;
  std::vector<double> probs = AccessProbs(elements_);
  const double prob_total = Sum(probs);
  if (config_.accesses_per_period > 0.0 && prob_total > 0.0) {
    AliasTable table(probs);
    const par::ShardGeometry geometry(n);
    Rng access_rng(config_.seed ^ 0x61636373ULL);
    for (double t = SampleExponential(access_rng, config_.accesses_per_period);
         t < horizon;
         t += SampleExponential(access_rng, config_.accesses_per_period)) {
      const auto element = static_cast<uint32_t>(table.Sample(access_rng));
      shard_accesses[geometry.IndexOf(element)].push_back(
          {t, EventType::kAccess, element});
      ++planned_accesses;
    }
  }

  // Each shard owns its elements outright: their sync timeline, update
  // streams, mirror state, and the accesses routed above. Statistics land
  // in the shard's own slot; nothing is shared across shards. Per-element
  // post-warmup stale time lands in `stale_time` (each shard writes only
  // its own slice) — the attribution ledger and the measured weighted
  // freshness below are both built from it.
  std::vector<ShardStats> stats(plan.size());
  std::vector<double> stale_time(n, 0.0);
  obs::StalenessTimeline* const timeline = config_.timeline;
  obs::EventRecorder& recorder = obs::EventRecorder::Global();
  exec.ForShards(plan, [&](const par::Shard& shard) {
    std::vector<SimEvent> events = std::move(shard_accesses[shard.index]);
    const size_t shard_access_count = events.size();
    ShardStats& out = stats[shard.index];

    // Synchronization Scheduler: this shard's slice of the sync timeline.
    for (size_t i = shard.begin; i < shard.end; ++i) {
      const auto element = static_cast<uint32_t>(i);
      if (config_.sync_policy == SyncPolicy::kFixedOrder) {
        ForEachFixedOrderSyncTime(i, n, frequencies[i], horizon, [&](double t) {
          events.push_back({t, EventType::kSync, element});
        });
      } else {
        Rng rng(sync_seeds[i]);
        ForEachPoissonSyncTime(frequencies[i], horizon, rng, [&](double t) {
          events.push_back({t, EventType::kSync, element});
        });
      }
    }
    out.total_syncs = events.size() - shard_access_count;

    // Update Generator: per-element Poisson change processes at the source.
    for (size_t i = shard.begin; i < shard.end; ++i) {
      const double lambda = elements_[i].change_rate;
      if (lambda <= 0.0) continue;
      Rng element_rng(update_seeds[i]);
      for (double t = SampleExponential(element_rng, lambda); t < horizon;
           t += SampleExponential(element_rng, lambda)) {
        events.push_back({t, EventType::kUpdate, static_cast<uint32_t>(i)});
      }
    }

    std::sort(events.begin(), events.end(),
              [](const SimEvent& a, const SimEvent& b) {
                if (a.time != b.time) return a.time < b.time;
                return static_cast<uint8_t>(a.type) <
                       static_cast<uint8_t>(b.type);
              });
    out.total_events = events.size();

    // Shard milestone span on the shard's own virtual track — content is a
    // pure function of (catalog, seed, shard plan), so the merged virtual
    // dump is identical at any thread count.
    if (recorder.enabled()) {
      obs::Event milestone;
      milestone.name = "sim_shard";
      milestone.category = "sim";
      milestone.clock = obs::EventClock::kVirtual;
      milestone.track = obs::kTrackSimShardBase + shard.index;
      milestone.phase = obs::EventPhase::kBegin;
      milestone.ts = 0.0;
      milestone.arg0 = static_cast<double>(shard.size());
      milestone.arg0_name = "elements";
      milestone.arg1 = static_cast<double>(events.size());
      milestone.arg1_name = "events";
      recorder.Emit(milestone);
    }

    // Mirror state for this shard's elements (indexed relative to begin):
    // every copy starts in sync with the source.
    const size_t width = shard.size();
    std::vector<uint8_t> fresh(width, 1);
    // Time of the first source update the mirror has not yet picked up
    // (defined only while stale); drives the age metric.
    std::vector<double> stale_since(width, 0.0);

    size_t fresh_count = width;
    double prev_time = warmup;
    KahanSum freshness_integral;  // integral of fresh_count dt, post-warmup.
    KahanSum age_sum;

    for (const SimEvent& event : events) {
      if (event.time >= warmup) {
        freshness_integral.Add(static_cast<double>(fresh_count) *
                               (event.time - prev_time));
        prev_time = event.time;
      }
      const size_t local = event.element - shard.begin;
      switch (event.type) {
        case EventType::kUpdate:
          if (event.time >= warmup) ++out.updates;
          if (fresh[local]) {
            fresh[local] = 0;
            stale_since[local] = event.time;
            --fresh_count;
            if (timeline != nullptr) {
              timeline->MarkStale(event.element, event.time);
            }
          }
          break;
        case EventType::kSync:
          if (event.time >= warmup) ++out.syncs;
          if (!fresh[local]) {
            fresh[local] = 1;
            ++fresh_count;
            // Same clamp arithmetic as StalenessTimeline::ClampedInterval
            // over [warmup, horizon], so the two ledgers agree per element
            // to the bit.
            stale_time[event.element] +=
                std::max(0.0, std::min(event.time, horizon) -
                                  std::max(stale_since[local], warmup));
            if (timeline != nullptr) {
              timeline->MarkFresh(event.element, event.time);
            }
          }
          break;
        case EventType::kAccess:
          if (event.time < warmup) break;
          ++out.accesses;
          if (fresh[local]) {
            ++out.fresh_accesses;
            age_sum.Add(0.0);
            if (timeline != nullptr) {
              timeline->OnAccess(event.element, event.time, 0.0);
            }
          } else {
            age_sum.Add(event.time - stale_since[local]);
            if (timeline != nullptr) {
              timeline->OnAccess(event.element, event.time,
                                 event.time - stale_since[local]);
            }
          }
          break;
      }
    }
    // Close the integration window at the horizon.
    freshness_integral.Add(static_cast<double>(fresh_count) *
                           (horizon - prev_time));
    out.freshness_integral = freshness_integral.Total();
    out.age_sum = age_sum.Total();
    // Charge still-open stale intervals up to the horizon (the timeline does
    // the same at Finalize, with the same arithmetic).
    for (size_t i = shard.begin; i < shard.end; ++i) {
      const size_t local = i - shard.begin;
      if (!fresh[local]) {
        stale_time[i] +=
            std::max(0.0, horizon - std::max(stale_since[local], warmup));
      }
    }
    if (recorder.enabled()) {
      obs::Event milestone;
      milestone.name = "sim_shard";
      milestone.category = "sim";
      milestone.clock = obs::EventClock::kVirtual;
      milestone.track = obs::kTrackSimShardBase + shard.index;
      milestone.phase = obs::EventPhase::kEnd;
      milestone.ts = horizon;
      milestone.arg0 = static_cast<double>(shard.size());
      milestone.arg0_name = "elements";
      milestone.arg1 = static_cast<double>(out.total_events);
      milestone.arg1_name = "events";
      recorder.Emit(milestone);
    }
  });

  // Merge in shard-index order: integer counts are exact in any order; the
  // float totals are combined with the same fixed Kahan tree every run.
  KahanSum freshness_integral;
  KahanSum age_sum;
  uint64_t accesses = 0;
  uint64_t fresh_accesses = 0;
  uint64_t updates = 0;
  uint64_t syncs = 0;
  uint64_t total_events = 0;
  uint64_t total_syncs = 0;
  for (const ShardStats& shard : stats) {
    freshness_integral.Add(shard.freshness_integral);
    age_sum.Add(shard.age_sum);
    accesses += shard.accesses;
    fresh_accesses += shard.fresh_accesses;
    updates += shard.updates;
    syncs += shard.syncs;
    total_events += shard.total_events;
    total_syncs += shard.total_syncs;
  }

  SimulationResult result;
  result.num_accesses = accesses;
  result.num_updates = updates;
  result.num_syncs = syncs;
  result.empirical_perceived_freshness =
      accesses > 0 ? static_cast<double>(fresh_accesses) /
                         static_cast<double>(accesses)
                   : 0.0;
  result.empirical_general_freshness =
      freshness_integral.Total() /
      (static_cast<double>(n) * (horizon - warmup));
  result.empirical_perceived_age =
      accesses > 0 ? age_sum.Total() / static_cast<double>(accesses) : 0.0;
  result.analytic_perceived_freshness =
      PerceivedFreshness(elements_, frequencies, config_.sync_policy);
  result.analytic_general_freshness =
      GeneralFreshness(elements_, frequencies, config_.sync_policy);

  // Weighted time-in-fresh over [warmup, horizon]: the same per-element
  // stale_time the timeline accumulates, normalized weights, summed with the
  // timeline's index-order Kahan tree — thread-count invariant and within
  // float rounding of a timeline fed by this run.
  if (prob_total > 0.0) {
    const double span = horizon - warmup;
    KahanSum sum;
    for (size_t i = 0; i < n; ++i) {
      const double w = probs[i] / prob_total;
      const double stale = std::min(std::max(stale_time[i], 0.0), span);
      sum.Add(w * (1.0 - stale / span));
    }
    result.measured_weighted_freshness = sum.Total();
  }

  // Whole-horizon event counts (the post-warmup subset is in `result`).
  const SimMetrics& metrics = GetSimMetrics();
  metrics.runs->Increment();
  metrics.sync_events->Add(static_cast<double>(total_syncs));
  metrics.access_events->Add(static_cast<double>(planned_accesses));
  metrics.update_events->Add(static_cast<double>(
      total_events - total_syncs - planned_accesses));
  metrics.queue_depth->Set(static_cast<double>(total_events));
  const double elapsed = run_timer.ElapsedSeconds();
  if (elapsed > 0.0) {
    metrics.events_per_second->Set(static_cast<double>(total_events) /
                                   elapsed);
  }
  return result;
}

}  // namespace freshen
