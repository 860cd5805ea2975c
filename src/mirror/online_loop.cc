#include "mirror/online_loop.h"

#include <algorithm>
#include <optional>

#include "common/macros.h"
#include "obs/drift.h"
#include "obs/recorder.h"
#include "obs/slo.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "schedule/schedule.h"
#include "stats/descriptive.h"

namespace freshen {
namespace {

// A sync the executor applied, at the time its copy lands.
struct AppliedSync {
  double time;
  uint32_t element;
};

// Period-boundary span events on the online-loop virtual track. The loop is
// single-threaded and seed-deterministic, so these are too.
void EmitPeriodEvent(obs::EventRecorder& recorder, obs::EventPhase phase,
                     double ts, double period_index) {
  if (!recorder.enabled()) return;
  obs::Event event;
  event.name = "period";
  event.category = "loop";
  event.clock = obs::EventClock::kVirtual;
  event.track = obs::kTrackOnlineLoop;
  event.phase = phase;
  event.ts = ts;
  event.arg0 = period_index;
  event.arg0_name = "period";
  recorder.Emit(event);
}

}  // namespace

Result<OnlineFreshenLoop> OnlineFreshenLoop::Create(ElementSet truth,
                                                    double bandwidth,
                                                    Options options) {
  // The controller reports into the loop's registry unless its options name
  // their own.
  if (options.controller.registry == nullptr) {
    options.controller.registry = options.registry;
  }
  // The world's columns are allocated before the controller's first replan
  // scratch: a daemon set up again after a teardown then faults fewer
  // fresh pages (docs/performance.md, "One owner for the simulated world").
  std::vector<double> sizes = Sizes(truth);
  FRESHEN_ASSIGN_OR_RETURN(
      SimulatedWorld world,
      SimulatedWorld::Create(std::move(truth), options.accesses_per_period,
                             options.seed));
  FRESHEN_ASSIGN_OR_RETURN(
      AdaptiveFreshener controller,
      AdaptiveFreshener::Create(std::move(sizes), bandwidth,
                                options.controller));
  return OnlineFreshenLoop(std::move(world), std::move(controller), options);
}

OnlineFreshenLoop::OnlineFreshenLoop(SimulatedWorld world,
                                     AdaptiveFreshener controller,
                                     Options options)
    : options_(options),
      world_(std::move(world)),
      mirror_(world_.size()),
      controller_(
          std::make_unique<AdaptiveFreshener>(std::move(controller))),
      first_funded_(world_.size(), kNeverFunded),
      registry_(options.registry != nullptr
                    ? options.registry
                    : &obs::MetricsRegistry::Global()) {
  if (options_.executor == nullptr) {
    perfect_source_ = std::make_unique<sync::PerfectSource>();
    sync::SyncExecutor::Options executor_options;
    executor_options.registry = registry_;
    auto executor =
        sync::SyncExecutor::Create(perfect_source_.get(), executor_options);
    FRESHEN_CHECK(executor.ok());  // The default options are valid.
    own_executor_ = std::move(*executor);
    options_.executor = own_executor_.get();
  }
  periods_counter_ = registry_->GetCounter("freshen_mirror_periods_total");
  syncs_counter_ = registry_->GetCounter("freshen_mirror_syncs_total");
  accesses_counter_ = registry_->GetCounter("freshen_mirror_accesses_total");
  fresh_accesses_counter_ =
      registry_->GetCounter("freshen_mirror_fresh_accesses_total");
  bandwidth_counter_ =
      registry_->GetCounter("freshen_mirror_bandwidth_spent_total");
  freshness_gauge_ =
      registry_->GetGauge("freshen_mirror_perceived_freshness");
  access_age_gauge_ = registry_->GetGauge("freshen_mirror_mean_access_age");
  lambda_error_gauge_ = registry_->GetGauge("freshen_mirror_lambda_error");
}

PeriodStats OnlineFreshenLoop::RunPeriod() {
  obs::ScopedSpan period_span("period", *registry_);
  const double period_start = now_;
  const double period_end = now_ + 1.0;
  obs::EventRecorder& recorder = obs::EventRecorder::Global();
  EmitPeriodEvent(recorder, obs::EventPhase::kBegin, period_start,
                  period_start);
  obs::StalenessTimeline* const timeline = options_.timeline;
  obs::SloMonitor* const slo = options_.slo;
  obs::DriftDetector* const drift = options_.drift;
  // Accesses served within the SLO monitor's age threshold (fresh counts
  // too: age 0). Only tracked when a monitor is attached.
  uint64_t age_good_accesses = 0;
  uint64_t fresh_accesses = 0;
  PeriodStats stats;

  // Due syncs: the Fixed-Order timeline (schedule.h) under the controller's
  // current plan, viewed afresh (a replan can reallocate its columns). A
  // never-synced element is phased from its first-funded anchor, recorded
  // the first period its f is > 0.
  const PlanClassView plan = controller_->PlanClasses();
  const std::vector<double>& sizes = controller_->sizes();
  const size_t n = sizes.size();
  const auto period_index = static_cast<uint32_t>(period_start);
  std::vector<sync::SyncTask> due;
  for (size_t i = 0; i < n; ++i) {
    const double f = plan.Frequency(i);
    if (f <= 0.0) continue;
    FixedOrderHistory history;
    if (mirror_.Synced(i)) {
      history.synced = true;
      history.last_sync = mirror_.LastSyncTime(i);
    } else {
      if (first_funded_[i] == kNeverFunded) first_funded_[i] = period_index;
      history.anchor = static_cast<double>(first_funded_[i]);
    }
    ForEachFixedOrderSyncTime(i, n, f, history, period_start, period_end,
                              [&](double t) {
                                due.push_back({i, t, sizes[i]});
                              });
  }

  // The executor fetches in scheduled order; a fetch can fail, be refused,
  // or land late. Only applied syncs reach the mirror. A sync completing
  // past the boundary applies at period_end, which no access reaches, so it
  // lands after every access (genuinely late); the rest leave the copy
  // stale.
  const std::vector<sync::SyncOutcome> outcomes =
      options_.executor->Execute(due);
  std::vector<AppliedSync> applied;
  applied.reserve(outcomes.size());
  for (const sync::SyncOutcome& outcome : outcomes) {
    stats.wasted_bandwidth += outcome.wasted_bandwidth;
    switch (outcome.kind) {
      case sync::SyncOutcomeKind::kApplied:
        applied.push_back({std::min(outcome.apply_time, period_end),
                           static_cast<uint32_t>(outcome.element)});
        break;
      case sync::SyncOutcomeKind::kFailed:
        ++stats.failed_syncs;
        break;
      case sync::SyncOutcomeKind::kBreakerOpen:
        ++stats.breaker_skipped_syncs;
        break;
      case sync::SyncOutcomeKind::kDropped:
        ++stats.dropped_syncs;
        break;
    }
  }
  // Transport latency can reorder the applies.
  std::sort(applied.begin(), applied.end(),
            [](const AppliedSync& a, const AppliedSync& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.element < b.element;
            });

  KahanSum age_sum;
  const auto apply_sync = [&](const AppliedSync& sync) {
    if (timeline != nullptr) {
      // Attribute the stale interval this sync is about to close: it opened
      // at the first update the copy missed.
      if (!world_.IsFresh(sync.element, sync.time)) {
        timeline->MarkStale(sync.element, world_.FirstMissed(sync.element));
        timeline->MarkFresh(sync.element, sync.time);
      }
    }
    // The copy has existed since t=0, so a first sync's watched window
    // starts there (LastSyncTime is 0 before the first sync). The drift
    // detector counts that window: it decays its evidence every period.
    // The controller takes no evidence from a first sync. Its evidence is
    // never decayed, and one first window as long as the run caps the
    // bias-reduced estimate near ln 3 / t; counting it cut the learned
    // plan's PF (docs/performance.md, "Fixed-Order timeline").
    const double gap = sync.time - mirror_.LastSyncTime(sync.element);
    const bool first_sync = !mirror_.Synced(sync.element);
    mirror_.RecordSync(sync.element, sync.time);
    const bool changed = world_.Sync(sync.element, sync.time);
    controller_->ObserveSync(sync.element, changed, first_sync ? 0.0 : gap);
    if (drift != nullptr) drift->ObserveSync(sync.element, changed, gap);
    if (options_.on_period_end) synced_scratch_.push_back(sync.element);
    ++stats.syncs;
    stats.bandwidth_spent += sizes[sync.element];
  };

  // This period's accesses, Poisson arrivals from the true profile, come in
  // time order; the sorted syncs merge into that stream, a sync ahead of an
  // access at the same time.
  size_t next_sync = 0;
  world_.ForEachAccess(period_start, period_end, [&](uint32_t element,
                                                     double t) {
    for (; next_sync < applied.size() && applied[next_sync].time <= t;
         ++next_sync) {
      apply_sync(applied[next_sync]);
    }
    controller_->ObserveAccess(element);
    ++stats.accesses;
    if (world_.IsFresh(element, t)) {
      ++fresh_accesses;
      ++age_good_accesses;  // Age 0 is within any age SLO.
      if (timeline != nullptr) timeline->OnAccess(element, t, 0.0);
    } else {
      const double age = world_.Age(element, t);
      age_sum.Add(age);
      if (slo != nullptr && age <= slo->age_slo()) ++age_good_accesses;
      if (timeline != nullptr) timeline->OnAccess(element, t, age);
    }
  });
  for (; next_sync < applied.size(); ++next_sync) {
    apply_sync(applied[next_sync]);
  }
  if (timeline != nullptr) {
    // Open a ledger interval for everything still stale at the boundary
    // (MarkStale is idempotent, so already-open intervals are untouched),
    // then close this period's attribution window.
    for (size_t i = 0; i < n; ++i) {
      if (!world_.IsFresh(i, period_end)) {
        timeline->MarkStale(i, world_.FirstMissed(i));
      }
    }
    timeline->CloseWindow(period_end);
  }
  now_ = period_end;
  periods_counter_->Increment();
  syncs_counter_->Add(static_cast<double>(stats.syncs));
  accesses_counter_->Add(static_cast<double>(stats.accesses));
  fresh_accesses_counter_->Add(static_cast<double>(fresh_accesses));
  bandwidth_counter_->Add(stats.bandwidth_spent);
  if (stats.accesses > 0) {
    stats.perceived_freshness = static_cast<double>(fresh_accesses) /
                                static_cast<double>(stats.accesses);
    stats.mean_access_age =
        age_sum.Total() / static_cast<double>(stats.accesses);
  }
  freshness_gauge_->Set(stats.perceived_freshness);
  access_age_gauge_->Set(stats.mean_access_age);

  controller_->EndPeriod();
  auto replanned = controller_->MaybeReplan(now_);
  FRESHEN_CHECK(replanned.ok());
  stats.replanned = *replanned;

  // Estimator quality against the ground truth only the world knows: mean
  // relative change-rate error of the controller's believed rates.
  const std::optional<double> lambda_error = world_.MeanLambdaError(
      [this](size_t i) { return controller_->BelievedChangeRate(i); });
  if (lambda_error.has_value()) lambda_error_gauge_->Set(*lambda_error);

  if (drift != nullptr) {
    // Score this period's evidence against the rates the plan now in force
    // was solved with.
    drift->EndPeriod(now_, controller_->PlanClasses());
  }
  if (slo != nullptr) {
    slo->ObservePeriod(now_, stats.accesses, fresh_accesses,
                       age_good_accesses);
  }
  if (options_.on_period_end) {
    options_.on_period_end(stats, synced_scratch_);
    synced_scratch_.clear();
  }
  EmitPeriodEvent(recorder, obs::EventPhase::kEnd, period_end, period_start);
  return stats;
}

}  // namespace freshen
