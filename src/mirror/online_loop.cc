#include "mirror/online_loop.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "obs/drift.h"
#include "obs/recorder.h"
#include "obs/slo.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "profile/profile.h"
#include "rng/distributions.h"
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
  if (truth.empty()) {
    return Status::InvalidArgument("truth catalog is empty");
  }
  if (!(options.accesses_per_period >= 0.0) ||
      !std::isfinite(options.accesses_per_period)) {
    return Status::InvalidArgument(
        "accesses_per_period must be finite and >= 0");
  }
  // The controller reports into the loop's registry unless its options name
  // their own.
  if (options.controller.registry == nullptr) {
    options.controller.registry = options.registry;
  }
  FRESHEN_ASSIGN_OR_RETURN(
      VersionedSource source,
      VersionedSource::Create(truth, options.seed ^ 0x737263ULL));
  FRESHEN_ASSIGN_OR_RETURN(
      AdaptiveFreshener controller,
      AdaptiveFreshener::Create(Sizes(truth), bandwidth, options.controller));
  return OnlineFreshenLoop(std::move(truth), std::move(source),
                           std::move(controller), options);
}

OnlineFreshenLoop::OnlineFreshenLoop(ElementSet truth, VersionedSource source,
                                     AdaptiveFreshener controller,
                                     Options options)
    : truth_(std::move(truth)),
      options_(options),
      source_(std::make_unique<VersionedSource>(std::move(source))),
      mirror_(*source_),
      controller_(
          std::make_unique<AdaptiveFreshener>(std::move(controller))),
      access_table_(std::make_unique<AliasTable>(AccessProbs(truth_))),
      access_rng_(options.seed ^ 0x616363ULL),
      first_funded_(truth_.size(), kNeverFunded),
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

Status OnlineFreshenLoop::SetTrueProfile(const std::vector<double>& weights) {
  if (weights.size() != truth_.size()) {
    return Status::InvalidArgument("profile length mismatch");
  }
  FRESHEN_ASSIGN_OR_RETURN(std::vector<double> probs,
                           NormalizeProbabilities(weights));
  for (size_t i = 0; i < truth_.size(); ++i) {
    truth_[i].access_prob = probs[i];
  }
  access_table_ = std::make_unique<AliasTable>(probs);
  return Status::OK();
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
  const size_t n = truth_.size();
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
                                due.push_back({i, t, truth_[i].size});
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
      if (!mirror_.IsFresh(sync.element, sync.time)) {
        timeline->MarkStale(sync.element, mirror_.FirstMissed(sync.element));
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
    const bool changed = mirror_.Sync(sync.element, sync.time, *source_);
    controller_->ObserveSync(sync.element, changed, first_sync ? 0.0 : gap);
    if (drift != nullptr) drift->ObserveSync(sync.element, changed, gap);
    if (options_.on_period_end) synced_scratch_.push_back(sync.element);
    ++stats.syncs;
    stats.bandwidth_spent += truth_[sync.element].size;
  };


  // This period's accesses, Poisson arrivals from the true profile, come in
  // time order; the sorted syncs merge into that stream, a sync ahead of an
  // access at the same time.
  size_t next_sync = 0;
  if (options_.accesses_per_period > 0.0) {
    for (double t = period_start + SampleExponential(
                                       access_rng_,
                                       options_.accesses_per_period);
         t < period_end;
         t += SampleExponential(access_rng_, options_.accesses_per_period)) {
      const auto element =
          static_cast<uint32_t>(access_table_->Sample(access_rng_));
      for (; next_sync < applied.size() && applied[next_sync].time <= t;
           ++next_sync) {
        apply_sync(applied[next_sync]);
      }
      controller_->ObserveAccess(element);
      ++stats.accesses;
      if (mirror_.IsFresh(element, t)) {
        ++fresh_accesses;
        ++age_good_accesses;  // Age 0 is within any age SLO.
        if (timeline != nullptr) timeline->OnAccess(element, t, 0.0);
      } else {
        const double age = mirror_.Age(element, t);
        age_sum.Add(age);
        if (slo != nullptr && age <= slo->age_slo()) ++age_good_accesses;
        if (timeline != nullptr) timeline->OnAccess(element, t, age);
      }
    }
  }
  for (; next_sync < applied.size(); ++next_sync) {
    apply_sync(applied[next_sync]);
  }
  if (timeline != nullptr) {
    // Open a ledger interval for everything still stale at the boundary
    // (MarkStale is idempotent, so already-open intervals are untouched),
    // then close this period's attribution window.
    for (size_t i = 0; i < truth_.size(); ++i) {
      if (!mirror_.IsFresh(i, period_end)) {
        timeline->MarkStale(i, mirror_.FirstMissed(i));
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

  // Estimator quality against the ground truth only the loop knows: mean
  // relative change-rate error of the controller's believed rates.
  KahanSum error_sum;
  size_t rated = 0;
  for (size_t i = 0; i < truth_.size(); ++i) {
    if (truth_[i].change_rate <= 0.0) continue;
    error_sum.Add(std::fabs(controller_->BelievedChangeRate(i) -
                            truth_[i].change_rate) /
                  truth_[i].change_rate);
    ++rated;
  }
  if (rated > 0) {
    lambda_error_gauge_->Set(error_sum.Total() / static_cast<double>(rated));
  }

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
    std::sort(synced_scratch_.begin(), synced_scratch_.end());
    synced_scratch_.erase(
        std::unique(synced_scratch_.begin(), synced_scratch_.end()),
        synced_scratch_.end());
    options_.on_period_end(stats, synced_scratch_);
    synced_scratch_.clear();
  }
  EmitPeriodEvent(recorder, obs::EventPhase::kEnd, period_end, period_start);
  return stats;
}

}  // namespace freshen
