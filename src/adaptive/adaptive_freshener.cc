#include "adaptive/adaptive_freshener.h"

#include <cmath>

#include "common/macros.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "obs/recorder.h"
#include "obs/trace.h"

namespace freshen {

Result<AdaptiveFreshener> AdaptiveFreshener::Create(std::vector<double> sizes,
                                                    double bandwidth,
                                                    Options options) {
  if (sizes.empty()) {
    return Status::InvalidArgument("controller needs at least one element");
  }
  for (size_t i = 0; i < sizes.size(); ++i) {
    if (!(sizes[i] > 0.0) || !std::isfinite(sizes[i])) {
      return Status::InvalidArgument(
          StrFormat("size %zu must be positive and finite", i));
    }
  }
  if (!(bandwidth > 0.0)) {
    return Status::InvalidArgument("bandwidth must be positive");
  }
  if (!(options.replan_every_periods > 0.0)) {
    return Status::InvalidArgument("replan cadence must be positive");
  }
  if (!(options.prior_change_rate > 0.0)) {
    return Status::InvalidArgument("prior change rate must be positive");
  }
  if (options.learner.smoothing <= 0.0) {
    return Status::InvalidArgument(
        "learner smoothing must be positive for cold starts");
  }
  if (options.delta.enable) {
    if (options.planner.mode != PlanMode::kExact) {
      return Status::InvalidArgument(
          "incremental replanning requires the exact planner "
          "(partitioned plans have no per-element solve to patch)");
    }
    if (!(options.delta.full_churn_threshold > 0.0)) {
      return Status::InvalidArgument(
          "delta.full_churn_threshold must be positive");
    }
    if (!(options.delta.value_deadband >= 0.0)) {
      return Status::InvalidArgument("delta.value_deadband must be >= 0");
    }
  }
  // Streaming trackers start from the same prior the batch path reports
  // for unobserved elements, so the cold-start plans coincide.
  options.streaming.initial_rate = options.prior_change_rate;
  if (options.streaming.initial_rate < options.streaming.min_rate ||
      options.streaming.initial_rate > options.streaming.max_rate ||
      !(options.streaming.min_rate > 0.0) || !(options.streaming.gain > 0.0)) {
    return Status::InvalidArgument(
        "streaming options must satisfy 0 < min_rate <= prior <= max_rate "
        "with positive gain");
  }
  AdaptiveFreshener controller(std::move(sizes), bandwidth, options);
  // Install the initial plan from priors.
  FRESHEN_RETURN_IF_ERROR(
      controller.MaybeReplan(0.0, /*force=*/true).status());
  return controller;
}

AdaptiveFreshener::AdaptiveFreshener(std::vector<double> sizes,
                                     double bandwidth, Options options)
    : options_(options),
      sizes_(std::move(sizes)),
      bandwidth_(bandwidth),
      learner_(sizes_.size(), options.learner),
      polls_(sizes_.size(), 0),
      changes_(sizes_.size(), 0),
      watch_time_(sizes_.size(), 0.0),
      last_sync_time_(sizes_.size(), 0.0),
      synced_before_(sizes_.size(), 0),
      streaming_(options.estimator_mode == RateEstimatorMode::kStreaming
                     ? std::vector<StreamingRateEstimator>(
                           sizes_.size(),
                           StreamingRateEstimator(options.streaming))
                     : std::vector<StreamingRateEstimator>()),
      frequencies_(sizes_.size(), 0.0) {
  const size_t n = sizes_.size();
  believed_.weights.assign(
      n, options_.planner.technique == Technique::kGeneral
             ? 1.0 / static_cast<double>(n)
             : 0.0);
  believed_.change_rates.assign(n, 0.0);
  believed_.costs = options_.planner.size_aware ? sizes_
                                                : std::vector<double>(n, 1.0);
  believed_.bandwidth = bandwidth_;
  obs::MetricsRegistry& registry = options_.registry != nullptr
                                       ? *options_.registry
                                       : obs::MetricsRegistry::Global();
  replans_counter_ = registry.GetCounter("freshen_adaptive_replans_total");
  replan_latency_ = registry.GetHistogram("freshen_adaptive_replan_seconds",
                                          obs::LatencySecondsBuckets());
  plan_classes_ = registry.GetGauge("freshen_adaptive_plan_classes");
}

void AdaptiveFreshener::ObserveAccess(size_t element) {
  learner_.Observe(element);
}

void AdaptiveFreshener::ObserveSync(size_t element, bool changed,
                                    double now) {
  FRESHEN_CHECK(element < sizes_.size());
  if (synced_before_[element]) {
    // Only gaps between consecutive syncs carry change evidence; gap <= 0
    // is a zero-observation window (duplicate timestamp, clock step) and
    // is ignored by both estimator modes.
    const double gap = now - last_sync_time_[element];
    if (gap > 0.0) {
      ++polls_[element];
      if (changed) ++changes_[element];
      watch_time_[element] += gap;
      if (!streaming_.empty()) {
        streaming_[element].ObservePoll(changed, gap);
      }
    }
  }
  synced_before_[element] = 1;
  last_sync_time_[element] = now;
}

void AdaptiveFreshener::EndPeriod() { learner_.EndPeriod(); }

double AdaptiveFreshener::BelievedChangeRate(size_t element) const {
  FRESHEN_CHECK(element < sizes_.size());
  if (!streaming_.empty()) {
    return streaming_[element].observations() > 0
               ? streaming_[element].rate()
               : options_.prior_change_rate;
  }
  if (polls_[element] == 0) return options_.prior_change_rate;
  // Bias-reduced detector estimate with the mean inter-sync gap as the
  // effective poll interval (exact for equal gaps; a documented
  // approximation otherwise). BiasReducedRate floors the zero-detection
  // case away from the solver's absorbing lambda = 0 state.
  return BiasReducedRate(polls_[element], changes_[element],
                         watch_time_[element] /
                             static_cast<double>(polls_[element]));
}

ElementSet AdaptiveFreshener::BelievedCatalog() const {
  ElementSet catalog(sizes_.size());
  const auto profile = learner_.Snapshot();
  FRESHEN_CHECK(profile.ok());  // Smoothing > 0 makes this infallible.
  for (size_t i = 0; i < sizes_.size(); ++i) {
    catalog[i].access_prob = (*profile)[i];
    catalog[i].size = sizes_[i];
    catalog[i].change_rate = BelievedChangeRate(i);
  }
  return catalog;
}

void AdaptiveFreshener::BelievedProfileInto(std::vector<double>* out) const {
  // Smoothing > 0 makes this infallible.
  FRESHEN_CHECK(learner_.SnapshotInto(out).ok());
}

const CoreProblem* AdaptiveFreshener::solved_problem() const {
  return replanner_ != nullptr ? &replanner_->problem() : nullptr;
}

Status AdaptiveFreshener::RefreshBelievedProblem() {
  if (options_.planner.technique == Technique::kPerceived) {
    FRESHEN_RETURN_IF_ERROR(learner_.SnapshotInto(&believed_.weights));
  }
  for (size_t i = 0; i < sizes_.size(); ++i) {
    believed_.change_rates[i] = BelievedChangeRate(i);
  }
  return Status::OK();
}

Status AdaptiveFreshener::ReplanDelta() {
  ReplanInfo info;
  info.used_delta = true;
  if (replanner_ == nullptr) {
    DeltaReplanner::Options replan_options;
    replan_options.threads = options_.delta.threads;
    replan_options.full_churn_threshold = options_.delta.full_churn_threshold;
    replan_options.registry = options_.registry;
    FRESHEN_ASSIGN_OR_RETURN(replanner_,
                             DeltaReplanner::Create(believed_, replan_options));
    info.path = ReplanPath::kFull;
    info.dirty = sizes_.size();
  } else {
    // Deadbanded diff against the problem the current plan solves. The
    // learner's renormalization nudges EVERY weight every period; the
    // relative deadband keeps that global drift from forcing 100% churn,
    // while any real movement (including activation/deactivation, where
    // the old value 0 makes the band vacuous) is re-submitted.
    const CoreProblem& solved = replanner_->problem();
    const double band = options_.delta.value_deadband;
    std::vector<ElementUpdate> updates;
    for (size_t i = 0; i < sizes_.size(); ++i) {
      const bool weight_moved =
          std::fabs(believed_.weights[i] - solved.weights[i]) >
          band * solved.weights[i];
      const bool rate_moved =
          std::fabs(believed_.change_rates[i] - solved.change_rates[i]) >
          band * solved.change_rates[i];
      if (weight_moved || rate_moved) {
        updates.push_back({i, believed_.weights[i],
                           believed_.change_rates[i], believed_.costs[i]});
      }
    }
    FRESHEN_ASSIGN_OR_RETURN(DeltaReplanner::ReplanResult replan,
                             replanner_->Replan(updates));
    info.path = replan.path;
    info.dirty = replan.dirty;
    // The feasibility rescale below couples every frequency to the total
    // spend: the plan is byte-unchanged only when the replanner's output
    // is byte-unchanged everywhere.
    info.all_touched = replan.all_touched || !replanner_->touched().empty();
  }
  // Materialize and apply the planner's own feasibility rescale, so a
  // delta-mode plan is byte-identical to the full planner run on the solved
  // catalog.
  replanner_->MaterializeFrequencies(&frequencies_);
  RescaleToBudget([this](size_t i) { return sizes_[i]; }, bandwidth_,
                  &frequencies_);
  last_replan_ = info;
  return Status::OK();
}

Result<bool> AdaptiveFreshener::MaybeReplan(double now, bool force) {
  if (!force && num_replans_ > 0 &&
      now - last_plan_time_ < options_.replan_every_periods) {
    return false;
  }
  obs::ScopedSpan span("replan");
  WallTimer timer;
  FRESHEN_RETURN_IF_ERROR(RefreshBelievedProblem());
  if (options_.delta.enable) {
    FRESHEN_RETURN_IF_ERROR(ReplanDelta());
  } else {
    const FreshenPlanner planner(options_.planner);
    if (options_.planner.mode == PlanMode::kExact) {
      // FreshenPlanner::Plan's exact path on the problem refilled above,
      // without its ElementSet, its problem copy, or the plan metrics the
      // controller would discard. The class transform's working memory is
      // kept across replans and expands straight into frequencies_.
      FRESHEN_ASSIGN_OR_RETURN(
          const size_t rows,
          planner.SolveExact(believed_, &classes_, &frequencies_));
      plan_classes_->Set(static_cast<double>(rows));
      RescaleToBudget([this](size_t i) { return sizes_[i]; }, bandwidth_,
                      &frequencies_);
    } else {
      // The partitioning heuristics work on the catalog itself.
      FRESHEN_ASSIGN_OR_RETURN(FreshenPlan plan,
                               planner.Plan(BelievedCatalog(), bandwidth_));
      frequencies_ = std::move(plan.frequencies);
    }
    last_replan_ = ReplanInfo();
    last_replan_.dirty = sizes_.size();
  }
  last_plan_time_ = now;
  ++num_replans_;
  replans_counter_->Increment();
  replan_latency_->Record(timer.ElapsedSeconds());
  {
    obs::EventRecorder& recorder = obs::EventRecorder::Global();
    if (recorder.enabled()) {
      obs::Event event;
      event.name = "replan";
      event.category = "adaptive";
      event.clock = obs::EventClock::kVirtual;
      event.track = obs::kTrackOnlineLoop;
      event.ts = now;
      event.arg0 = static_cast<double>(num_replans_);
      event.arg0_name = "replans";
      recorder.Emit(event);
    }
  }
  return true;
}

}  // namespace freshen
