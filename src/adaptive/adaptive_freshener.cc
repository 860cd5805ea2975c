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
  if (!(options.learner.smoothing > 0.0)) {
    return Status::InvalidArgument(
        "learner smoothing must be positive for cold starts");
  }
  if (!(options.learner.decay > 0.0 && options.learner.decay <= 1.0)) {
    return Status::InvalidArgument("learner decay must be in (0, 1]");
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
      sizes_(std::make_shared<const std::vector<double>>(std::move(sizes))),
      bandwidth_(bandwidth),
      learner_(sizes_->size(), options.learner),
      evidence_(sizes_->size()),
      frequencies_(sizes_->size(), 0.0) {
  const size_t n = sizes_->size();
  believed_.weights.assign(n, 0.0);
  // Every element starts at the prior; RefreshBelievedProblem rewrites
  // only the elements with evidence.
  believed_.change_rates.assign(n, options_.prior_change_rate);
  believed_.costs.assign(n, 1.0);
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

void AdaptiveFreshener::EndPeriod() { learner_.EndPeriod(); }

ElementSet AdaptiveFreshener::BelievedCatalog() const {
  const std::vector<double>& sizes = *sizes_;
  ElementSet catalog(sizes.size());
  const auto profile = learner_.Snapshot();
  FRESHEN_CHECK(profile.ok());  // Smoothing > 0 makes this infallible.
  for (size_t i = 0; i < sizes.size(); ++i) {
    catalog[i].access_prob = (*profile)[i];
    catalog[i].size = sizes[i];
    catalog[i].change_rate = BelievedChangeRate(i);
  }
  return catalog;
}

Status AdaptiveFreshener::RefreshBelievedProblem() {
  FRESHEN_RETURN_IF_ERROR(learner_.SnapshotInto(&believed_.weights));
  // Only an element with an evidence row can believe anything but the
  // prior the constructor gave it, so only rows are rewritten.
  for (size_t row = 0; row < evidence_.rows(); ++row) {
    const size_t element = evidence_.ElementOf(row);
    believed_.change_rates[element] = BelievedChangeRate(element);
  }
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
  // FreshenPlanner::Plan's exact path on the problem refilled above,
  // without its ElementSet, its problem copy, or the plan metrics the
  // controller would discard. The class transform's working memory is
  // kept across replans and expands straight into frequencies_.
  FRESHEN_ASSIGN_OR_RETURN(
      const size_t rows,
      SolveByClasses(solver_, believed_, &classes_, &frequencies_));
  plan_classes_->Set(static_cast<double>(rows));
  RescaleToBudget([this](size_t i) { return (*sizes_)[i]; }, bandwidth_,
                  &frequencies_);
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
