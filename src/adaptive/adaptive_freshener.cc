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
      evidence_(sizes_->size()) {
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

Result<bool> AdaptiveFreshener::MaybeReplan(double now, bool force) {
  if (!force && num_replans_ > 0 &&
      now - last_plan_time_ < options_.replan_every_periods) {
    return false;
  }
  obs::ScopedSpan span("replan");
  WallTimer timer;
  // FreshenPlanner::Plan's exact path on the believed problem, without its
  // ElementSet, its problem columns, or the plan metrics the controller
  // would discard: each element's row is derived as the transform reads
  // it — the learned profile's weight, the believed rate, unit cost — and
  // only the class table keeps it.
  FRESHEN_ASSIGN_OR_RETURN(const double inv, learner_.InverseTotal());
  const Status solved = SolveClasses(
      solver_, sizes_->size(), bandwidth_,
      [this, inv](size_t i) {
        return CoreRow{learner_.Weight(i, inv), BelievedChangeRate(i), 1.0};
      },
      &classes_, &class_frequencies_);
  const std::vector<double>& sizes = *sizes_;
  RescaleToBudget([&sizes](size_t i) { return sizes[i]; }, bandwidth_,
                  classes_.class_of(), &class_frequencies_);
  FRESHEN_RETURN_IF_ERROR(solved);
  plan_classes_->Set(static_cast<double>(class_frequencies_.size()));
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
