#include "obs/slo.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/status.h"

namespace freshen {
namespace obs {

const char* SloStateName(SloState state) {
  switch (state) {
    case SloState::kOk:
      return "ok";
    case SloState::kBurning:
      return "burning";
    case SloState::kAlert:
      return "alert";
  }
  return "unknown";
}

SloMonitor::SloMonitor(Options options)
    : options_(options),
      // slow > fast >= 1, so the ring holds at least one period and every
      // period either window sums.
      ring_(static_cast<size_t>(options_.slow_window_periods)),
      mu_(new std::mutex),
      state_(new std::atomic<uint8_t>(0)) {
  report_.objective = options_.objective;
  report_.error_budget = 1.0 - options_.objective;
  report_.good_is_age_slo = options_.good_is_age_slo;
  report_.age_slo = options_.age_slo;
  report_.fast.length_periods = options_.fast_window_periods;
  report_.slow.length_periods = options_.slow_window_periods;

  MetricsRegistry& registry =
      options_.registry != nullptr ? *options_.registry
                                   : MetricsRegistry::Global();
  state_gauge_ = registry.GetGauge("freshen_slo_state");
  fast_burn_gauge_ = registry.GetGauge("freshen_slo_fast_burn_rate");
  slow_burn_gauge_ = registry.GetGauge("freshen_slo_slow_burn_rate");
  budget_remaining_gauge_ =
      registry.GetGauge("freshen_slo_budget_remaining");
  transitions_to_ok_ =
      registry.GetCounter("freshen_slo_transitions", {{"to", "ok"}});
  transitions_to_burning_ =
      registry.GetCounter("freshen_slo_transitions", {{"to", "burning"}});
  transitions_to_alert_ =
      registry.GetCounter("freshen_slo_transitions", {{"to", "alert"}});
}

Result<SloMonitor> SloMonitor::Create(Options options) {
  if (!(options.objective > 0.0 && options.objective < 1.0)) {
    return Status::InvalidArgument("SloMonitor: objective must be in (0, 1)");
  }
  if (!(options.age_slo >= 0.0) || !std::isfinite(options.age_slo)) {
    return Status::InvalidArgument(
        "SloMonitor: age_slo must be finite and >= 0");
  }
  if (!(options.fast_window_periods >= 1.0)) {
    return Status::InvalidArgument(
        "SloMonitor: fast_window_periods must be >= 1");
  }
  if (!(options.slow_window_periods > options.fast_window_periods)) {
    return Status::InvalidArgument(
        "SloMonitor: slow_window_periods must exceed fast_window_periods");
  }
  if (!std::isfinite(options.slow_window_periods) ||
      options.slow_window_periods > 1e6) {
    return Status::InvalidArgument(
        "SloMonitor: slow_window_periods out of range (max 1e6)");
  }
  if (!(options.warn_burn_rate > 0.0) ||
      !(options.page_burn_rate >= options.warn_burn_rate)) {
    return Status::InvalidArgument(
        "SloMonitor: need 0 < warn_burn_rate <= page_burn_rate");
  }
  return SloMonitor(options);
}

void SloMonitor::ObservePeriod(double period_end, uint64_t accesses,
                               uint64_t fresh_accesses,
                               uint64_t age_slo_accesses) {
  const uint64_t good =
      options_.good_is_age_slo ? std::min(age_slo_accesses, accesses)
                               : std::min(fresh_accesses, accesses);
  ring_[head_ % ring_.size()] = Period{accesses, good};
  ++head_;
  const SloWindowView fast = WindowView(options_.fast_window_periods);
  const SloWindowView slow = WindowView(options_.slow_window_periods);

  SloState next = SloState::kOk;
  if (fast.burn_rate >= options_.page_burn_rate &&
      slow.burn_rate >= options_.warn_burn_rate) {
    next = SloState::kAlert;
  } else if (fast.burn_rate >= options_.warn_burn_rate) {
    next = SloState::kBurning;
  }
  const double budget_remaining = std::clamp(
      1.0 - slow.burn_rate * slow.periods / options_.slow_window_periods, 0.0,
      1.0);
  bool transitioned = false;
  {
    std::lock_guard<std::mutex> lock(*mu_);
    if (next != report_.state) {
      transitioned = true;
      ++report_.transitions;
      report_.last_transition_time = period_end;
    }
    report_.state = next;
    report_.fast = fast;
    report_.slow = slow;
    report_.total_accesses += accesses;
    report_.total_good += good;
    report_.overall_good_ratio =
        report_.total_accesses > 0
            ? static_cast<double>(report_.total_good) /
                  static_cast<double>(report_.total_accesses)
            : 1.0;
    report_.budget_remaining = budget_remaining;
    report_.now = period_end;
  }
  state_->store(static_cast<uint8_t>(next), std::memory_order_release);

  if (transitioned) {
    switch (next) {
      case SloState::kOk:
        transitions_to_ok_->Increment();
        break;
      case SloState::kBurning:
        transitions_to_burning_->Increment();
        break;
      case SloState::kAlert:
        transitions_to_alert_->Increment();
        break;
    }
  }
  state_gauge_->Set(static_cast<double>(next));
  fast_burn_gauge_->Set(fast.burn_rate);
  slow_burn_gauge_->Set(slow.burn_rate);
  budget_remaining_gauge_->Set(budget_remaining);
}

SloWindowView SloMonitor::WindowView(double window) const {
  SloWindowView view;
  view.length_periods = window;
  const uint64_t periods =
      std::min<uint64_t>(head_, static_cast<uint64_t>(window));
  for (uint64_t i = 0; i < periods; ++i) {
    const Period& period = ring_[(head_ - 1 - i) % ring_.size()];
    view.accesses += period.accesses;
    view.good += period.good;
  }
  view.periods = periods;
  if (view.accesses > 0) {
    view.bad_ratio = 1.0 - static_cast<double>(view.good) /
                               static_cast<double>(view.accesses);
  }
  view.burn_rate = view.bad_ratio / (1.0 - options_.objective);
  return view;
}

SloReport SloMonitor::Report() const {
  std::lock_guard<std::mutex> lock(*mu_);
  return report_;
}

}  // namespace obs
}  // namespace freshen
