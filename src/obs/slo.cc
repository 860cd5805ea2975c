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

SloMonitor::Shared::Shared(size_t size)
    : ring_size(size), ring(new Slot[size]) {}

SloMonitor::SloMonitor(Options options)
    : options_(options), state_(new std::atomic<uint8_t>(0)) {
  // Capacity far beyond the slow window: a reader would have to stall
  // across 4x slow_window ObservePeriod calls for its scan to race a
  // wrap-around overwrite.
  size_t ring_size = 1;
  const size_t want =
      static_cast<size_t>(std::ceil(options_.slow_window_periods)) * 4;
  while (ring_size < want) ring_size <<= 1;
  shared_ = std::make_unique<Shared>(ring_size);

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
  Shared& s = *shared_;
  const uint64_t head = s.head.load(std::memory_order_relaxed);
  Slot& slot = s.ring[head % s.ring_size];
  slot.end.store(period_end, std::memory_order_relaxed);
  slot.accesses.store(accesses, std::memory_order_relaxed);
  slot.fresh.store(std::min(fresh_accesses, accesses),
                   std::memory_order_relaxed);
  slot.age_good.store(std::min(age_slo_accesses, accesses),
                      std::memory_order_relaxed);
  const uint64_t good =
      options_.good_is_age_slo ? std::min(age_slo_accesses, accesses)
                               : std::min(fresh_accesses, accesses);
  s.total_accesses.fetch_add(accesses, std::memory_order_relaxed);
  // Release pairs with Report()'s acquire load of total_good.
  s.total_good.fetch_add(good, std::memory_order_release);
  s.now.store(period_end, std::memory_order_relaxed);
  // Publish the slot: readers only scan below head.
  s.head.store(head + 1, std::memory_order_release);

  const SloWindowView fast =
      WindowView(head + 1, options_.fast_window_periods);
  const SloWindowView slow =
      WindowView(head + 1, options_.slow_window_periods);

  const SloState prev = state();
  SloState next = SloState::kOk;
  if (fast.burn_rate >= options_.page_burn_rate &&
      slow.burn_rate >= options_.warn_burn_rate) {
    next = SloState::kAlert;
  } else if (fast.burn_rate >= options_.warn_burn_rate) {
    next = SloState::kBurning;
  }
  if (next != prev) {
    s.transitions.fetch_add(1, std::memory_order_relaxed);
    s.last_transition_time.store(period_end, std::memory_order_relaxed);
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
  state_->store(static_cast<uint8_t>(next), std::memory_order_release);

  state_gauge_->Set(static_cast<double>(next));
  fast_burn_gauge_->Set(fast.burn_rate);
  slow_burn_gauge_->Set(slow.burn_rate);
  budget_remaining_gauge_->Set(
      std::clamp(1.0 - slow.burn_rate * slow.periods /
                           options_.slow_window_periods,
                 0.0, 1.0));
}

SloWindowView SloMonitor::WindowView(uint64_t head, double window) const {
  const Shared& s = *shared_;
  SloWindowView view;
  view.length_periods = window;
  const uint64_t periods =
      std::min<uint64_t>(head, static_cast<uint64_t>(window));
  for (uint64_t i = 0; i < periods; ++i) {
    const Slot& slot = s.ring[(head - 1 - i) % s.ring_size];
    view.accesses += slot.accesses.load(std::memory_order_relaxed);
    view.good += options_.good_is_age_slo
                     ? slot.age_good.load(std::memory_order_relaxed)
                     : slot.fresh.load(std::memory_order_relaxed);
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
  const Shared& s = *shared_;
  SloReport report;
  report.objective = options_.objective;
  report.error_budget = 1.0 - options_.objective;
  report.good_is_age_slo = options_.good_is_age_slo;
  report.age_slo = options_.age_slo;
  // Acquire pairs with the writer's release store: every slot below this
  // head is fully written.
  const uint64_t head = s.head.load(std::memory_order_acquire);
  report.state = state();
  report.transitions = s.transitions.load(std::memory_order_relaxed);
  report.last_transition_time =
      s.last_transition_time.load(std::memory_order_relaxed);
  report.fast = WindowView(head, options_.fast_window_periods);
  report.slow = WindowView(head, options_.slow_window_periods);
  // Good first: every period counted in it was added to total_accesses
  // before, so the pair read here never has good > accesses.
  report.total_good = s.total_good.load(std::memory_order_acquire);
  report.total_accesses = s.total_accesses.load(std::memory_order_relaxed);
  report.overall_good_ratio =
      report.total_accesses > 0
          ? static_cast<double>(report.total_good) /
                static_cast<double>(report.total_accesses)
          : 1.0;
  report.budget_remaining = std::clamp(
      1.0 - report.slow.burn_rate * report.slow.periods /
                options_.slow_window_periods,
      0.0, 1.0);
  report.now = s.now.load(std::memory_order_relaxed);
  return report;
}

}  // namespace obs
}  // namespace freshen
