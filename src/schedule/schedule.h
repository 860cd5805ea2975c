// Materialized synchronization schedules. The planner produces *frequencies*;
// the mirror site executes a concrete timeline of sync operations. Under the
// Fixed Order policy each element is refreshed at a fixed interval 1/f_i,
// with deterministic phase staggering so the instantaneous load stays near
// the average (all elements repeatedly synced in the same order — the
// policy [5] found best).
#ifndef FRESHEN_SCHEDULE_SCHEDULE_H_
#define FRESHEN_SCHEDULE_SCHEDULE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/result.h"
#include "model/element.h"
#include "rng/distributions.h"
#include "rng/rng.h"

namespace freshen {

/// Where an element stands on its Fixed-Order timeline.
struct FixedOrderHistory {
  /// True once the element has been synced.
  bool synced = false;
  /// Its last sync time (read only when `synced`).
  double last_sync = 0.0;
  /// Its first-funded anchor: the start of the first period in which its
  /// frequency was > 0 (read only when never synced). 0 for a plan in force
  /// from t = 0.
  double anchor = 0.0;
};

/// Calls emit(t) for every Fixed-Order sync instant of `element` in
/// [from, until) at `frequency`; no-op for frequency <= 0. This is THE
/// Fixed-Order timeline: the online loop calls it once per element and
/// period, and the simulator and SyncSchedule::FixedOrder call its anchor-0
/// case below, so the loop and the simulator can never drift apart.
///  - A synced element is due every 1/f after its last sync.
///  - A never-synced element is first due at anchor + phase / f under its
///    current f. When that is already before `from` (its f rose, or its
///    first fetch failed), it is due at `from` instead, and every 1/f after.
template <typename Emit>
void ForEachFixedOrderSyncTime(size_t element, size_t num_elements,
                               double frequency,
                               const FixedOrderHistory& history, double from,
                               double until, Emit&& emit) {
  if (frequency <= 0.0) return;
  const double interval = 1.0 / frequency;
  double t;
  if (history.synced) {
    t = history.last_sync + interval;
  } else {
    // Deterministic phase stagger in [0, 1): spreads the first syncs of
    // equal-frequency elements across their interval.
    const double phase =
        num_elements > 0
            ? static_cast<double>(element) / static_cast<double>(num_elements)
            : 0.0;
    t = std::max(from, history.anchor + interval * phase);
  }
  for (; t < until; t += interval) {
    if (t >= from) emit(t);
  }
}

/// The anchor-0 case over [0, horizon): every element is never synced and
/// funded from t = 0, so it fires at t = (k + element/num_elements) / f for
/// k = 0, 1, … (0 + phase / f is exactly phase / f).
template <typename Emit>
void ForEachFixedOrderSyncTime(size_t element, size_t num_elements,
                               double frequency, double horizon, Emit&& emit) {
  ForEachFixedOrderSyncTime(element, num_elements, frequency,
                            FixedOrderHistory{}, 0.0, horizon,
                            std::forward<Emit>(emit));
}

/// Calls emit(t) for every Poisson-scheduled sync instant over [0, horizon):
/// exponential gaps of rate `frequency` drawn from `rng` — the "purely
/// random" policy of [5], which the simulator runs for the policy ablation.
/// No-op for frequency <= 0 (the rng is left untouched).
template <typename Emit>
void ForEachPoissonSyncTime(double frequency, double horizon, Rng& rng,
                            Emit&& emit) {
  if (frequency <= 0.0) return;
  for (double t = SampleExponential(rng, frequency); t < horizon;
       t += SampleExponential(rng, frequency)) {
    emit(t);
  }
}

/// One sync operation: refresh `element` at `time` (period units).
struct SyncEvent {
  double time = 0.0;
  size_t element = 0;

  friend bool operator==(const SyncEvent& a, const SyncEvent& b) = default;
};

/// A time-sorted sequence of sync operations over [0, horizon).
class SyncSchedule {
 public:
  /// Builds the fixed-order timeline for `frequencies` (per period) over
  /// `horizon` periods. Element i fires at (k + phase_i) / f_i for k = 0,1,…
  /// with phase_i = i / N staggering. Frequencies must be >= 0 and finite;
  /// zero-frequency elements never appear. Fails on negative horizon or
  /// malformed frequencies.
  static Result<SyncSchedule> FixedOrder(const std::vector<double>& frequencies,
                                         double horizon);

  /// All events, sorted by time (ties broken by element id).
  const std::vector<SyncEvent>& events() const { return events_; }

  /// Number of sync operations scheduled.
  size_t size() const { return events_.size(); }

  /// Total bandwidth the schedule consumes given element sizes, divided by
  /// the horizon — i.e. average bandwidth per period.
  double BandwidthPerPeriod(const ElementSet& elements, double horizon) const;

 private:
  std::vector<SyncEvent> events_;
};

}  // namespace freshen

#endif  // FRESHEN_SCHEDULE_SCHEDULE_H_
