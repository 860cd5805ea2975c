// Versioned source and mirror state machines — the operational counterpart
// of the discrete-event simulator. The simulator (src/sim) batch-processes a
// whole horizon for evaluation; these classes expose the same semantics as
// incremental, queryable state so an online controller (src/adaptive) or an
// application can drive them step by step.
//
//   VersionedSource : the master data source. Each element owns a Poisson
//                     update process on its own RNG stream; only the next
//                     pending update time is kept, and an element advances
//                     only when a sync touches it.
//   MirrorState     : the local copies. Per element it keeps the time of the
//                     first source update the copy has not picked up, which
//                     answers Definition 1 (IsFresh) and Age at any time
//                     without touching the source.
//
// Both hold constant state per element, so a mirror can run indefinitely.
#ifndef FRESHEN_MIRROR_MIRROR_STATE_H_
#define FRESHEN_MIRROR_MIRROR_STATE_H_

#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "rng/rng.h"

namespace freshen {

/// The master source: per-element Poisson update processes. Deterministic in
/// the seed; every element draws from its own stream, so the update times do
/// not depend on the order in which elements are advanced.
class VersionedSource {
 public:
  /// A source over `change_rates.size()` elements with the given Poisson
  /// rates (per period). Rates must be >= 0 and finite.
  static Result<VersionedSource> Create(std::vector<double> change_rates,
                                        uint64_t seed);

  /// Advances `element` to time `t`, discarding its updates at or before
  /// `t`, and returns its first update strictly after `t` (+infinity for a
  /// rate-0 element). Calls for one element must not go back in time.
  double AdvancePast(size_t element, double t);

  /// The element's first update after the time it was last advanced to
  /// (its first update overall before any AdvancePast).
  double NextUpdate(size_t element) const { return next_update_[element]; }

  /// Number of elements.
  size_t size() const { return rates_.size(); }

 private:
  VersionedSource(std::vector<double> rates, uint64_t seed);

  std::vector<double> rates_;
  std::vector<double> next_update_;
  std::vector<Rng> streams_;
};

/// The mirror's local copies: per element, the last sync time and the first
/// source update the copy has missed.
class MirrorState {
 public:
  /// A mirror of `source`, every copy in sync with it at time 0.
  explicit MirrorState(const VersionedSource& source);

  /// Refreshes `element` from the source at time `t` (>= its last sync).
  /// Returns true when the fetched copy differed from the local one —
  /// exactly the poll signal the change estimator consumes.
  bool Sync(size_t element, double t, VersionedSource& source);

  /// Definition 1: is the local copy identical to the source at time `t`?
  /// `t` must not precede the element's last sync.
  bool IsFresh(size_t element, double t) const {
    FRESHEN_CHECK(element < first_missed_.size());
    return t < first_missed_[element];
  }

  /// Age of the local copy at time `t`: 0 when fresh, else the time since
  /// the first source update the mirror has not picked up.
  double Age(size_t element, double t) const {
    return IsFresh(element, t) ? 0.0 : t - first_missed_[element];
  }

  /// Time of the first source update the copy of `element` has not picked
  /// up (+infinity for a rate-0 element).
  double FirstMissed(size_t element) const { return first_missed_[element]; }

  /// Time `element` was last synced (0 before any sync).
  double LastSyncTime(size_t element) const {
    return last_sync_time_[element];
  }

  /// Every element's LastSyncTime, as one column.
  const std::vector<double>& LastSyncTimes() const { return last_sync_time_; }

  /// True once `element` has been synced (a sync at t=0 counts).
  bool Synced(size_t element) const { return synced_[element]; }

  /// Number of elements.
  size_t size() const { return first_missed_.size(); }

 private:
  std::vector<double> last_sync_time_;
  std::vector<double> first_missed_;
  std::vector<bool> synced_;
};

}  // namespace freshen

#endif  // FRESHEN_MIRROR_MIRROR_STATE_H_
