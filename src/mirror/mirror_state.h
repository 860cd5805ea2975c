// Versioned source and mirror state machines — the operational counterpart
// of the discrete-event simulator. The simulator (src/sim) batch-processes a
// whole horizon for evaluation; these classes expose the same semantics as
// incremental, queryable state so an online controller (src/adaptive) or an
// application can drive them step by step.
//
//   VersionedSource : the master data source. Each element owns a Poisson
//                     update process on its own RNG stream; only the next
//                     pending update time is kept, and an element advances
//                     only when a sync touches it. Rates are read from the
//                     catalog the source was built over, not copied. An
//                     element keeps only its stream's 8-byte seed until its
//                     first update is first read; only then is that update
//                     drawn, and only when a sync passes it is the 32-byte
//                     stream built. Set-up thus costs one root draw per
//                     element, and the rest of the work follows the
//                     elements a run touches.
//   MirrorState     : the local copies. Per element it keeps the last sync
//                     time. The first source update a copy has not picked
//                     up is the source's pending update for that element
//                     (a sync advances the source exactly past the sync
//                     time), so the mirror reads it from the source's column
//                     instead of keeping a copy; that answers Definition 1
//                     (IsFresh) and Age at any time.
//
// Both hold bounded state per element (the source 32 bytes more for an
// element a sync has advanced past an update), so a mirror can run
// indefinitely.
#ifndef FRESHEN_MIRROR_MIRROR_STATE_H_
#define FRESHEN_MIRROR_MIRROR_STATE_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "model/element.h"
#include "rng/rng.h"

namespace freshen {

/// The master source: per-element Poisson update processes. Deterministic in
/// the seed; every element draws from its own stream, so the update times do
/// not depend on the order in which elements are advanced.
class VersionedSource {
 public:
  /// A source over `catalog`'s elements, each updating at its change_rate
  /// (per period; >= 0 and finite). The source reads the rates through a
  /// pointer to the catalog's element buffer, so that buffer must outlive
  /// the source, keep its place and keep its rates: do not resize, reassign
  /// or destroy the vector. Moving it is safe (a vector move keeps its
  /// buffer); a temporary catalog is rejected at compile time.
  static Result<VersionedSource> Create(const ElementSet& catalog,
                                        uint64_t seed);
  static Result<VersionedSource> Create(ElementSet&& catalog,
                                        uint64_t seed) = delete;

  /// Advances `element` to time `t`, discarding its updates at or before
  /// `t`, and returns its first update strictly after `t` (+infinity for a
  /// rate-0 element). Calls for one element must not go back in time.
  double AdvancePast(size_t element, double t);

  /// The element's first update after the time it was last advanced to
  /// (its first update overall before any AdvancePast). The first read
  /// draws the first update, so reads of one source must not race.
  double NextUpdate(size_t element) const {
    const double next = next_update_[element];
    return std::isnan(next) ? DrawFirstUpdate(element) : next;
  }

  /// Number of elements.
  size_t size() const { return next_update_.size(); }

 private:
  VersionedSource(const ElementSet& catalog, uint64_t seed);

  // Draws the element's first update into next_update_: the stream's
  // first exponential, or +infinity at rate 0. Each draw depends only on
  // the seed and the element, so the order of the reads does not matter.
  double DrawFirstUpdate(size_t element) const;

  // The element's stream, built at the first draw past its first update.
  Rng& Stream(size_t element);

  // The catalog's elements, read for their change rates.
  const Element* elements_;
  // Per element: its pending update, NaN until the first read draws it.
  mutable std::vector<double> next_update_;
  // Per element: its stream seed (the root draw Rng::Fork() would consume)
  // until has_stream_ is set, then its row in streams_.
  std::vector<uint64_t> seed_or_stream_;
  std::vector<bool> has_stream_;
  std::vector<Rng> streams_;
};

/// The mirror's local copies: per element, the last sync time; the first
/// source update the copy has missed is read from the source.
class MirrorState {
 public:
  /// A mirror of `source`, every copy in sync with it at time 0. The mirror
  /// reads the source's pending updates, so `source` must stay at this
  /// address for the mirror's lifetime, and only the mirror's Sync may
  /// advance it.
  explicit MirrorState(const VersionedSource& source);

  /// Refreshes `element` from the source at time `t` (>= its last sync).
  /// `source` must be the one the mirror was built over. Returns true when
  /// the fetched copy differed from the local one — exactly the poll signal
  /// the change estimator consumes.
  bool Sync(size_t element, double t, VersionedSource& source);

  /// Definition 1: is the local copy identical to the source at time `t`?
  /// `t` must not precede the element's last sync.
  bool IsFresh(size_t element, double t) const {
    FRESHEN_CHECK(element < last_sync_time_.size());
    return t < source_->NextUpdate(element);
  }

  /// Age of the local copy at time `t`: 0 when fresh, else the time since
  /// the first source update the mirror has not picked up.
  double Age(size_t element, double t) const {
    return IsFresh(element, t) ? 0.0 : t - FirstMissed(element);
  }

  /// Time of the first source update the copy of `element` has not picked
  /// up (+infinity for a rate-0 element).
  double FirstMissed(size_t element) const {
    return source_->NextUpdate(element);
  }

  /// Time `element` was last synced (0 before any sync).
  double LastSyncTime(size_t element) const {
    return last_sync_time_[element];
  }

  /// Every element's LastSyncTime, as one column.
  const std::vector<double>& LastSyncTimes() const { return last_sync_time_; }

  /// True once `element` has been synced (a sync at t=0 counts).
  bool Synced(size_t element) const { return synced_[element]; }

  /// Number of elements.
  size_t size() const { return last_sync_time_.size(); }

 private:
  const VersionedSource* source_;
  std::vector<double> last_sync_time_;
  std::vector<bool> synced_;
};

}  // namespace freshen

#endif  // FRESHEN_MIRROR_MIRROR_STATE_H_
