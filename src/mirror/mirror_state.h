// MirrorState: what the mirror itself knows about its local copies — per
// element, the time of its last sync and whether it has been synced at all.
// Whether a copy is still fresh is a question about the source, which only
// the world (SimulatedWorld) can answer; the mirror keeps no view of it.
// Both columns are bounded per element, so a mirror can run indefinitely.
#ifndef FRESHEN_MIRROR_MIRROR_STATE_H_
#define FRESHEN_MIRROR_MIRROR_STATE_H_

#include <cstddef>
#include <vector>

#include "common/macros.h"

namespace freshen {

/// The mirror's local copies: per element, the last sync time.
class MirrorState {
 public:
  /// A mirror of `num_elements` copies, none synced yet.
  explicit MirrorState(size_t num_elements)
      : last_sync_time_(num_elements, 0.0), synced_(num_elements, false) {}

  /// Records a refresh of `element` at time `t` (>= its last sync).
  void RecordSync(size_t element, double t) {
    FRESHEN_CHECK(element < last_sync_time_.size());
    FRESHEN_CHECK(t >= last_sync_time_[element]);
    last_sync_time_[element] = t;
    synced_[element] = true;
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
  std::vector<double> last_sync_time_;
  std::vector<bool> synced_;
};

}  // namespace freshen

#endif  // FRESHEN_MIRROR_MIRROR_STATE_H_
