// MirrorState: what the mirror itself knows about its local copies — per
// element, the time of its last sync and whether it has been synced at all.
// Whether a copy is still fresh is a question about the source, which only
// the world (SimulatedWorld) can answer; the mirror keeps no view of it.
// Both columns are bounded per element, so a mirror can run indefinitely.
//
// The last-sync column is the one a serving daemon publishes, so it is kept
// in the form snapshots serve: a SyncColumn of one block per fixed
// par::ShardPlan shard. A snapshot shares the column's blocks by pointer
// instead of copying them, and a block that a snapshot holds is never
// written again: the column's next write to that shard first copies the
// block into a free one (copy on write). A mirror that nothing publishes
// writes every block in place.
#ifndef FRESHEN_MIRROR_MIRROR_STATE_H_
#define FRESHEN_MIRROR_MIRROR_STATE_H_

#include <array>
#include <cstddef>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "common/parallel.h"

namespace freshen {

/// One shard of a SyncColumn: the last-sync times of the elements in
/// [begin, end). Immutable while anything but its column holds it.
struct SyncBlock {
  size_t begin = 0;
  size_t end = 0;
  /// Time of the element's last applied sync (period units; 0 = never).
  std::vector<double> last_sync_time;

  size_t count() const { return end - begin; }

  /// Bytes the column holds (its capacity).
  size_t bytes() const { return last_sync_time.capacity() * sizeof(double); }
};

/// Per-element last-sync times in copy-on-write blocks, one per shard of
/// par::ShardPlan(size()). Owned and written by one thread (the loop
/// thread).
///
/// Copy on write: Set writes a block in place when the column holds its
/// only reference, and otherwise first copies it into a free block. The
/// replaced block is kept until its last other holder lets it go, then
/// returns to a free pool that every shard draws from; Recycle moves it
/// there. Every block has room for the largest shard, so any free block
/// takes any shard's copy. The reference count is exact only because every
/// other reference to a block is dropped on the writing thread or before a
/// happens-before edge to it (see serve/snapshot.h: snapshots are dropped
/// on the publisher thread, which is the loop thread, and readers hold only
/// pins and raw pointers). Which free block a copy lands in never changes
/// what the column holds.
class SyncColumn {
 public:
  /// Periods (Recycle calls) over which the pool is sized: it keeps as many
  /// free blocks as the busiest of them copied.
  static constexpr size_t kPoolPeriods = 8;

  /// A column of `num_elements` zeros.
  explicit SyncColumn(size_t num_elements);

  /// Number of elements.
  size_t size() const { return num_elements_; }

  /// The time stored for `element` (< size()).
  double Get(size_t element) const {
    const SyncBlock& block = *blocks_[geometry_.IndexOf(element)];
    return block.last_sync_time[element - block.begin];
  }

  /// Stores `t` for `element` (< size()), copying its block first when
  /// anything else holds it, and returns the time it replaced.
  double Set(size_t element, double t) {
    std::shared_ptr<SyncBlock>& block = blocks_[geometry_.IndexOf(element)];
    if (block.use_count() > 1) CopyOnWrite(block);
    double& slot = block->last_sync_time[element - block->begin];
    const double previous = slot;
    slot = t;
    return previous;
  }

  /// Block `s` (< par::ShardCount(size())), to share. While the returned
  /// pointer (or a copy of it) lives, the column does not write the block
  /// again.
  std::shared_ptr<const SyncBlock> block(size_t s) const { return blocks_[s]; }

  /// Moves every replaced block that nothing else holds any more into the
  /// free pool, then trims the pool to the most blocks copied in any of
  /// the last kPoolPeriods periods, the one this call closes included (the
  /// copies since the previous call, a count this call restarts). Call
  /// once per period, after the period's holders were released: the pool
  /// then holds what a busy period copies and no more.
  void Recycle();

  /// Blocks copied since the last Recycle, and how many of those copies
  /// went into a pooled block instead of a new allocation.
  size_t copies() const { return copies_; }
  size_t reuses() const { return reuses_; }

  /// Bytes of the spare blocks: replaced ones still held elsewhere, and the
  /// free pool.
  size_t spare_bytes() const;

 private:
  size_t BlockCapacity() const;
  void CopyOnWrite(std::shared_ptr<SyncBlock>& block);

  size_t num_elements_;
  par::ShardGeometry geometry_;
  std::vector<std::shared_ptr<SyncBlock>> blocks_;  // Per shard.
  std::vector<std::shared_ptr<SyncBlock>> replaced_;
  std::vector<std::shared_ptr<SyncBlock>> pool_;
  size_t copies_ = 0;
  size_t reuses_ = 0;
  // Blocks copied in each of the last kPoolPeriods periods, a ring indexed
  // by the Recycle count.
  std::array<size_t, kPoolPeriods> recent_copies_{};
  size_t recycles_ = 0;
};

/// The mirror's local copies: per element, the last sync time.
class MirrorState {
 public:
  /// A mirror of `num_elements` copies, none synced yet.
  explicit MirrorState(size_t num_elements)
      : last_sync_time_(num_elements), synced_(num_elements, false) {}

  /// Records a refresh of `element` at time `t` (>= its last sync) and
  /// returns its previous LastSyncTime.
  double RecordSync(size_t element, double t) {
    FRESHEN_CHECK(element < size());
    const double previous = last_sync_time_.Set(element, t);
    FRESHEN_CHECK(t >= previous);
    synced_[element] = true;
    return previous;
  }

  /// Time `element` was last synced (0 before any sync).
  double LastSyncTime(size_t element) const {
    return last_sync_time_.Get(element);
  }

  /// Every element's LastSyncTime, as the column snapshots share.
  const SyncColumn& LastSyncTimes() const { return last_sync_time_; }

  /// SyncColumn::Recycle on the last-sync column.
  void RecycleBlocks() { last_sync_time_.Recycle(); }

  /// True once `element` has been synced (a sync at t=0 counts).
  bool Synced(size_t element) const { return synced_[element]; }

  /// Number of elements.
  size_t size() const { return synced_.size(); }

 private:
  SyncColumn last_sync_time_;
  std::vector<bool> synced_;
};

}  // namespace freshen

#endif  // FRESHEN_MIRROR_MIRROR_STATE_H_
