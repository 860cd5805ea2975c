// Immutable, sharded serving state for the freshend daemon.
//
// A ServeSnapshot is what a concurrent query reads: the controller's current
// plan (frequencies, the change rates it was solved against) and the
// mirror's last-sync times, frozen at one publication instant, plus the
// catalog's sizes. Snapshots are immutable after publication — readers
// never see a value change under them — and a snapshot copies nothing that
// another component already holds:
//
//   * The plan is one PlanTable, kept per class as the controller keeps it
//     (the paper's Transformed Problem, §3.2): each element's class id, and
//     per class the frequency and planned rate. It is copied only at a
//     publish that follows a replan; every other snapshot shares it by
//     pointer.
//   * Last-sync times are the mirror's own SyncColumn blocks
//     (mirror/mirror_state.h), one per shard of the fixed par::ShardPlan
//     the compute spine uses, shared by pointer. A block is immutable once
//     a snapshot holds it: the mirror's next write to that shard copies it
//     first. A publish digests only the blocks written since the last one,
//     so publication is O(written shards), plus O(N) once per replan.
//   * Sizes never change: every snapshot holds the one size column the
//     controller plans with.
//
// Consistency is checkable from the reader side: the snapshot records a
// digest per shard block, the plan table and the size column carry one
// each, and the snapshot records the combination of all of them at
// publication time. A reader that ever observed a torn snapshot (parts from
// two different publications) would recompute a different combination —
// the torture test and the serving bench both recompute and compare on
// every sampled query.
#ifndef FRESHEN_SERVE_SNAPSHOT_H_
#define FRESHEN_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/parallel.h"
#include "common/plan_classes.h"
#include "common/result.h"
#include "mirror/mirror_state.h"
#include "model/element.h"

namespace freshen {
namespace serve {

/// The controller's plan as snapshots serve it. Immutable while any
/// snapshot holds it (SnapshotBuilder rewrites only a table that no
/// snapshot holds).
struct PlanTable {
  /// Element -> class id; every id is below the class count.
  std::vector<uint32_t> class_of;
  /// Per class: planned sync frequency (per period).
  std::vector<double> frequency;
  /// Per class: the controller-believed change rate the plan was solved
  /// against.
  std::vector<double> change_rate;
  /// Sum of frequency times size over the elements: each par::ShardPlan
  /// shard's partial in index order, the partials summed in shard order.
  double plan_bandwidth = 0.0;
  /// Order-sensitive digest over the columns (see DigestPlan).
  uint64_t digest = 0;

  /// Bytes the three columns hold (their capacity).
  size_t bytes() const {
    return class_of.capacity() * sizeof(uint32_t) +
           (frequency.capacity() + change_rate.capacity()) * sizeof(double);
  }
};

/// Order-sensitive digest of a shard block's last-sync times and bounds: a
/// 4-lane, 64-bit-word round of the xxHash64 kind. Recomputable by readers
/// to prove a snapshot was not torn.
uint64_t DigestShard(const SyncBlock& block);

/// The same digest over a plan table's class ids, class frequencies and
/// class rates, their lengths and its plan bandwidth.
uint64_t DigestPlan(const PlanTable& plan);

/// The same digest over one whole column (the shared size column), bounded
/// by [0, column.size()).
uint64_t DigestColumn(const std::vector<double>& column);

/// Per-element view assembled by ServeSnapshot::Lookup.
struct ElementView {
  double frequency = 0.0;
  double change_rate = 0.0;
  double size = 1.0;
  double last_sync_time = 0.0;
};

/// Aggregate facts frozen at publication.
struct SnapshotStats {
  /// Publication epoch (EpochDomain::Advance value; 1-based).
  uint64_t epoch = 0;
  /// Number of replans the controller had installed when published.
  uint64_t plan_version = 0;
  /// Loop time at publication (whole periods completed).
  double published_at = 0.0;
  /// Elements in the catalog.
  size_t num_elements = 0;
  /// Shards in the plan.
  size_t num_shards = 0;
  /// Shard blocks written since the previous publication (new to this
  /// snapshot, so digested by its publish).
  size_t shards_rebuilt = 0;
  /// Blocks the mirror's column copied on write since its last Recycle,
  /// into a pooled block rather than a new allocation.
  size_t shards_recycled = 0;
  /// The plan table's plan bandwidth (sum of frequencies times sizes).
  double plan_bandwidth = 0.0;
  /// Bytes held for serving after this publication: the column's live
  /// blocks (8 per element, each block with room for the largest shard),
  /// its spare blocks (replaced ones that older snapshots still hold, and
  /// the free pool), and the builder's live and spare plan tables. The
  /// spare blocks' and the plan tables' shares of it follow.
  size_t held_bytes = 0;
  size_t held_pool_bytes = 0;
  size_t held_plan_bytes = 0;
};

/// One immutable published state. Create via SnapshotBuilder; query from any
/// thread without synchronization (all state is const after publication).
class ServeSnapshot {
 public:
  /// The element count.
  size_t size() const { return num_elements_; }

  /// Publication epoch.
  uint64_t epoch() const { return stats_.epoch; }

  /// Aggregate facts.
  const SnapshotStats& stats() const { return stats_; }

  /// The combined digest recorded at publication.
  uint64_t combined_digest() const { return combined_digest_; }

  /// Per-element columns for `element` (must be < size()). Lock-free:
  /// plain array reads, no atomics.
  ElementView Lookup(size_t element) const {
    const PlanTable& plan = *plan_;
    const uint32_t c = plan.class_of[element];
    const SyncBlock& block = *shards_[geometry_.IndexOf(element)];
    return ElementView{plan.frequency[c], plan.change_rate[c],
                       (*sizes_)[element],
                       block.last_sync_time[element - block.begin]};
  }

  /// The shard blocks (for iteration / consistency checks).
  const std::vector<std::shared_ptr<const SyncBlock>>& shards() const {
    return shards_;
  }

  /// Per shard block, its digest recorded at publication.
  const std::vector<uint64_t>& shard_digests() const { return digests_; }

  /// The plan table, shared by every snapshot published since the last
  /// replan.
  const std::shared_ptr<const PlanTable>& plan() const { return plan_; }

  /// The size column, shared by every snapshot of one builder.
  const std::shared_ptr<const std::vector<double>>& size_column() const {
    return sizes_;
  }

  /// Recomputes every digest and their combination and compares against
  /// the values recorded at publication, and checks that the plan table
  /// has a class id per element, each below the class count. True =
  /// internally consistent (no torn publication, no mutation since). This
  /// is O(N); meant for tests, torture readers, and the serving bench's
  /// sampled verification, not the query hot path.
  bool CheckConsistent() const;

 private:
  friend class SnapshotBuilder;
  ServeSnapshot() = default;

  size_t num_elements_ = 0;
  par::ShardGeometry geometry_;
  std::vector<std::shared_ptr<const SyncBlock>> shards_;
  std::vector<uint64_t> digests_;
  std::shared_ptr<const PlanTable> plan_;
  std::shared_ptr<const std::vector<double>> sizes_;
  uint64_t size_digest_ = 0;
  uint64_t combined_digest_ = 0;
  SnapshotStats stats_;
};

/// Builds successive snapshots with structural sharing. Owned and driven by
/// the single publisher thread (the daemon's loop thread, which also writes
/// the mirror's SyncColumn).
///
/// Shard blocks: Publish shares the column's current blocks by pointer and
/// keeps the ones it published (the previous snapshot's blocks). A block
/// whose pointer differs from the kept one was written since, and is the
/// only kind Publish digests. The kept reference is what makes this exact:
/// while the builder holds a block the column cannot write it in place, so
/// an unchanged pointer means unchanged contents.
///
/// Plan tables: the builder keeps as a spare the table its last SetPlan
/// replaced. The next SetPlan writes into the spare in place (same
/// capacity, no allocation) when the builder holds the spare's only
/// reference, and allocates a new table otherwise. Every snapshot that held
/// the spare predates the SetPlan that retired it, so a count of one means
/// all of them are gone and no reader can reach the table. That count, and
/// the column's copy-on-write count, are exact only because every reference
/// to a published snapshot, or to one of its parts, is dropped on the
/// publisher thread or before a happens-before edge to it: SnapshotStore
/// drops snapshots in the retire callbacks that its publisher-thread
/// reclaim runs, and readers hold only epoch pins and raw pointers. Reuse
/// is an allocation saving only; what a snapshot holds never depends on it.
/// In steady state serving holds one copy of the sync column (the mirror's
/// own), spare blocks as many as a busy recent period copied (see
/// SyncColumn::Recycle), and two plan tables: the live one and the spare.
class SnapshotBuilder {
 public:
  /// A builder over `sizes->size()` elements (`sizes` must not be null).
  /// The size column is immutable and shared, never copied, by every
  /// snapshot; the shard plan is fixed for the builder's lifetime (the
  /// default par::ShardPlan sizing, which SyncColumn uses too).
  explicit SnapshotBuilder(std::shared_ptr<const std::vector<double>> sizes);

  /// Total shards in the plan.
  size_t NumShards() const { return shards_.size(); }

  /// Copies `plan` into a new plan table (its spare when that is free, see
  /// the class comment), which every Publish serves until the next call.
  /// `plan` must cover num_elements and its class columns must have equal
  /// lengths; every class id must be below the class count (a
  /// FRESHEN_CHECK as the ids are copied).
  Status SetPlan(const PlanClassView& plan);

  /// Builds the next snapshot over the current plan table and the current
  /// blocks of `last_sync_time`, which it shares by pointer; it digests the
  /// blocks written since the previous Publish (every block at the first).
  /// `last_sync_time` must cover num_elements, and SetPlan must have been
  /// called. `epoch` is the publication epoch the caller just opened;
  /// `plan_version` and `now` land in stats.
  Result<std::shared_ptr<const ServeSnapshot>> Publish(
      uint64_t epoch, uint64_t plan_version, double now,
      const SyncColumn& last_sync_time);

 private:
  size_t num_elements_;
  std::shared_ptr<const std::vector<double>> sizes_;
  uint64_t size_digest_;
  std::vector<par::Shard> shards_;
  // Per shard: the block the last published snapshot holds (null before
  // the first Publish) and its digest. The live plan table and its spare
  // follow the class comment. Lifetime of published snapshots is the
  // store's job.
  std::vector<std::shared_ptr<const SyncBlock>> live_;
  std::vector<uint64_t> digests_;
  std::shared_ptr<PlanTable> live_plan_;
  std::shared_ptr<PlanTable> spare_plan_;
};

/// Combines per-shard digests in shard order (order-sensitive mix), then the
/// plan table's and the size column's digests.
uint64_t CombineDigests(const std::vector<uint64_t>& shard_digests,
                        uint64_t plan_digest, uint64_t size_digest);

}  // namespace serve
}  // namespace freshen

#endif  // FRESHEN_SERVE_SNAPSHOT_H_
