// Immutable, sharded serving state for the freshend daemon.
//
// A ServeSnapshot is what a concurrent query reads: the controller's current
// plan (frequencies, the change rates it was solved against) and the
// mirror's last-sync times, frozen at one publication instant, plus the
// catalog's sizes. Snapshots are immutable after publication — readers
// never see a value change under them — and sharded along the same fixed
// par::ShardPlan the compute spine uses, so publishing a new snapshot after
// a period only rebuilds the shards whose elements actually synced or
// whose plan values changed: untouched shards are shared by pointer between
// consecutive snapshots (persistent-data-structure style), making
// publication O(changed shards), not O(N). Sizes never change, so they are
// not sharded at all: every snapshot holds the one size column the
// controller plans with.
//
// The plan is stored per class, as the controller keeps it. A shard block
// holds each element's last-sync time and a 4-byte index into the block's
// own dictionary of the distinct (frequency, planned rate) pairs among its
// elements, so an element costs 12 bytes, not 24, wherever a shard's
// elements share few plan values. The dictionary is deduplicated by bits
// and ordered by first occurrence, so a block is a function of its
// elements' values alone: the controller renumbers its classes at every
// replan, and a shard whose values did not move still compares equal to
// its previous block and is shared. A plan with one class per element
// (the controller's identity grouping, past N/4 distinct rows) gets one
// dictionary entry per element instead, in element order, and no value
// index: that is a function of the values too, costs no hash per element,
// and holds the 24 bytes per element the dense columns did.
//
// Consistency is checkable from the reader side: every shard block carries
// an order-sensitive digest of its payload (dictionary included), the size
// column has one digest, and the snapshot records the combination of all
// of them at publication time. A reader that ever observed a torn snapshot
// (shards from two different publications) would recompute a different
// combination — the torture test and the serving bench both recompute and
// compare on every sampled query.
#ifndef FRESHEN_SERVE_SNAPSHOT_H_
#define FRESHEN_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/parallel.h"
#include "common/plan_classes.h"
#include "common/result.h"
#include "model/element.h"

namespace freshen {
namespace serve {

/// A shard block's plan values: (frequency, change rate) pairs, one column
/// per half, so pair j is (frequency[j], change_rate[j]).
struct PlanDictionary {
  /// Planned sync frequency (per period).
  std::vector<double> frequency;
  /// Controller-believed change rate the plan was solved against.
  std::vector<double> change_rate;

  size_t size() const { return frequency.size(); }

  /// Bytes the two columns hold (their capacity).
  size_t bytes() const {
    return (frequency.capacity() + change_rate.capacity()) * sizeof(double);
  }
};

/// One contiguous shard of serving state over the elements in
/// [shard.begin, shard.end). Immutable while any snapshot holds it
/// (SnapshotBuilder rewrites only blocks that no snapshot holds).
struct ShardBlock {
  /// Index range this block covers (mirrors the snapshot's shard plan).
  size_t begin = 0;
  size_t end = 0;
  /// The distinct (frequency, change rate) pairs of the block's elements,
  /// compared by bits, in order of first occurrence; under a plan with one
  /// class per element, one pair per element, in element order.
  PlanDictionary dictionary;
  /// Per element: the index of its pair in `dictionary`. Empty when the
  /// dictionary holds one pair per element, in element order.
  std::vector<uint32_t> value_index;
  /// Time of the element's last applied sync (period units; 0 = never).
  std::vector<double> last_sync_time;
  /// This block's share of SnapshotStats::plan_bandwidth: the sum of
  /// frequency times size over its elements, in index order.
  double plan_bandwidth = 0.0;
  /// Order-sensitive digest over every column (see DigestShard).
  uint64_t digest = 0;

  size_t count() const { return end - begin; }

  /// The dictionary index of element begin + offset's pair.
  size_t pair(size_t offset) const {
    return value_index.empty() ? offset : value_index[offset];
  }

  /// Bytes the block's columns hold (their capacity).
  size_t bytes() const {
    return dictionary.bytes() + value_index.capacity() * sizeof(uint32_t) +
           last_sync_time.capacity() * sizeof(double);
  }
};

/// Order-sensitive digest of a shard block's payload columns (dictionary
/// frequencies and change rates, value indices, last-sync times), the
/// dictionary's length and the block's bounds: a 4-lane, 64-bit-word round
/// of the xxHash64 kind. Recomputable by readers to prove a snapshot was
/// not torn.
uint64_t DigestShard(const ShardBlock& block);

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
  /// Shards rebuilt by the publication that produced this snapshot.
  size_t shards_rebuilt = 0;
  /// Of those, shards written into a recycled spare block (no allocation).
  size_t shards_recycled = 0;
  /// Sum of planned frequencies times sizes (plan bandwidth): the shards'
  /// partials summed in shard order.
  double plan_bandwidth = 0.0;
  /// Bytes the builder's live and spare blocks held after this publication
  /// (ShardBlock::bytes()), and the dictionaries' share of them.
  size_t held_bytes = 0;
  size_t held_dictionary_bytes = 0;
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
    const size_t shard = par::ShardIndexOf(num_elements_, element);
    const ShardBlock& block = *shards_[shard];
    const size_t offset = element - block.begin;
    const size_t pair = block.pair(offset);
    return ElementView{block.dictionary.frequency[pair],
                       block.dictionary.change_rate[pair], (*sizes_)[element],
                       block.last_sync_time[offset]};
  }

  /// The shard blocks (for iteration / consistency checks).
  const std::vector<std::shared_ptr<const ShardBlock>>& shards() const {
    return shards_;
  }

  /// The size column, shared by every snapshot of one builder.
  const std::shared_ptr<const std::vector<double>>& size_column() const {
    return sizes_;
  }

  /// Recomputes every shard digest and their combination and compares
  /// against the values recorded at publication, and checks that every
  /// element has a pair in its block's dictionary. True = internally consistent
  /// (no torn publication, no mutation since). This is O(N);
  /// meant for tests, torture readers, and the serving bench's sampled
  /// verification, not the query hot path.
  bool CheckConsistent() const;

 private:
  friend class SnapshotBuilder;
  ServeSnapshot() = default;

  size_t num_elements_ = 0;
  std::vector<std::shared_ptr<const ShardBlock>> shards_;
  std::shared_ptr<const std::vector<double>> sizes_;
  uint64_t size_digest_ = 0;
  uint64_t combined_digest_ = 0;
  SnapshotStats stats_;
};

/// Builds successive snapshots with shard-level structural sharing. Owned
/// and driven by the single publisher thread (the daemon's loop thread).
///
/// Block reuse: for each shard the builder keeps, as a spare, the block that
/// the shard's last rebuild replaced. The next rebuild of that shard writes
/// into the spare in place (same capacity, no allocation) when the builder
/// holds the spare's only reference, and allocates a new block otherwise.
/// Every snapshot that held the spare predates the rebuild that retired it,
/// so a count of one means all of them are gone and no reader can reach the
/// block. That count is exact only because every reference to a published
/// snapshot, or to one of its blocks, is dropped on the publisher thread or
/// before a happens-before edge to it: SnapshotStore drops snapshots in the
/// retire callbacks that its publisher-thread reclaim runs, and readers hold
/// only epoch pins and raw pointers. Reuse is an allocation saving only;
/// what a snapshot holds never depends on it. In steady state a builder
/// holds two copies of the shard columns: the live blocks and the spares.
class SnapshotBuilder {
 public:
  /// A builder over `sizes->size()` elements (`sizes` must not be null).
  /// The size column is immutable and shared, never copied, by every
  /// snapshot; the shard plan is fixed for the builder's lifetime (the
  /// default par::ShardPlan sizing).
  explicit SnapshotBuilder(std::shared_ptr<const std::vector<double>> sizes);

  /// Marks one element dirty: its shard is rebuilt at the next Publish.
  void MarkDirty(size_t element);

  /// Marks every element dirty (first publication, replans).
  void MarkAllDirty();

  /// Number of shards currently marked dirty.
  size_t DirtyShards() const;

  /// Total shards in the plan.
  size_t NumShards() const { return plan_.size(); }

  /// Builds the next snapshot: a dirty shard is rebuilt from `plan` (read
  /// through each element's class) and `last_sync_time` (into its spare
  /// block when that is free, see the class comment) unless its values'
  /// bits equal the previous snapshot's block, which is then shared like a
  /// clean shard's. `plan` and `last_sync_time` must cover num_elements,
  /// and every class id in `plan` must be below its class count (a
  /// FRESHEN_CHECK as the shard is read). `epoch` is the publication epoch
  /// the caller just opened; `plan_version` and `now` land in stats. Clears
  /// the dirty set. The first call must follow MarkAllDirty (there is no
  /// previous snapshot to share from); this is checked.
  Result<std::shared_ptr<const ServeSnapshot>> Publish(
      uint64_t epoch, uint64_t plan_version, double now,
      const PlanClassView& plan, const std::vector<double>& last_sync_time);

 private:
  // Writes shard `shard`'s dictionary and value indices.
  void BuildShardValues(const par::Shard& shard, const PlanClassView& plan,
                        PlanDictionary* dictionary,
                        std::vector<uint32_t>* value_index);
  // The index of the pair (frequency, change_rate) in `*dictionary` (the
  // one BuildShardValues is writing; pair_slots_ indexes it), appended if
  // new.
  uint32_t Intern(double frequency, double change_rate,
                  PlanDictionary* dictionary);

  size_t num_elements_;
  std::shared_ptr<const std::vector<double>> sizes_;
  uint64_t size_digest_;
  std::vector<par::Shard> plan_;
  std::vector<uint8_t> dirty_;  // Per shard.
  // Per shard: the block the last published snapshot holds (the sharing
  // source; null before the first Publish), and the block the shard's last
  // rebuild replaced (null until a second build of the shard). Lifetime of
  // published snapshots is the store's job.
  std::vector<std::shared_ptr<ShardBlock>> live_;
  std::vector<std::shared_ptr<ShardBlock>> spares_;

  // Scratch: the dictionary and value indices of a dirty shard with no new
  // sync, built aside to compare with its previous block; an
  // open-addressing table over the dictionary being built (entry + 1, 0 =
  // empty); and per class the shard build that last met it (a stamp) with
  // the dictionary index it got there.
  struct ClassSlot {
    uint32_t stamp = 0;
    uint32_t index = 0;
  };
  PlanDictionary dictionary_;
  std::vector<uint32_t> value_index_;
  std::vector<uint32_t> pair_slots_;
  std::vector<ClassSlot> class_slots_;
  uint32_t stamp_ = 0;
};

/// Combines per-shard digests in shard order (order-sensitive mix), then the
/// size column's digest.
uint64_t CombineDigests(
    const std::vector<std::shared_ptr<const ShardBlock>>& shards,
    uint64_t size_digest);

}  // namespace serve
}  // namespace freshen

#endif  // FRESHEN_SERVE_SNAPSHOT_H_
