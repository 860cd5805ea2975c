#include "serve/snapshot.h"

#include <algorithm>
#include <cstring>
#include <initializer_list>
#include <utility>

#include "common/macros.h"

namespace freshen {
namespace serve {
namespace {

// xxHash64's primes and round structure: four independent multiply chains
// per shard, one 64-bit word per step, so the digest runs at the machine's
// multiply throughput.
constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

uint64_t Round(uint64_t acc, uint64_t word) {
  return Rotl(acc + word * kPrime2, 31) * kPrime1;
}

// Folds one word (a shard bound, a shard digest) into a running hash.
uint64_t Fold(uint64_t hash, uint64_t word) {
  return Rotl(hash ^ Round(0, word), 27) * kPrime1 + kPrime4;
}

uint64_t Avalanche(uint64_t hash) {
  hash ^= hash >> 33;
  hash *= kPrime2;
  hash ^= hash >> 29;
  hash *= kPrime3;
  hash ^= hash >> 32;
  return hash;
}

uint64_t Word(double value) {
  uint64_t word = 0;
  std::memcpy(&word, &value, sizeof(word));
  return word;
}

// Four lanes persist across the columns; word j of a column goes to lane
// j % 4 of its stripe, so every (column, index) lands at a distinct lane
// position and any reordering moves some word to another position.
struct LaneState {
  uint64_t lane[4] = {kPrime1 + kPrime2, kPrime2, 0, 0 - kPrime1};
  uint64_t bytes = 0;

  // Mixes a column of `size` bytes as 64-bit words in memory order; a
  // partial last word is zero-extended. The lanes live in locals while the
  // bytes are read: a byte pointer may alias the members, which would pin
  // them to memory.
  void MixBytes(const void* data, size_t size) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    const size_t n = size / sizeof(uint64_t);
    const auto load = [p](size_t j) {
      uint64_t word;
      std::memcpy(&word, p + j * sizeof(uint64_t), sizeof(word));
      return word;
    };
    uint64_t acc[4] = {lane[0], lane[1], lane[2], lane[3]};
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      acc[0] = Round(acc[0], load(j));
      acc[1] = Round(acc[1], load(j + 1));
      acc[2] = Round(acc[2], load(j + 2));
      acc[3] = Round(acc[3], load(j + 3));
    }
    size_t k = 0;
    for (; j < n; ++j, ++k) acc[k] = Round(acc[k], load(j));
    if (const size_t tail = size % sizeof(uint64_t); tail != 0) {
      uint64_t word = 0;
      std::memcpy(&word, p + n * sizeof(uint64_t), tail);
      acc[k] = Round(acc[k], word);
    }
    for (size_t l = 0; l < 4; ++l) lane[l] = acc[l];
    bytes += size;
  }

  template <typename T>
  void MixColumn(const std::vector<T>& column) {
    if (!column.empty()) MixBytes(column.data(), column.size() * sizeof(T));
  }

  // Closes the digest over the mixed bytes and the `trailer` words (bounds,
  // lengths).
  uint64_t Finish(std::initializer_list<uint64_t> trailer) const {
    uint64_t hash = Rotl(lane[0], 1) + Rotl(lane[1], 7) + Rotl(lane[2], 12) +
                    Rotl(lane[3], 18);
    for (uint64_t v : lane) hash = (hash ^ Round(0, v)) * kPrime1 + kPrime4;
    hash += bytes;
    for (uint64_t word : trailer) hash = Fold(hash, word);
    return Avalanche(hash);
  }
};

// Makes `live` a block no snapshot holds, for a rebuild to write into, and
// keeps the block it replaces as `spare`: the old spare is reused when the
// builder holds its only reference (see SnapshotBuilder's class comment),
// and a new block is allocated otherwise. True when the spare was reused.
//
// A new block and its control block are two allocations, not one
// make_shared chunk. This is a heap-layout choice measured in freshen-e2e,
// which sets a daemon up repeatedly in one process: at N = 500k the
// make_shared layout left free 32-byte chunks after a set-up, the
// harness's long-lived small allocations landed in them instead of above
// the set-up's memory, and glibc trimmed that memory at each teardown, so
// every set-up faulted ~46 MB afresh (setup_s 37 -> 56 ms;
// docs/performance.md, "One plan table per snapshot").
template <typename Block>
bool Recycle(std::shared_ptr<Block>& live, std::shared_ptr<Block>& spare) {
  if (spare.use_count() == 1) {
    std::swap(live, spare);
    return true;
  }
  spare = std::move(live);
  live = std::shared_ptr<Block>(new Block());
  return false;
}

}  // namespace

uint64_t DigestShard(const ShardBlock& block) {
  LaneState state;
  state.MixColumn(block.last_sync_time);
  return state.Finish({block.begin, block.end});
}

uint64_t DigestPlan(const PlanTable& plan) {
  LaneState state;
  state.MixColumn(plan.class_of);
  state.MixColumn(plan.frequency);
  state.MixColumn(plan.change_rate);
  return state.Finish({plan.class_of.size(), plan.frequency.size(),
                       plan.change_rate.size(), Word(plan.plan_bandwidth)});
}

uint64_t DigestColumn(const std::vector<double>& column) {
  LaneState state;
  state.MixColumn(column);
  return state.Finish({0, column.size()});
}

uint64_t CombineDigests(
    const std::vector<std::shared_ptr<const ShardBlock>>& shards,
    uint64_t plan_digest, uint64_t size_digest) {
  uint64_t combined = kPrime5 + shards.size();
  for (const std::shared_ptr<const ShardBlock>& shard : shards) {
    combined = Fold(combined, shard->digest);
  }
  return Avalanche(Fold(Fold(combined, plan_digest), size_digest));
}

bool ServeSnapshot::CheckConsistent() const {
  if (shards_.empty()) return num_elements_ == 0;
  if (sizes_ == nullptr || sizes_->size() != num_elements_) return false;
  if (plan_ == nullptr || plan_->class_of.size() != num_elements_ ||
      plan_->frequency.size() != plan_->change_rate.size() ||
      *std::max_element(plan_->class_of.begin(), plan_->class_of.end()) >=
          plan_->frequency.size()) {
    return false;
  }
  size_t expected_begin = 0;
  for (const std::shared_ptr<const ShardBlock>& shard : shards_) {
    if (shard == nullptr) return false;
    if (shard->begin != expected_begin || shard->end < shard->begin ||
        shard->last_sync_time.size() != shard->count()) {
      return false;
    }
    if (DigestShard(*shard) != shard->digest) return false;
    expected_begin = shard->end;
  }
  if (expected_begin != num_elements_) return false;
  if (DigestPlan(*plan_) != plan_->digest) return false;
  if (DigestColumn(*sizes_) != size_digest_) return false;
  return CombineDigests(shards_, plan_->digest, size_digest_) ==
         combined_digest_;
}

SnapshotBuilder::SnapshotBuilder(
    std::shared_ptr<const std::vector<double>> sizes)
    : num_elements_(sizes->size()),
      sizes_(std::move(sizes)),
      size_digest_(DigestColumn(*sizes_)),
      shards_(par::ShardPlan(num_elements_)),
      dirty_(shards_.size(), 0),
      live_(shards_.size()),
      spares_(shards_.size()) {}

void SnapshotBuilder::MarkDirty(size_t element) {
  FRESHEN_CHECK(element < num_elements_);
  dirty_[par::ShardIndexOf(num_elements_, element)] = 1;
}

size_t SnapshotBuilder::DirtyShards() const {
  size_t dirty = 0;
  for (uint8_t flag : dirty_) dirty += flag;
  return dirty;
}

Status SnapshotBuilder::SetPlan(const PlanClassView& plan) {
  if (plan.size() != num_elements_ ||
      plan.frequency.size() != plan.change_rate.size()) {
    return Status::InvalidArgument("plan column length mismatch");
  }
  Recycle(live_plan_, spare_plan_);
  PlanTable& table = *live_plan_;
  table.class_of.assign(plan.class_of.begin(), plan.class_of.end());
  table.frequency.assign(plan.frequency.begin(), plan.frequency.end());
  table.change_rate.assign(plan.change_rate.begin(), plan.change_rate.end());
  const std::vector<double>& size = *sizes_;
  const size_t classes = table.frequency.size();
  table.plan_bandwidth = 0.0;
  for (const par::Shard& shard : shards_) {
    double partial = 0.0;
    for (size_t i = shard.begin; i < shard.end; ++i) {
      const uint32_t c = table.class_of[i];
      FRESHEN_CHECK(c < classes);
      partial += table.frequency[c] * size[i];
    }
    table.plan_bandwidth += partial;
  }
  table.digest = DigestPlan(table);
  return Status::OK();
}

Result<std::shared_ptr<const ServeSnapshot>> SnapshotBuilder::Publish(
    uint64_t epoch, uint64_t plan_version, double now,
    const std::vector<double>& last_sync_time) {
  if (last_sync_time.size() != num_elements_) {
    return Status::InvalidArgument("snapshot column length mismatch");
  }
  if (live_plan_ == nullptr) {
    return Status::FailedPrecondition("Publish needs a plan: call SetPlan");
  }

  auto snapshot = std::shared_ptr<ServeSnapshot>(new ServeSnapshot());
  snapshot->num_elements_ = num_elements_;
  snapshot->shards_.resize(shards_.size());
  snapshot->plan_ = live_plan_;
  snapshot->sizes_ = sizes_;
  snapshot->size_digest_ = size_digest_;

  size_t rebuilt = 0;
  size_t recycled = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (live_[s] == nullptr || dirty_[s]) {
      recycled += Recycle(live_[s], spares_[s]);
      const par::Shard& shard = shards_[s];
      ShardBlock& block = *live_[s];
      block.begin = shard.begin;
      block.end = shard.end;
      block.last_sync_time.assign(last_sync_time.begin() + shard.begin,
                                  last_sync_time.begin() + shard.end);
      block.digest = DigestShard(block);
      ++rebuilt;
    }
    snapshot->shards_[s] = live_[s];
  }
  std::fill(dirty_.begin(), dirty_.end(), uint8_t{0});

  size_t held_plan_bytes = 0;
  for (const PlanTable* table : {live_plan_.get(), spare_plan_.get()}) {
    if (table != nullptr) held_plan_bytes += table->bytes();
  }
  size_t held_bytes = held_plan_bytes;
  for (size_t s = 0; s < shards_.size(); ++s) {
    for (const ShardBlock* block : {live_[s].get(), spares_[s].get()}) {
      if (block != nullptr) held_bytes += block->bytes();
    }
  }

  snapshot->combined_digest_ =
      CombineDigests(snapshot->shards_, live_plan_->digest, size_digest_);
  SnapshotStats& stats = snapshot->stats_;
  stats.epoch = epoch;
  stats.plan_version = plan_version;
  stats.published_at = now;
  stats.num_elements = num_elements_;
  stats.num_shards = shards_.size();
  stats.shards_rebuilt = rebuilt;
  stats.shards_recycled = recycled;
  stats.plan_bandwidth = live_plan_->plan_bandwidth;
  stats.held_bytes = held_bytes;
  stats.held_plan_bytes = held_plan_bytes;
  return std::shared_ptr<const ServeSnapshot>(std::move(snapshot));
}

}  // namespace serve
}  // namespace freshen
