#include "serve/snapshot.h"

#include <cstring>
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
  uint64_t words = 0;

  void MixColumn(const std::vector<double>& column) {
    const size_t n = column.size();
    const double* data = column.data();
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      lane[0] = Round(lane[0], Word(data[j]));
      lane[1] = Round(lane[1], Word(data[j + 1]));
      lane[2] = Round(lane[2], Word(data[j + 2]));
      lane[3] = Round(lane[3], Word(data[j + 3]));
    }
    for (size_t k = 0; j < n; ++j, ++k) {
      lane[k] = Round(lane[k], Word(data[j]));
    }
    words += n;
  }

  uint64_t Finish(uint64_t begin, uint64_t end) const {
    uint64_t hash = Rotl(lane[0], 1) + Rotl(lane[1], 7) + Rotl(lane[2], 12) +
                    Rotl(lane[3], 18);
    for (uint64_t v : lane) hash = (hash ^ Round(0, v)) * kPrime1 + kPrime4;
    hash += words * sizeof(double);
    hash = Fold(hash, begin);
    hash = Fold(hash, end);
    return Avalanche(hash);
  }
};

// True when `block_column` holds exactly the bits of `column`'s slice that
// starts at `begin`.
bool SameBits(const std::vector<double>& column,
              const std::vector<double>& block_column, size_t begin) {
  return std::memcmp(column.data() + begin, block_column.data(),
                     block_column.size() * sizeof(double)) == 0;
}

}  // namespace

uint64_t DigestShard(const ShardBlock& block) {
  LaneState state;
  state.MixColumn(block.frequency);
  state.MixColumn(block.change_rate);
  state.MixColumn(block.last_sync_time);
  return state.Finish(block.begin, block.end);
}

uint64_t DigestColumn(const std::vector<double>& column) {
  LaneState state;
  state.MixColumn(column);
  return state.Finish(0, column.size());
}

uint64_t CombineDigests(
    const std::vector<std::shared_ptr<const ShardBlock>>& shards,
    uint64_t size_digest) {
  uint64_t combined = kPrime5 + shards.size();
  for (const std::shared_ptr<const ShardBlock>& shard : shards) {
    combined = Fold(combined, shard->digest);
  }
  return Avalanche(Fold(combined, size_digest));
}

bool ServeSnapshot::CheckConsistent() const {
  if (shards_.empty()) return num_elements_ == 0;
  if (sizes_ == nullptr || sizes_->size() != num_elements_) return false;
  size_t expected_begin = 0;
  for (const std::shared_ptr<const ShardBlock>& shard : shards_) {
    if (shard == nullptr) return false;
    if (shard->begin != expected_begin || shard->end < shard->begin) {
      return false;
    }
    if (DigestShard(*shard) != shard->digest) return false;
    expected_begin = shard->end;
  }
  if (expected_begin != num_elements_) return false;
  if (DigestColumn(*sizes_) != size_digest_) return false;
  return CombineDigests(shards_, size_digest_) == combined_digest_;
}

SnapshotBuilder::SnapshotBuilder(
    std::shared_ptr<const std::vector<double>> sizes)
    : num_elements_(sizes->size()),
      sizes_(std::move(sizes)),
      size_digest_(DigestColumn(*sizes_)),
      plan_(par::ShardPlan(num_elements_)),
      dirty_(plan_.size(), 0),
      live_(plan_.size()),
      spares_(plan_.size()) {}

void SnapshotBuilder::MarkDirty(size_t element) {
  FRESHEN_CHECK(element < num_elements_);
  dirty_[par::ShardIndexOf(num_elements_, element)] = 1;
}

void SnapshotBuilder::MarkAllDirty() {
  std::fill(dirty_.begin(), dirty_.end(), uint8_t{1});
}

size_t SnapshotBuilder::DirtyShards() const {
  size_t dirty = 0;
  for (uint8_t flag : dirty_) dirty += flag;
  return dirty;
}

Result<std::shared_ptr<const ServeSnapshot>> SnapshotBuilder::Publish(
    uint64_t epoch, uint64_t plan_version, double now,
    const std::vector<double>& frequency,
    const std::vector<double>& change_rate,
    const std::vector<double>& last_sync_time) {
  if (frequency.size() != num_elements_ ||
      change_rate.size() != num_elements_ ||
      last_sync_time.size() != num_elements_) {
    return Status::InvalidArgument("snapshot column length mismatch");
  }
  // Checked before any shard is built: a failed Publish leaves the builder
  // as it was.
  if (!live_.empty() && live_.front() == nullptr &&
      DirtyShards() != plan_.size()) {
    return Status::FailedPrecondition("first Publish must follow MarkAllDirty");
  }

  auto snapshot = std::shared_ptr<ServeSnapshot>(new ServeSnapshot());
  snapshot->num_elements_ = num_elements_;
  snapshot->shards_.resize(plan_.size());
  snapshot->sizes_ = sizes_;
  snapshot->size_digest_ = size_digest_;
  const std::vector<double>& size = *sizes_;

  size_t rebuilt = 0;
  size_t recycled = 0;
  double plan_bandwidth = 0.0;
  for (size_t s = 0; s < plan_.size(); ++s) {
    const par::Shard& shard = plan_[s];
    const ShardBlock* previous = live_[s].get();
    // A dirty shard whose columns came out bit-identical (a replan that
    // moved no frequency or rate in it) is shared like a clean one.
    if (!dirty_[s] ||
        (previous != nullptr &&
         SameBits(frequency, previous->frequency, shard.begin) &&
         SameBits(change_rate, previous->change_rate, shard.begin) &&
         SameBits(last_sync_time, previous->last_sync_time, shard.begin))) {
      snapshot->shards_[s] = live_[s];
      plan_bandwidth += previous->plan_bandwidth;
      continue;
    }
    // The block this rebuild replaces becomes the shard's spare. The old
    // spare is written in place when the builder holds its only reference
    // (see the class comment); otherwise a snapshot still owns it and the
    // shard gets a new block.
    if (spares_[s].use_count() == 1) {
      std::swap(live_[s], spares_[s]);
      ++recycled;
    } else {
      spares_[s] = std::move(live_[s]);
      live_[s] = std::make_shared<ShardBlock>();
    }
    ShardBlock& block = *live_[s];
    block.begin = shard.begin;
    block.end = shard.end;
    block.frequency.assign(frequency.begin() + shard.begin,
                           frequency.begin() + shard.end);
    block.change_rate.assign(change_rate.begin() + shard.begin,
                             change_rate.begin() + shard.end);
    block.last_sync_time.assign(last_sync_time.begin() + shard.begin,
                                last_sync_time.begin() + shard.end);
    FRESHEN_CHECK(block.frequency.size() == shard.size());
    block.plan_bandwidth = 0.0;
    for (size_t i = shard.begin; i < shard.end; ++i) {
      block.plan_bandwidth += frequency[i] * size[i];
    }
    block.digest = DigestShard(block);
    plan_bandwidth += block.plan_bandwidth;
    snapshot->shards_[s] = live_[s];
    ++rebuilt;
  }
  std::fill(dirty_.begin(), dirty_.end(), uint8_t{0});

  snapshot->combined_digest_ = CombineDigests(snapshot->shards_, size_digest_);
  SnapshotStats& stats = snapshot->stats_;
  stats.epoch = epoch;
  stats.plan_version = plan_version;
  stats.published_at = now;
  stats.num_elements = num_elements_;
  stats.num_shards = plan_.size();
  stats.shards_rebuilt = rebuilt;
  stats.shards_recycled = recycled;
  stats.plan_bandwidth = plan_bandwidth;
  return std::shared_ptr<const ServeSnapshot>(std::move(snapshot));
}

}  // namespace serve
}  // namespace freshen
