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

// True when `block_column` holds exactly the bits of the values `column`
// points at (an empty column, whose data may be null, always does).
template <typename T>
bool SameBits(const T* column, const std::vector<T>& block_column) {
  return block_column.empty() ||
         std::memcmp(column, block_column.data(),
                     block_column.size() * sizeof(T)) == 0;
}

// Multiply-xorshift mix of a plan value's two words.
uint64_t HashValue(uint64_t frequency, uint64_t change_rate) {
  uint64_t h = frequency * kPrime1;
  h = (h ^ (h >> 32) ^ change_rate) * kPrime2;
  return h ^ (h >> 29);
}

// Table size every shard's dictionary build starts from; it doubles while
// more than half full.
constexpr size_t kInitialPairSlots = 16;

}  // namespace

uint64_t DigestShard(const ShardBlock& block) {
  LaneState state;
  state.MixColumn(block.dictionary.frequency);
  state.MixColumn(block.dictionary.change_rate);
  state.MixColumn(block.value_index);
  state.MixColumn(block.last_sync_time);
  return state.Finish({block.begin, block.end, block.dictionary.size()});
}

uint64_t DigestColumn(const std::vector<double>& column) {
  LaneState state;
  state.MixColumn(column);
  return state.Finish({0, column.size()});
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
    if (shard->begin != expected_begin || shard->end < shard->begin ||
        shard->last_sync_time.size() != shard->count()) {
      return false;
    }
    const std::vector<uint32_t>& index = shard->value_index;
    if (index.empty() ? shard->dictionary.size() != shard->count()
                      : index.size() != shard->count() ||
                            *std::max_element(index.begin(), index.end()) >=
                                shard->dictionary.size()) {
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

uint32_t SnapshotBuilder::Intern(double frequency, double change_rate,
                                 PlanDictionary* dictionary) {
  const uint64_t frequency_bits = Word(frequency);
  const uint64_t change_rate_bits = Word(change_rate);
  size_t mask = pair_slots_.size() - 1;
  size_t s = HashValue(frequency_bits, change_rate_bits) & mask;
  while (pair_slots_[s] != 0) {
    const uint32_t known = pair_slots_[s] - 1;
    if (Word(dictionary->frequency[known]) == frequency_bits &&
        Word(dictionary->change_rate[known]) == change_rate_bits) {
      return known;
    }
    s = (s + 1) & mask;
  }
  const uint32_t index = static_cast<uint32_t>(dictionary->size());
  dictionary->frequency.push_back(frequency);
  dictionary->change_rate.push_back(change_rate);
  pair_slots_[s] = index + 1;
  if (2 * dictionary->size() > pair_slots_.size()) {
    pair_slots_.assign(2 * pair_slots_.size(), 0);
    mask = pair_slots_.size() - 1;
    for (size_t j = 0; j < dictionary->size(); ++j) {
      size_t slot = HashValue(Word(dictionary->frequency[j]),
                              Word(dictionary->change_rate[j])) &
                    mask;
      while (pair_slots_[slot] != 0) slot = (slot + 1) & mask;
      pair_slots_[slot] = static_cast<uint32_t>(j + 1);
    }
  }
  return index;
}

void SnapshotBuilder::BuildShardValues(const par::Shard& shard,
                                       const PlanClassView& plan,
                                       PlanDictionary* dictionary,
                                       std::vector<uint32_t>* value_index) {
  const size_t classes = plan.frequency.size();
  const uint32_t* ids = plan.class_of.data() + shard.begin;
  const size_t count = shard.size();
  if (classes == plan.size()) {
    // One class per element (the controller's identity grouping): the
    // pairs are nearly all distinct, and a hash per element would cost
    // more than the dictionary saves, so every element gets its own pair
    // and no index. The controller's ids run contiguously, and its columns
    // are then copied as they are; other ids are gathered.
    uint32_t gaps = 0;
    for (size_t k = 0; k < count; ++k) {
      gaps |= ids[k] ^ (ids[0] + static_cast<uint32_t>(k));
    }
    value_index->clear();
    if (gaps == 0) {
      FRESHEN_CHECK(ids[0] + count <= classes);
      dictionary->frequency.assign(plan.frequency.begin() + ids[0],
                                   plan.frequency.begin() + ids[0] + count);
      dictionary->change_rate.assign(
          plan.change_rate.begin() + ids[0],
          plan.change_rate.begin() + ids[0] + count);
      return;
    }
    FRESHEN_CHECK(*std::max_element(ids, ids + count) < classes);
    dictionary->frequency.resize(count);
    dictionary->change_rate.resize(count);
    for (size_t k = 0; k < count; ++k) {
      dictionary->frequency[k] = plan.frequency[ids[k]];
      dictionary->change_rate[k] = plan.change_rate[ids[k]];
    }
    return;
  }
  if (class_slots_.size() < classes) class_slots_.resize(classes);
  if (++stamp_ == 0) {
    // The stamp wrapped: forget which shard build met each class.
    std::fill(class_slots_.begin(), class_slots_.end(), ClassSlot{});
    stamp_ = 1;
  }
  dictionary->frequency.clear();
  dictionary->change_rate.clear();
  pair_slots_.assign(kInitialPairSlots, 0);
  value_index->resize(count);
  uint32_t* index = value_index->data();
  // A class's pair is interned the first time the shard meets the class;
  // its other members reuse the index without hashing.
  ClassSlot* slots = class_slots_.data();
  for (size_t k = 0; k < count; ++k) {
    const uint32_t c = ids[k];
    FRESHEN_CHECK(c < classes);
    ClassSlot& slot = slots[c];
    if (slot.stamp != stamp_) {
      slot.stamp = stamp_;
      slot.index =
          Intern(plan.frequency[c], plan.change_rate[c], dictionary);
    }
    index[k] = slot.index;
  }
}

Result<std::shared_ptr<const ServeSnapshot>> SnapshotBuilder::Publish(
    uint64_t epoch, uint64_t plan_version, double now,
    const PlanClassView& plan, const std::vector<double>& last_sync_time) {
  if (plan.size() != num_elements_ ||
      plan.frequency.size() != plan.change_rate.size() ||
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
    if (!dirty_[s]) {
      snapshot->shards_[s] = live_[s];
      plan_bandwidth += previous->plan_bandwidth;
      continue;
    }
    // A dirty shard whose values came out bit-identical (a replan that
    // moved no frequency or rate in it, whatever its class ids) is shared
    // like a clean one. A shard with a new sync cannot be, so its values
    // are built straight into its block; the others are built aside first.
    const bool synced =
        previous == nullptr ||
        !SameBits(last_sync_time.data() + shard.begin,
                  previous->last_sync_time);
    if (!synced) {
      BuildShardValues(shard, plan, &dictionary_, &value_index_);
      if (previous->dictionary.size() == dictionary_.size() &&
          previous->value_index.size() == value_index_.size() &&
          SameBits(dictionary_.frequency.data(),
                   previous->dictionary.frequency) &&
          SameBits(dictionary_.change_rate.data(),
                   previous->dictionary.change_rate) &&
          SameBits(value_index_.data(), previous->value_index)) {
        snapshot->shards_[s] = live_[s];
        plan_bandwidth += previous->plan_bandwidth;
        continue;
      }
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
    if (synced) {
      BuildShardValues(shard, plan, &block.dictionary, &block.value_index);
    } else {
      block.dictionary.frequency.assign(dictionary_.frequency.begin(),
                                        dictionary_.frequency.end());
      block.dictionary.change_rate.assign(dictionary_.change_rate.begin(),
                                          dictionary_.change_rate.end());
      block.value_index.assign(value_index_.begin(), value_index_.end());
    }
    block.last_sync_time.assign(last_sync_time.begin() + shard.begin,
                                last_sync_time.begin() + shard.end);
    block.plan_bandwidth = 0.0;
    for (size_t k = 0; k < shard.size(); ++k) {
      block.plan_bandwidth +=
          block.dictionary.frequency[block.pair(k)] * size[shard.begin + k];
    }
    block.digest = DigestShard(block);
    plan_bandwidth += block.plan_bandwidth;
    snapshot->shards_[s] = live_[s];
    ++rebuilt;
  }
  std::fill(dirty_.begin(), dirty_.end(), uint8_t{0});

  size_t held_bytes = 0;
  size_t held_dictionary_bytes = 0;
  for (size_t s = 0; s < plan_.size(); ++s) {
    for (const ShardBlock* block : {live_[s].get(), spares_[s].get()}) {
      if (block == nullptr) continue;
      held_bytes += block->bytes();
      held_dictionary_bytes += block->dictionary.bytes();
    }
  }

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
  stats.held_bytes = held_bytes;
  stats.held_dictionary_bytes = held_dictionary_bytes;
  return std::shared_ptr<const ServeSnapshot>(std::move(snapshot));
}

}  // namespace serve
}  // namespace freshen
