#include "mirror/mirror_state.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace freshen {

SyncColumn::SyncColumn(size_t num_elements)
    : num_elements_(num_elements), geometry_(num_elements) {
  const std::vector<par::Shard> plan = par::ShardPlan(num_elements);
  blocks_.reserve(plan.size());
  for (const par::Shard& shard : plan) {
    auto block = std::shared_ptr<SyncBlock>(new SyncBlock());
    block->begin = shard.begin;
    block->end = shard.end;
    block->last_sync_time.reserve(BlockCapacity());
    block->last_sync_time.assign(shard.size(), 0.0);
    blocks_.push_back(std::move(block));
  }
}

size_t SyncColumn::BlockCapacity() const {
  // Room for the largest shard (shards differ in size by at most one
  // element), so any pooled block takes any shard's copy without
  // reallocating.
  return geometry_.base + (geometry_.remainder > 0 ? 1 : 0);
}

void SyncColumn::CopyOnWrite(std::shared_ptr<SyncBlock>& block) {
  std::shared_ptr<SyncBlock> copy;
  if (!pool_.empty()) {
    copy = std::move(pool_.back());
    pool_.pop_back();
    ++reuses_;
  } else {
    copy = std::shared_ptr<SyncBlock>(new SyncBlock());
    copy->last_sync_time.reserve(BlockCapacity());
  }
  copy->begin = block->begin;
  copy->end = block->end;
  copy->last_sync_time.assign(block->last_sync_time.begin(),
                              block->last_sync_time.end());
  replaced_.push_back(std::move(block));
  block = std::move(copy);
  ++copies_;
}

void SyncColumn::Recycle() {
  const auto free_begin = std::partition(
      replaced_.begin(), replaced_.end(),
      [](const std::shared_ptr<SyncBlock>& b) { return b.use_count() > 1; });
  std::move(free_begin, replaced_.end(), std::back_inserter(pool_));
  replaced_.erase(free_begin, replaced_.end());
  // Sizing the pool by one period alone frees blocks that the next busy
  // period allocates again, on the loop thread's malloc arena when the
  // freed ones came from another: at N = 500k with 1 to 17 blocks copied
  // per period, that churn left ~1 MB more resident after 40 periods.
  recent_copies_[recycles_++ % kPoolPeriods] = copies_;
  const size_t keep =
      *std::max_element(recent_copies_.begin(), recent_copies_.end());
  if (pool_.size() > keep) pool_.resize(keep);
  copies_ = 0;
  reuses_ = 0;
}

size_t SyncColumn::spare_bytes() const {
  size_t bytes = 0;
  for (const auto* blocks : {&replaced_, &pool_}) {
    for (const std::shared_ptr<SyncBlock>& block : *blocks) {
      bytes += block->bytes();
    }
  }
  return bytes;
}

}  // namespace freshen
