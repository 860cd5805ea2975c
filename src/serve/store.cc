#include "serve/store.h"

#include <utility>

#include "common/macros.h"

namespace freshen {
namespace serve {

SnapshotRef& SnapshotRef::operator=(SnapshotRef&& other) noexcept {
  if (this != &other) {
    if (store_ != nullptr) store_->Release();
    store_ = other.store_;
    snapshot_ = other.snapshot_;
    other.store_ = nullptr;
    other.snapshot_ = nullptr;
  }
  return *this;
}

SnapshotRef::~SnapshotRef() {
  if (store_ != nullptr) store_->Release();
}

SnapshotStore::SnapshotStore(obs::MetricsRegistry* registry)
    : registry_(registry != nullptr ? registry
                                    : &obs::MetricsRegistry::Global()) {
  publications_counter_ =
      registry_->GetCounter("freshen_serve_publications_total");
  reclaimed_counter_ =
      registry_->GetCounter("freshen_serve_snapshots_reclaimed_total");
  acquires_counter_ = registry_->GetCounter("freshen_serve_acquires_total");
  epoch_gauge_ = registry_->GetGauge("freshen_serve_epoch");
  pinned_gauge_ = registry_->GetGauge("freshen_serve_pinned_readers");
  retired_gauge_ = registry_->GetGauge("freshen_serve_retired_pending");
}

SnapshotStore::~SnapshotStore() {
  Drain();
  // current_owner_ releases the final snapshot.
}

SnapshotRef SnapshotStore::Acquire() {
  // Pin first, then load: the pin protocol guarantees that after Pin()
  // returns epoch e, the current pointer is the epoch-e snapshot or newer
  // (the publisher stores the pointer before advancing the epoch), and the
  // domain keeps every snapshot with epoch >= e alive until Unpin.
  domain_.Pin();
  const ServeSnapshot* snapshot =
      current_.load(std::memory_order_acquire);
  if (snapshot == nullptr) {
    domain_.Unpin();
    return SnapshotRef();
  }
  acquires_counter_->Increment();
  return SnapshotRef(this, snapshot);
}

void SnapshotStore::Release() { domain_.Unpin(); }

uint64_t SnapshotStore::Publish(
    std::shared_ptr<const ServeSnapshot> snapshot) {
  FRESHEN_CHECK(snapshot != nullptr);
  const ServeSnapshot* raw = snapshot.get();
  const ServeSnapshot* prev = current_.load(std::memory_order_relaxed);
  std::shared_ptr<const ServeSnapshot> prev_owner = std::move(current_owner_);
  current_owner_ = std::move(snapshot);

  // Pointer first, epoch second — see the class comment for why this order
  // is what makes a pinned epoch protect the pointer a reader then loads.
  current_.store(raw, std::memory_order_release);
  const uint64_t epoch = domain_.Advance();
  FRESHEN_CHECK(raw->epoch() == epoch);

  if (prev != nullptr) {
    // The previous snapshot was reachable up to (and including) the moment
    // epoch `epoch` opened; readers pinned at <= prev->epoch() may hold it.
    domain_.Retire(prev->epoch(),
                   [owner = std::move(prev_owner)]() mutable {
                     owner.reset();
                   });
    retired_total_.fetch_add(1, std::memory_order_relaxed);
  }
  Reclaim();

  publications_counter_->Increment();
  epoch_gauge_->Set(static_cast<double>(epoch));
  pinned_gauge_->Set(static_cast<double>(domain_.PinnedReaders()));
  return epoch;
}

void SnapshotStore::Reclaim() {
  const size_t reclaimed = domain_.TryReclaim();
  reclaimed_total_.fetch_add(reclaimed, std::memory_order_relaxed);
  reclaimed_counter_->Add(static_cast<double>(reclaimed));
  retired_gauge_->Set(static_cast<double>(domain_.RetiredCount()));
}

void SnapshotStore::Drain() {
  const size_t reclaimed = domain_.DrainAll();
  reclaimed_total_.fetch_add(reclaimed, std::memory_order_relaxed);
  reclaimed_counter_->Add(static_cast<double>(reclaimed));
  retired_gauge_->Set(static_cast<double>(domain_.RetiredCount()));
}

StoreStats SnapshotStore::stats() const {
  StoreStats stats;
  stats.publications = domain_.CurrentEpoch();
  stats.snapshots_retired = retired_total_.load(std::memory_order_relaxed);
  stats.snapshots_reclaimed =
      reclaimed_total_.load(std::memory_order_relaxed);
  stats.current_epoch = domain_.CurrentEpoch();
  // Derived rather than read from the publisher-owned retire list, so
  // stats() is safe from any thread.
  stats.retired_pending = static_cast<size_t>(stats.snapshots_retired -
                                              stats.snapshots_reclaimed);
  return stats;
}

}  // namespace serve
}  // namespace freshen
