// SnapshotStore — the concurrency seam of the freshend daemon: one
// publisher (the online-loop thread) swapping immutable ServeSnapshots in,
// many readers pinning them lock-free.
//
// Read side (steady state): Acquire() pins the current epoch in a
// per-thread EpochDomain slot (one seq_cst store + load, no CAS, no
// locks, no allocation), loads the current snapshot pointer, and returns a
// SnapshotRef guard. A retry happens only when a publication races the pin —
// bounded by publisher progress, so readers are lock-free. Everything a
// query touches through the guard is immutable.
//
// Write side: Publish() installs a new snapshot, retires the previous one
// into the epoch domain, and reclaims whatever retired snapshots no reader
// can still see. The memory-ordering argument lives in common/epoch.h; the
// store adds the pointer/epoch pairing: the current-snapshot pointer is
// stored BEFORE the epoch advances, and readers validate their pinned epoch
// after loading the pointer, so a pinned reader can only ever hold a
// snapshot whose epoch is >= its pin — exactly the set the domain protects.
#ifndef FRESHEN_SERVE_STORE_H_
#define FRESHEN_SERVE_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/epoch.h"
#include "obs/metrics.h"
#include "serve/snapshot.h"

namespace freshen {
namespace serve {

class SnapshotStore;

/// RAII pinned view of one published snapshot. Movable, not copyable; keep
/// it only as long as one query needs (a held ref delays reclamation of
/// every snapshot published since).
class SnapshotRef {
 public:
  SnapshotRef() = default;
  SnapshotRef(SnapshotRef&& other) noexcept
      : store_(other.store_), snapshot_(other.snapshot_) {
    other.store_ = nullptr;
    other.snapshot_ = nullptr;
  }
  SnapshotRef& operator=(SnapshotRef&& other) noexcept;
  ~SnapshotRef();

  SnapshotRef(const SnapshotRef&) = delete;
  SnapshotRef& operator=(const SnapshotRef&) = delete;

  /// True when a snapshot is pinned (false only before the first Publish).
  explicit operator bool() const { return snapshot_ != nullptr; }

  const ServeSnapshot& operator*() const { return *snapshot_; }
  const ServeSnapshot* operator->() const { return snapshot_; }
  const ServeSnapshot* get() const { return snapshot_; }

 private:
  friend class SnapshotStore;
  SnapshotRef(SnapshotStore* store, const ServeSnapshot* snapshot)
      : store_(store), snapshot_(snapshot) {}

  SnapshotStore* store_ = nullptr;
  const ServeSnapshot* snapshot_ = nullptr;
};

/// Publication + reclamation statistics (mirrored into freshen_serve_*).
struct StoreStats {
  uint64_t publications = 0;
  uint64_t snapshots_retired = 0;
  uint64_t snapshots_reclaimed = 0;
  uint64_t current_epoch = 0;
  size_t retired_pending = 0;
};

/// The swap point. Thread-safe: Acquire from any thread; Publish/Drain from
/// one publisher thread at a time.
class SnapshotStore {
 public:
  /// `registry` backs the freshen_serve_* store metrics; nullptr = the
  /// process-wide registry.
  explicit SnapshotStore(obs::MetricsRegistry* registry = nullptr);

  /// Drains readers and frees every snapshot.
  ~SnapshotStore();

  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  /// Pins and returns the current snapshot (empty ref before the first
  /// Publish). Lock-free at steady state.
  SnapshotRef Acquire();

  /// Installs `snapshot` as current, retires the previous one, and
  /// opportunistically reclaims. Returns the publication epoch. The store
  /// shares ownership of the snapshot; the caller may drop its reference.
  uint64_t Publish(std::shared_ptr<const ServeSnapshot> snapshot);

  /// Frees every retired snapshot that no pinned reader can still see
  /// (Publish does this too, right after installing). Publisher thread only.
  void Reclaim();

  /// Epoch the next Publish will open; also the count of publications + 1.
  uint64_t CurrentEpoch() const { return domain_.CurrentEpoch(); }

  /// Blocks until all readers unpinned, then frees all retired snapshots.
  /// Publisher/owner thread only (shutdown path).
  void Drain();

  /// Point-in-time stats (publisher counters are exact; reader gauges are
  /// sampled).
  StoreStats stats() const;

  /// Readers currently pinned (sampled).
  size_t PinnedReaders() const { return domain_.PinnedReaders(); }

 private:
  friend class SnapshotRef;
  void Release();  // SnapshotRef destructor -> Unpin.

  EpochDomain domain_;
  std::atomic<const ServeSnapshot*> current_{nullptr};

  // Publisher-owned: keeps every published snapshot alive until the epoch
  // domain says its readers are gone. shared_ptr ownership lives here (and
  // in the retire lambdas); readers deal only in raw pointers + pins.
  std::shared_ptr<const ServeSnapshot> current_owner_;

  std::atomic<uint64_t> retired_total_{0};
  std::atomic<uint64_t> reclaimed_total_{0};

  obs::MetricsRegistry* registry_;
  obs::Counter* publications_counter_;
  obs::Counter* reclaimed_counter_;
  obs::Counter* acquires_counter_;
  obs::Gauge* epoch_gauge_;
  obs::Gauge* pinned_gauge_;
  obs::Gauge* retired_gauge_;
};

}  // namespace serve
}  // namespace freshen

#endif  // FRESHEN_SERVE_STORE_H_
