// Epoch-based reclamation for single-publisher / many-reader snapshot
// structures (the freshend serving daemon's RCU-style state store).
//
// The protocol has two sides:
//
//   Readers: call Pin() before touching the protected structure and Unpin()
//   when done (or hold an EpochPin on the stack). Pin advertises the current
//   global epoch in a per-reader slot; any object retired at an epoch >= the
//   advertised value stays alive until the slot clears. The pin fast path is
//   lock-free: one seq_cst store + one load, no CAS, no allocation. A retry
//   loop only triggers when a publication races the pin, and each retry means
//   the publisher made global progress, so readers never spin against an idle
//   publisher.
//
//   The publisher (exactly one thread at a time): Advance() opens a new
//   epoch, Retire(object, epoch) hands over ownership of a superseded object
//   tagged with the epoch in which it was replaced, and TryReclaim() frees
//   every retired object whose epoch is strictly below the minimum epoch any
//   reader currently advertises. Reclamation is deferred, never blocking:
//   the publisher calls TryReclaim opportunistically (after each publish and
//   on shutdown) and the last reader leaving a superseded epoch makes its
//   garbage collectible on the next call.
//
// Reader slots are a fixed-size array of cache-line-padded atomics claimed
// per thread on first pin (thread-local caching makes repeat pins free). If
// more than kMaxReaders distinct threads ever pin concurrently, surplus
// threads fall back to a shared overflow mutex — correctness is preserved,
// only their lock-freedom is lost (and freshen_serve_* gauges make the
// overflow visible to operators).
#ifndef FRESHEN_COMMON_EPOCH_H_
#define FRESHEN_COMMON_EPOCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

namespace freshen {

/// One reclamation domain: a global epoch counter, reader slots, and the
/// publisher's retire list. Thread-safe as described above; the retire-side
/// API (Advance/Retire/TryReclaim/DrainAll) must be called by one publisher
/// thread at a time.
class EpochDomain {
 public:
  /// Reader slots available before the overflow mutex kicks in.
  static constexpr size_t kMaxReaders = 64;

  /// Slot value meaning "not inside a read-side critical section".
  static constexpr uint64_t kIdle = ~uint64_t{0};

  EpochDomain();
  ~EpochDomain();

  EpochDomain(const EpochDomain&) = delete;
  EpochDomain& operator=(const EpochDomain&) = delete;

  // ---- Reader side -------------------------------------------------------

  /// Enters a read-side critical section and returns the pinned epoch. Any
  /// object retired at an epoch >= the returned value is guaranteed to stay
  /// alive until the matching Unpin(). Pins do not nest (one critical
  /// section per thread at a time); EpochPin enforces that statically.
  uint64_t Pin();

  /// Leaves the read-side critical section opened by the last Pin() on this
  /// thread.
  void Unpin();

  // ---- Publisher side ----------------------------------------------------

  /// Opens a new epoch and returns it. The first epoch returned is 1 (epoch
  /// 0 is the pre-publication era).
  uint64_t Advance();

  /// Transfers ownership of a superseded object to the domain. `deleter` is
  /// invoked once no reader can hold an epoch <= `retire_epoch` — i.e. the
  /// object was current up to (and including) `retire_epoch`. Publisher
  /// thread only.
  void Retire(uint64_t retire_epoch, std::function<void()> deleter);

  /// Frees every retired object whose retire epoch is strictly below the
  /// minimum epoch advertised by any pinned reader. Returns the number of
  /// objects reclaimed. Publisher thread only.
  size_t TryReclaim();

  /// Blocks (spinning with yields) until all readers have left, then frees
  /// everything retired. Shutdown path; publisher thread only.
  size_t DrainAll();

  // ---- Introspection -----------------------------------------------------

  /// The current epoch (0 before the first Advance).
  uint64_t CurrentEpoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Minimum epoch any reader currently advertises (kIdle when no reader is
  /// pinned). A publisher may reclaim strictly below this.
  uint64_t MinPinnedEpoch() const;

  /// Readers currently inside a critical section (approximate: each slot is
  /// sampled independently).
  size_t PinnedReaders() const;

  /// Retired objects not yet reclaimed.
  size_t RetiredCount() const { return retired_.size(); }

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> epoch{kIdle};
  };

  struct Retired {
    uint64_t epoch = 0;
    std::function<void()> deleter;
  };

  // Returns this thread's slot in this domain, claiming one on first use;
  // nullptr when all slots are taken (overflow path).
  Slot* ThreadSlot();

  std::atomic<uint64_t> epoch_{0};
  std::vector<Slot> slots_;
  // Process-unique id keying the thread-local slot caches; a cache entry for
  // a destroyed domain can never match a live one.
  uint64_t id_ = 0;
  std::atomic<size_t> claimed_slots_{0};

  // Overflow path: threads beyond kMaxReaders serialize on this mutex and
  // count themselves in overflow_pins_ (blocks TryReclaim entirely while
  // held, which is safe because it is also what the mutex excludes).
  std::mutex overflow_mu_;
  std::atomic<size_t> overflow_pins_{0};

  // Publisher-only state (single publisher contract).
  std::vector<Retired> retired_;
};

/// RAII read-side critical section: pins on construction, unpins on
/// destruction.
class EpochPin {
 public:
  explicit EpochPin(EpochDomain& domain) : domain_(&domain) {
    epoch_ = domain_->Pin();
  }
  ~EpochPin() { domain_->Unpin(); }

  EpochPin(const EpochPin&) = delete;
  EpochPin& operator=(const EpochPin&) = delete;

  /// The epoch this pin protects (objects retired at >= this stay alive).
  uint64_t epoch() const { return epoch_; }

 private:
  EpochDomain* domain_;
  uint64_t epoch_ = 0;
};

}  // namespace freshen

#endif  // FRESHEN_COMMON_EPOCH_H_
