// freshen::obs event recorder — a per-thread, bounded, lock-free "flight
// recorder" for structured events. Where the metrics registry answers "how
// much / how often" in aggregate, the recorder answers "what happened, in
// what order, on which thread": span begin/end pairs, sync attempt / retry /
// timeout / breaker transitions, replans, period boundaries, and per-shard
// simulator milestones.
//
// Design:
//   * Each emitting thread owns one fixed-capacity ring of Event slots,
//     created on its first emit (the only allocation on that thread — every
//     subsequent Emit is a slot copy plus one release store, zero
//     allocations and zero shared writes, so it is safe on hot paths and
//     wait-free under any contention).
//   * Rings never block and never lose silently: when a ring is full the
//     oldest event is overwritten (flight-recorder semantics) and the
//     per-ring drop count grows, so emitted == recorded + dropped always
//     holds (see stats()).
//   * Events carry either a wall-clock timestamp (spans) or a virtual-time
//     timestamp in period units (sync commit replay, simulator, online
//     loop). Virtual events also carry a logical track id instead of a
//     thread id, which makes their merged, sorted dump a pure function of
//     the seed — byte-identical at any thread count (see chrome_trace.h).
//   * Event name/category/arg-name pointers must be string literals (or
//     otherwise outlive the recorder); nothing is copied on emit.
//
// The recorder is disabled by default; when disabled an Emit is one relaxed
// load + branch. freshenctl enables the global instance for `trace` and any
// command given --trace-out.
#ifndef FRESHEN_OBS_RECORDER_H_
#define FRESHEN_OBS_RECORDER_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics.h"

namespace freshen {
namespace obs {

/// How an event relates to a duration: a span opening, a span closing, or a
/// point event.
enum class EventPhase : uint8_t { kBegin, kEnd, kInstant };

/// Which clock an event's timestamp belongs to. Wall events are real time
/// (seconds on a process-wide steady clock) stamped with the emitting
/// thread; virtual events are deterministic period-unit time stamped with a
/// logical track id chosen by the emitter.
enum class EventClock : uint8_t { kWall, kVirtual };

/// Returns "B" / "E" / "i" (the Chrome trace_event phase letters).
const char* EventPhaseName(EventPhase phase);

/// Well-known virtual track ids. Tracks only group events for display and
/// deterministic sorting; they carry no synchronization meaning.
inline constexpr uint64_t kTrackOnlineLoop = 0;   // Period boundaries, replans.
inline constexpr uint64_t kTrackSyncCommit = 1;   // Executor commit replay.
inline constexpr uint64_t kTrackSimShardBase = 8;  // + shard index.

/// One recorded event. Plain data, fixed size; all pointers must be
/// static-lifetime strings (literals at every built-in call site).
struct Event {
  /// Seconds: wall (RecorderNowSeconds) or virtual (period units).
  double ts = 0.0;
  /// Up to two numeric arguments; a nullptr name marks the slot unused.
  double arg0 = 0.0;
  double arg1 = 0.0;
  const char* name = "";
  const char* category = "";
  const char* arg0_name = nullptr;
  const char* arg1_name = nullptr;
  /// Thread id (wall, assigned by Emit) or logical track (virtual, set by
  /// the emitter; see kTrack* above).
  uint64_t track = 0;
  EventPhase phase = EventPhase::kInstant;
  EventClock clock = EventClock::kWall;
};

/// Process-wide wall timestamp for events: seconds on the steady clock,
/// comparable across threads.
inline double RecorderNowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The flight recorder. Use Global() for the process-wide instance every
/// built-in instrumentation site emits into; separate instances are handy
/// for isolated tests.
class EventRecorder {
 public:
  struct Options {
    /// Event slots per emitting thread. Rounded up to a power of two;
    /// must be >= 1.
    size_t ring_capacity = 1 << 13;
  };

  EventRecorder() : EventRecorder(Options{}) {}
  explicit EventRecorder(Options options);
  EventRecorder(const EventRecorder&) = delete;
  EventRecorder& operator=(const EventRecorder&) = delete;

  /// The process-wide recorder (disabled until someone enables it).
  static EventRecorder& Global();

  /// Records one event into the calling thread's ring. Wait-free and
  /// allocation-free except for the thread's first emit (ring creation).
  /// Wall-clock events get `track` replaced by the thread's recorder id.
  void Emit(const Event& event);

  /// Runtime switch; when disabled, Emit is one relaxed load + branch.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Aggregate accounting across all rings. emitted == recorded + dropped
  /// even while emitters are running (each term is read per ring).
  struct Stats {
    uint64_t emitted = 0;   // Events ever passed to Emit while enabled.
    uint64_t recorded = 0;  // Events currently held in rings.
    uint64_t dropped = 0;   // Oldest events overwritten by ring wrap.
    size_t rings = 0;       // Emitting threads seen.
    size_t ring_capacity = 0;
  };
  Stats stats() const;

  /// Copies every held event, ring by ring in thread-registration order
  /// (within a ring: oldest to newest). Stable only once emitters have
  /// quiesced (join or happens-before edge); a concurrent emit may replace
  /// an old event mid-copy on its own ring.
  std::vector<Event> Collect() const;

  /// Empties every ring and zeroes the drop accounting. Emitters must be
  /// quiesced (test/bench use).
  void Reset();

  /// Publishes the recorder's accounting as freshen_obs_recorder_* gauges.
  void ExportMetrics(MetricsRegistry& registry) const;

  size_t ring_capacity() const { return capacity_; }

 private:
  struct Ring {
    explicit Ring(size_t capacity, uint64_t tid)
        : slots(new Event[capacity]), tid(tid) {}
    std::unique_ptr<Event[]> slots;
    std::atomic<uint64_t> head{0};  // Events ever written to this ring.
    uint64_t tid = 0;               // 1-based thread id within this recorder.
  };

  Ring* RingForThisThread();

  size_t capacity_ = 0;  // Power of two.
  std::atomic<bool> enabled_{false};
  uint64_t id_ = 0;  // Process-unique; keys the thread-local ring cache.
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Ring>> rings_;
};

}  // namespace obs
}  // namespace freshen

#endif  // FRESHEN_OBS_RECORDER_H_
