// SyncExecutor — the layer that turns a planner schedule into actual fetches
// against a Source that can be slow, flaky, or down. The planner and the
// online loop stay in abstract period time; the executor owns transport
// reality: a thread pool, a bounded work queue with fail-fast backpressure,
// per-attempt timeouts, capped-exponential-backoff retries with decorrelated
// jitter, and a per-source circuit breaker.
//
// Execution is two-phase so results are bit-reproducible despite real
// threads:
//   1. Speculative fetch (parallel): every admitted task runs its attempt
//      loop against the Source on the pool, recording an attempt trace.
//      Source outcomes are pure functions of (seed, seq, attempt), so the
//      trace does not depend on thread interleaving.
//   2. Deterministic commit (sequential): tasks are replayed in scheduled
//      order against the retry policy and the circuit breaker, charging
//      bandwidth, choosing apply times, and updating metrics. Completion
//      events settle into the breaker in virtual-time order, so breaker
//      behavior is identical run to run.
// A breaker-refused task never charges bandwidth (its speculative trace is
// discarded); a queue-overflow drop never reaches the source at all.
//
// Failure-semantics contract (what the online loop relies on):
//   * kApplied    : the copy refreshes at `apply_time` (scheduled time plus
//                   total transport time, in period units).
//   * kFailed     : all attempts failed; the copy stays stale; every
//                   attempt's bandwidth is counted as wasted.
//   * kBreakerOpen: refused locally; no attempts, no bandwidth.
//   * kDropped    : refused by queue backpressure; no attempts, no bandwidth.
#ifndef FRESHEN_SYNC_EXECUTOR_H_
#define FRESHEN_SYNC_EXECUTOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "sync/circuit_breaker.h"
#include "sync/retry.h"
#include "sync/source.h"

namespace freshen {
namespace sync {

/// One due sync from the planner's schedule.
struct SyncTask {
  /// Element to refresh.
  size_t element = 0;
  /// Scheduled time, in period units (the online loop's clock).
  double time = 0.0;
  /// Bandwidth cost of one fetch attempt of this element.
  double size = 1.0;
};

/// Why a task ended the way it did.
enum class SyncOutcomeKind {
  kApplied,      // Fetched; apply at `apply_time`.
  kFailed,       // Exhausted retries; copy stays stale.
  kBreakerOpen,  // Refused by the circuit breaker; no attempts made.
  kDropped,      // Refused by queue backpressure; no attempts made.
};

/// The executor's verdict on one task, in scheduled order.
struct SyncOutcome {
  size_t element = 0;
  SyncOutcomeKind kind = SyncOutcomeKind::kApplied;
  /// The task's scheduled time (period units).
  double scheduled_time = 0.0;
  /// When the refreshed copy lands (period units): scheduled time plus all
  /// attempt latencies and backoff delays. Meaningful only for kApplied.
  double apply_time = 0.0;
  /// Attempts actually made (0 for breaker-refused / dropped tasks).
  uint32_t attempts = 0;
  /// Bandwidth burned by failed attempts (attempts minus the final success,
  /// each costing `size`).
  double wasted_bandwidth = 0.0;
};

/// Aggregate view of one Execute call (sums over its outcomes).
struct ExecuteStats {
  uint64_t tasks = 0;
  uint64_t applied = 0;
  uint64_t failed = 0;
  uint64_t breaker_open = 0;
  uint64_t dropped = 0;
  uint64_t attempts = 0;
  uint64_t retries = 0;
  double wasted_bandwidth = 0.0;
};

/// Executes batches of due syncs concurrently against one Source. Not
/// movable; create on the heap via Create(). Thread-compatible: Execute is
/// meant to be called from one coordinator thread at a time.
class SyncExecutor {
 public:
  struct Options {
    /// Worker threads fetching in parallel.
    size_t num_threads = 4;
    /// Bounded work-queue capacity; tasks beyond it are dropped (fail-fast
    /// backpressure), counted in freshen_sync_dropped.
    size_t queue_capacity = 1024;
    /// Retry/backoff/timeout policy.
    RetryPolicy retry;
    /// Circuit-breaker thresholds.
    CircuitBreaker::Options breaker;
    /// Transport seconds per period unit: task times are multiplied by this
    /// before hitting the Source/breaker, and transport durations divided by
    /// it on the way back. Must be > 0.
    double period_seconds = 1.0;
    /// Seed for backoff jitter.
    uint64_t seed = 31;
    /// Registry for freshen_sync_* metrics; nullptr means the process-wide
    /// obs::MetricsRegistry::Global().
    obs::MetricsRegistry* registry = nullptr;
  };

  /// Validates options and spins up the pool. `source` must outlive the
  /// executor and be thread-safe.
  static Result<std::unique_ptr<SyncExecutor>> Create(Source* source,
                                                      Options options);

  /// Executes one batch of due syncs (one period's worth, typically).
  /// Returns one outcome per task, ordered by scheduled time. Breaker state
  /// and the task sequence persist across calls, so consecutive batches
  /// model one continuous timeline; task times must be non-decreasing
  /// across calls for breaker cool-downs to behave.
  std::vector<SyncOutcome> Execute(const std::vector<SyncTask>& tasks);

  /// Aggregate counters for the most recent Execute call.
  const ExecuteStats& last_stats() const { return last_stats_; }

  /// The breaker, for inspection (state(), open_transitions()).
  const CircuitBreaker& breaker() const { return breaker_; }

  /// The source fetched from.
  const Source& source() const { return *source_; }

  const Options& options() const { return options_; }

 private:
  SyncExecutor(Source* source, CircuitBreaker breaker, Options options);

  // One attempt as recorded by the speculative fetch phase.
  struct AttemptRecord {
    bool ok = false;
    bool timed_out = false;
    double latency_seconds = 0.0;
  };

  Source* source_;
  Options options_;
  CircuitBreaker breaker_;
  Rng backoff_rng_;
  uint64_t next_seq_ = 0;
  uint64_t breaker_opens_seen_ = 0;
  ExecuteStats last_stats_;
  std::unique_ptr<ThreadPool> pool_;

  // Cached registry handles (valid for the registry's lifetime).
  obs::Counter* tasks_counter_;
  obs::Counter* applied_counter_;
  obs::Counter* attempts_counter_;
  obs::Counter* retries_counter_;
  obs::Counter* failures_counter_;
  obs::Counter* dropped_counter_;
  obs::Counter* breaker_skipped_counter_;
  obs::Counter* breaker_opens_counter_;
  obs::Counter* wasted_bandwidth_counter_;
  obs::Gauge* queue_depth_gauge_;
  obs::Histogram* fetch_latency_histogram_;
  obs::MetricsRegistry* registry_;
};

}  // namespace sync
}  // namespace freshen

#endif  // FRESHEN_SYNC_EXECUTOR_H_
