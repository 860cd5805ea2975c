// SyncExecutor — the layer that turns a planner schedule into actual fetches
// against a Source that can be slow, flaky, or down. The planner and the
// online loop stay in abstract period time; the executor owns transport
// reality: per-attempt timeouts, capped-exponential-backoff retries with
// decorrelated jitter, a per-source circuit breaker, and an admission bound
// per batch.
//
// Execution is one pass in scheduled order, the way the paper's
// Synchronization Scheduler walks its fixed-order timeline: each task takes
// the next sequence number, asks the breaker, and runs its attempt loop
// inline, charging bandwidth, choosing its apply time and updating metrics.
// Completion events settle into the breaker in virtual-time order. Source
// outcomes are pure functions of (seed, seq, attempt), so a run repeats
// bit for bit from its seeds. Transport time is in period units: one
// transport second is one period.
//
// Failure-semantics contract (what the online loop relies on):
//   * kApplied    : the copy refreshes at `apply_time` (scheduled time plus
//                   total transport time, in period units).
//   * kFailed     : all attempts failed; the copy stays stale; every
//                   attempt's bandwidth is counted as wasted.
//   * kBreakerOpen: refused locally; no attempts, no bandwidth.
//   * kDropped    : past the batch's admission bound; no attempts, no
//                   bandwidth.
#ifndef FRESHEN_SYNC_EXECUTOR_H_
#define FRESHEN_SYNC_EXECUTOR_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/result.h"
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
  kDropped,      // Past the admission bound; no attempts made.
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

/// Executes batches of due syncs against one Source, in scheduled order.
/// Create() builds it on the heap. Thread-compatible: Execute is meant to be
/// called from one thread at a time.
class SyncExecutor {
 public:
  struct Options {
    /// Admission bound per Execute call: the first `queue_capacity` tasks in
    /// scheduled order run, the rest are kDropped (counted in
    /// freshen_sync_dropped_total). The default admits every task.
    size_t queue_capacity = std::numeric_limits<size_t>::max();
    /// Retry/backoff/timeout policy.
    RetryPolicy retry;
    /// Circuit-breaker thresholds.
    CircuitBreaker::Options breaker;
    /// Seed for backoff jitter.
    uint64_t seed = 31;
    /// Registry for freshen_sync_* metrics; nullptr means the process-wide
    /// obs::MetricsRegistry::Global().
    obs::MetricsRegistry* registry = nullptr;
  };

  /// Validates options. `source` must outlive the executor.
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

 private:
  SyncExecutor(Source* source, CircuitBreaker breaker, Options options);

  Source* source_;
  Options options_;
  CircuitBreaker breaker_;
  Rng backoff_rng_;
  uint64_t next_seq_ = 0;
  uint64_t breaker_opens_seen_ = 0;
  ExecuteStats last_stats_;

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
  obs::Histogram* fetch_latency_histogram_;
  obs::MetricsRegistry* registry_;
};

}  // namespace sync
}  // namespace freshen

#endif  // FRESHEN_SYNC_EXECUTOR_H_
