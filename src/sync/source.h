// The transport boundary of the sync executor: a Source is where a fetch of
// one element's current copy actually happens, with all the failure modes a
// real origin has — latency, errors, stalls, outages. The executor
// (sync/executor.h) owns retries, timeouts, and circuit breaking; a Source
// only models a single attempt.
//
// Two implementations:
//   PerfectSource   : every attempt succeeds instantly — reproduces the
//                     inline-sync semantics of OnlineFreshenLoop bit-for-bit.
//   SimulatedSource : configurable latency distribution plus a deterministic,
//                     seeded fault injector (error rate, stall rate, periodic
//                     burst outages). Every attempt's dice roll is a pure
//                     function of (seed, task sequence, attempt), so a run
//                     replays identically from its seeds.
#ifndef FRESHEN_SYNC_SOURCE_H_
#define FRESHEN_SYNC_SOURCE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/result.h"

namespace freshen {
namespace sync {

/// One fetch attempt, identified deterministically: `seq` is the executor's
/// global task sequence number (monotone across Execute calls) and `attempt`
/// counts retries within the task (0 = first try).
struct FetchRequest {
  /// Element being fetched.
  size_t element = 0;
  /// The task's scheduled wall time in transport seconds (drives time-based
  /// faults such as burst outages).
  double scheduled_seconds = 0.0;
  /// Executor-wide task sequence number (deterministic, assigned in
  /// scheduled order).
  uint64_t seq = 0;
  /// Attempt index within the task (0-based).
  uint32_t attempt = 0;
};

/// The outcome of one attempt. `status` OK means the copy arrived after
/// `latency_seconds` of transport time; a non-OK status (Unavailable for
/// errors/outages) still consumed `latency_seconds` before failing. A stalled
/// attempt reports its full stall latency — the executor's per-attempt
/// timeout converts it into a DeadlineExceeded failure.
struct FetchResult {
  Status status;
  double latency_seconds = 0.0;
};

/// A fetchable origin. The executor calls Fetch from one thread at a time,
/// in scheduled order.
class Source {
 public:
  virtual ~Source() = default;

  /// Performs one fetch attempt.
  virtual FetchResult Fetch(const FetchRequest& request) = 0;

  /// Stable short name ("perfect", "simulated") for logs and metrics.
  virtual const char* name() const = 0;
};

/// The infallible, zero-latency origin: what the inline-sync path assumes.
class PerfectSource final : public Source {
 public:
  FetchResult Fetch(const FetchRequest& request) override;
  const char* name() const override { return "perfect"; }
};

/// A deterministic lossy origin. Latency is base + exponential jitter; faults
/// are seeded per (seq, attempt) so a run replays identically.
class SimulatedSource final : public Source {
 public:
  struct Options {
    /// Floor latency of every attempt.
    double base_latency_seconds = 0.002;
    /// Mean of the exponential jitter added on top of the base (0 = none).
    double mean_jitter_seconds = 0.008;
    /// Probability an attempt fails with Unavailable (after its latency).
    double error_rate = 0.0;
    /// Probability an attempt stalls: it "succeeds" only after
    /// `stall_latency_seconds`, which the executor's per-attempt timeout
    /// turns into a DeadlineExceeded failure.
    double stall_rate = 0.0;
    /// How long a stalled attempt takes.
    double stall_latency_seconds = 60.0;
    /// Burst outages: every `outage_interval_seconds` of scheduled time the
    /// source goes hard-down for `outage_duration_seconds` (attempts fail
    /// fast with Unavailable). 0 disables outages.
    double outage_interval_seconds = 0.0;
    double outage_duration_seconds = 0.0;
    /// Seed for all fault/latency dice.
    uint64_t seed = 47;
  };

  /// Validates rates/latencies (rates in [0,1], latencies finite and >= 0,
  /// outage duration <= interval when enabled).
  static Result<SimulatedSource> Create(Options options);

  // Movable (the atomic fault switch is copied by value) so Create can
  // return through Result.
  SimulatedSource(SimulatedSource&& other) noexcept
      : options_(other.options_), faults_enabled_(other.faults_enabled()) {}

  FetchResult Fetch(const FetchRequest& request) override;
  const char* name() const override { return "simulated"; }

  /// Master switch for all injected faults (errors, stalls, outages); latency
  /// is still sampled. Flip to false to model the fault clearing — safe to
  /// call while the executor is running.
  void SetFaultsEnabled(bool enabled) {
    faults_enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool faults_enabled() const {
    return faults_enabled_.load(std::memory_order_relaxed);
  }

  const Options& options() const { return options_; }

 private:
  explicit SimulatedSource(Options options) : options_(options) {}

  Options options_;
  std::atomic<bool> faults_enabled_{true};
};

}  // namespace sync
}  // namespace freshen

#endif  // FRESHEN_SYNC_SOURCE_H_
