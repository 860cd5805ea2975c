// FreshendDaemon — the resident serving process: hosts an OnlineFreshenLoop
// on a background thread and answers concurrent freshness queries from a
// snapshot-isolated view of its state.
//
// The split:
//   * The loop thread runs periods continuously (optionally paced to wall
//     time): syncs fire (optionally through a fault-injecting
//     sync::SyncExecutor), accesses are served, the controller replans.
//     After every period the loop's on_period_end hook publishes a new
//     immutable ServeSnapshot into the SnapshotStore — rebuilding only the
//     shards whose elements synced or whose plan moved, from the
//     controller's per-class plan; every snapshot shares the controller's
//     one size column.
//   * Query threads call IsFresh / ExpectedAge / GetPlan / Stats at any
//     time. Each query pins the current snapshot (lock-free; see
//     serve/store.h), computes from immutable columns, and unpins. Queries
//     never block the loop and the loop never blocks queries.
//
// Query semantics (documented per method): answers are computed from the
// controller's *believed* change rates against the snapshot's publication
// time — the daemon serves what the system knows, not ground truth it
// could not have in production.
#ifndef FRESHEN_SERVE_DAEMON_H_
#define FRESHEN_SERVE_DAEMON_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/timer.h"
#include "mirror/online_loop.h"
#include "obs/drift.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "serve/slowlog.h"
#include "serve/snapshot.h"
#include "serve/store.h"

namespace freshen {
namespace serve {

/// IsFresh answer: the probability the local copy equals the source at the
/// snapshot's publication instant, under the believed Poisson change rate.
struct FreshnessVerdict {
  /// Epoch of the snapshot that answered.
  uint64_t epoch = 0;
  /// P(no source update since the last sync) = exp(-lambda * elapsed).
  double fresh_probability = 1.0;
  /// fresh_probability >= Options::freshness_threshold.
  bool fresh = true;
  /// Periods since the element's last applied sync at publication time.
  double elapsed = 0.0;
};

/// ExpectedAge answer: closed-form expected age of the copy at publication
/// time: elapsed - (1 - exp(-lambda*elapsed)) / lambda (0 when lambda = 0).
struct AgeEstimate {
  uint64_t epoch = 0;
  double expected_age = 0.0;
  double elapsed = 0.0;
};

/// GetPlan answer: the element's slice of the current plan.
struct PlanEntry {
  uint64_t epoch = 0;
  /// Planned syncs per period (0 = starved by the planner).
  double frequency = 0.0;
  /// 1 / frequency (infinity when starved).
  double interval = 0.0;
  /// frequency * size: this element's bandwidth share per period.
  double bandwidth_share = 0.0;
};

/// Stats() answer: one coherent sample of the serving side.
struct DaemonStats {
  /// Stats frozen into the currently pinned snapshot.
  SnapshotStats snapshot;
  /// Store-level publication/reclamation counters.
  StoreStats store;
  /// Periods the loop has completed.
  uint64_t periods = 0;
  /// Queries answered since start (all kinds).
  uint64_t queries = 0;
  /// Readers pinned at sampling time.
  size_t pinned_readers = 0;
  /// True while the loop thread is running.
  bool running = false;
};

/// The resident daemon. Create -> Start -> queries from any thread ->
/// Stop. All query methods are safe to call from any number of threads
/// concurrently with the running loop.
class FreshendDaemon {
 public:
  struct Options {
    /// Online-loop configuration (controller cadence, executor, seed...).
    /// Its on_period_end hook is owned by the daemon and must be unset.
    OnlineFreshenLoop::Options loop;
    /// IsFresh verdict threshold on P(fresh).
    double freshness_threshold = 0.5;
    /// Wall-clock pacing: seconds per loop period (0 = run flat out).
    double period_seconds = 0.0;
    /// Stop after this many periods (0 = run until Stop()).
    uint64_t max_periods = 0;
    /// Registry for freshen_serve_* metrics; nullptr = process-wide. Also
    /// used for the loop unless loop.registry names its own.
    obs::MetricsRegistry* registry = nullptr;
    /// Freshness SLO monitoring (the SLO/HEALTH/WATCH telemetry source).
    /// The daemon owns the monitor and wires it into the loop; loop.slo
    /// must be unset. slo.registry defaults to the daemon's registry.
    obs::SloMonitor::Options slo;
    /// Estimator drift detection. The daemon owns the detector and wires
    /// it into the loop; loop.drift must be unset. drift.num_elements is
    /// filled from the catalog; drift.registry defaults to the daemon's.
    obs::DriftDetector::Options drift;
    /// Slow-query ring configuration (SLOWLOG). Create refuses a capacity
    /// above SlowQueryLog::kMaxCapacity and a negative or non-finite
    /// threshold.
    SlowQueryLog::Options slowlog;
  };

  /// Builds the loop, publishes the initial snapshot (epoch 1, from the
  /// controller's cold-start plan), and returns a stopped daemon. `truth`
  /// is the ground-truth catalog the loop simulates against.
  static Result<std::unique_ptr<FreshendDaemon>> Create(ElementSet truth,
                                                        double bandwidth,
                                                        Options options);

  /// Stops (if running) and drains.
  ~FreshendDaemon();

  FreshendDaemon(const FreshendDaemon&) = delete;
  FreshendDaemon& operator=(const FreshendDaemon&) = delete;

  /// Starts the loop thread. Error if already running.
  Status Start();

  /// Graceful drain: the loop finishes its current period, publishes its
  /// final snapshot, and the thread joins. Queries keep working after Stop
  /// (they serve the final snapshot). Idempotent.
  void Stop();

  /// True while the loop thread runs periods.
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Periods completed so far.
  uint64_t PeriodsRun() const {
    return periods_.load(std::memory_order_relaxed);
  }

  // ---- Query API (any thread) -------------------------------------------

  /// Is element `id`'s copy fresh (probably)? OutOfRange for bad ids.
  Result<FreshnessVerdict> IsFresh(size_t id) const;

  /// Expected copy age at the snapshot's publication time.
  Result<AgeEstimate> ExpectedAge(size_t id) const;

  /// The element's slice of the current plan.
  Result<PlanEntry> GetPlan(size_t id) const;

  /// One coherent stats sample.
  DaemonStats Stats() const;

  /// Pins and returns the current snapshot — the raw primitive behind the
  /// typed queries, used by torture tests and the serving bench to check
  /// consistency from the reader side.
  SnapshotRef AcquireSnapshot() const { return store_.Acquire(); }

  /// The number of catalog elements.
  size_t size() const { return num_elements_; }

  /// The hosted loop (loop-thread state; inspect only while stopped).
  const OnlineFreshenLoop& loop() const { return *loop_; }

  // ---- Telemetry plane (any thread) -------------------------------------

  /// The SLO monitor. Never null. Its Report()/state() are safe to read
  /// while the loop runs.
  const obs::SloMonitor* slo() const { return slo_.get(); }

  /// The drift detector. Never null.
  const obs::DriftDetector* drift() const { return drift_.get(); }

  /// The slow-query ring. Never null; the protocol layer records into it.
  SlowQueryLog* slow_log() const { return slow_log_.get(); }

  /// The registry this daemon (and its loop/server) reports into.
  obs::MetricsRegistry& registry() const { return *registry_; }

  /// Seconds since Create(). Also published as the freshen_uptime_seconds
  /// gauge on every Stats() sample.
  double UptimeSeconds() const { return uptime_timer_.ElapsedSeconds(); }

 private:
  FreshendDaemon(Options options, size_t num_elements);

  // Loop-thread body and the per-period publication hook.
  void LoopMain();
  void PublishBoundary(bool replanned, const std::vector<uint32_t>& synced);

  Options options_;
  size_t num_elements_ = 0;
  std::unique_ptr<OnlineFreshenLoop> loop_;
  // Built once the loop exists: it shares the controller's size column.
  std::unique_ptr<SnapshotBuilder> builder_;
  mutable SnapshotStore store_;

  std::thread loop_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<uint64_t> periods_{0};
  std::mutex pacing_mu_;
  std::condition_variable pacing_cv_;

  // Telemetry plane: SLO monitor + drift detector owned here, fed by the
  // loop thread, read by admin-command handler threads.
  std::unique_ptr<obs::SloMonitor> slo_;
  std::unique_ptr<obs::DriftDetector> drift_;
  // mutable-by-const-accessor: handler threads record through slow_log().
  std::unique_ptr<SlowQueryLog> slow_log_;
  WallTimer uptime_timer_;

  obs::MetricsRegistry* registry_;
  obs::Gauge* uptime_gauge_;
  obs::Counter* fresh_queries_counter_;
  obs::Counter* age_queries_counter_;
  obs::Counter* plan_queries_counter_;
  obs::Counter* stats_queries_counter_;
  obs::Counter* full_publish_counter_;
  obs::Counter* delta_publish_counter_;
  obs::Histogram* publish_seconds_;
  // Bytes of the snapshot builder's live and spare blocks, set at each
  // publish.
  obs::Gauge* snapshot_bytes_;
};

}  // namespace serve
}  // namespace freshen

#endif  // FRESHEN_SERVE_DAEMON_H_
