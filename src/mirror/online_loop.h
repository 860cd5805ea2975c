// OnlineFreshenLoop: a complete, steppable mirror deployment. Runs the
// adaptive controller and the mirror's local copies against a simulated
// world (SimulatedWorld: the true catalog, its update streams and its user
// accesses), one period at a time:
//
//   while (true) {
//     stats = loop.RunPeriod();   // syncs fire, users hit the mirror,
//                                 // the controller observes everything
//   }                             // ...and re-plans at the boundary.
//
// The ground truth lives only in the world; the controller sees nothing but
// its own observations, and the mirror only its own sync times — this is the
// deployment the paper's §7 sketches, runnable end to end. The true profile
// can be swapped mid-run (world().SetTrueProfile) for interest-drift
// experiments (bench_ablation_drift).
#ifndef FRESHEN_MIRROR_ONLINE_LOOP_H_
#define FRESHEN_MIRROR_ONLINE_LOOP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "adaptive/adaptive_freshener.h"
#include "common/result.h"
#include "mirror/mirror_state.h"
#include "mirror/simulated_world.h"
#include "model/element.h"
#include "obs/metrics.h"
#include "sync/executor.h"

namespace freshen {
namespace obs {
class DriftDetector;
class SloMonitor;
class StalenessTimeline;
}  // namespace obs

/// One period's observable outcomes. The loop counts them itself and adds
/// the event counts (accesses, syncs, bandwidth_spent) to its registry's
/// freshen_mirror_* counters once at the period boundary, so they hold
/// whether or not the registry is enabled.
struct PeriodStats {
  /// Fraction of this period's accesses that saw a fresh copy.
  double perceived_freshness = 0.0;
  /// Mean copy age over this period's accesses (0 when fresh).
  double mean_access_age = 0.0;
  /// Accesses served this period.
  uint64_t accesses = 0;
  /// Syncs executed this period.
  uint64_t syncs = 0;
  /// Bandwidth spent on *applied* syncs this period (sum of synced sizes).
  double bandwidth_spent = 0.0;
  /// Bandwidth burned by failed fetch attempts this period (0 against a
  /// sync::PerfectSource, which never fails). Tracked separately from
  /// bandwidth_spent so failures are visible in the period view.
  double wasted_bandwidth = 0.0;
  /// Syncs that exhausted their retries this period (copy left stale).
  uint64_t failed_syncs = 0;
  /// Syncs refused by executor queue backpressure this period.
  uint64_t dropped_syncs = 0;
  /// Syncs refused by an open circuit breaker this period.
  uint64_t breaker_skipped_syncs = 0;
  /// True when the controller installed a new plan at the boundary.
  bool replanned = false;
};

/// A steppable closed-loop mirror.
class OnlineFreshenLoop {
 public:
  struct Options {
    /// Controller configuration.
    AdaptiveFreshener::Options controller;
    /// User accesses per period (Poisson arrivals from the true profile).
    double accesses_per_period = 1000.0;
    /// Seed for update/access randomness.
    uint64_t seed = 17;
    /// Metrics registry backing the loop's counters/gauges (and, unless the
    /// controller options name their own, the controller's too). nullptr
    /// means the process-wide obs::MetricsRegistry::Global().
    obs::MetricsRegistry* registry = nullptr;
    /// The executor every due sync is routed through: a fetch that fails
    /// (or is refused by the breaker or queue) leaves the copy stale, and a
    /// slow fetch applies late — at its scheduled time plus transport
    /// latency. Non-owning; must outlive the loop. nullptr means an executor
    /// the loop owns, over a sync::PerfectSource and reporting into
    /// `registry`: every sync then applies at its scheduled time.
    sync::SyncExecutor* executor = nullptr;
    /// Optional staleness-attribution ledger. When set, every period feeds
    /// it the mirror's fresh<->stale transitions and accesses, and closes
    /// one ledger window per period at the boundary (per-period offender
    /// rankings). Its window should start at 0 and end at/after the last
    /// period the caller will run. Non-owning; must outlive the loop.
    obs::StalenessTimeline* timeline = nullptr;
    /// Optional freshness SLO monitor. When set, every access is also
    /// scored against its age_slo() threshold and the boundary feeds it
    /// one ObservePeriod(now, accesses, fresh, age_good) sample — this is
    /// what drives the freshen_slo_* burn-rate alerting. Non-owning; must
    /// outlive the loop. Loop-thread writes only.
    obs::SloMonitor* slo = nullptr;
    /// Optional estimator drift detector. When set, every applied sync
    /// feeds it (element, changed, gap since the previous sync) and the
    /// boundary scores the evidence against the controller's planned
    /// change rates (PlanClasses()). Non-owning; must outlive the loop.
    obs::DriftDetector* drift = nullptr;
    /// Publication hook for serving (freshend): when set, RunPeriod invokes
    /// it once at the period boundary, after the controller's replan
    /// decision, with this period's stats and the ids of elements whose
    /// copies were actually refreshed, in apply order (an element synced
    /// twice in the period appears twice). During the call the loop is at a
    /// consistent boundary: the controller's plan (PlanClasses()) and the
    /// mirror's last-sync times all reflect the new period — exactly what a
    /// snapshot publisher needs for O(changed-shards) publication.
    std::function<void(const PeriodStats& stats,
                       const std::vector<uint32_t>& synced_elements)>
        on_period_end;
  };

  /// `truth` holds the real change rates, real profile, and sizes; the loop's
  /// world takes it whole, and only the sizes are shown to the controller.
  static Result<OnlineFreshenLoop> Create(ElementSet truth, double bandwidth,
                                          Options options);

  /// Advances one full period: executes due syncs under the controller's
  /// current frequencies, serves the period's accesses, feeds the controller
  /// every observation, and lets it re-plan at the boundary.
  PeriodStats RunPeriod();

  /// The controller, for inspection.
  const AdaptiveFreshener& controller() const { return *controller_; }

  /// Current simulated time (whole periods completed).
  double Now() const { return now_; }

  /// The true catalog (rates/profile/sizes currently in force).
  const ElementSet& truth() const { return world_.truth(); }

  /// The world the mirror runs against. Callers may change its true
  /// profile (SetTrueProfile); the controller is not told.
  SimulatedWorld& world() { return world_; }
  const SimulatedWorld& world() const { return world_; }

  /// The mirror's local-copy state (last-sync times), for publication hooks.
  const MirrorState& mirror() const { return mirror_; }

  /// The registry this loop reports into.
  obs::MetricsRegistry& registry() const { return *registry_; }

 private:
  OnlineFreshenLoop(SimulatedWorld world, AdaptiveFreshener controller,
                    Options options);

  Options options_;
  SimulatedWorld world_;
  MirrorState mirror_;
  // unique_ptr: AdaptiveFreshener is movable but this keeps the loop cheap
  // to move itself.
  std::unique_ptr<AdaptiveFreshener> controller_;
  double now_ = 0.0;
  // Per element, the index of the first period in which its frequency was
  // > 0: the anchor a never-synced element is phased from. kNeverFunded
  // until then.
  static constexpr uint32_t kNeverFunded = UINT32_MAX;
  std::vector<uint32_t> first_funded_;
  // Scratch for the on_period_end hook: elements synced this period, in
  // apply order. Reused across periods to avoid reallocation.
  std::vector<uint32_t> synced_scratch_;
  // The loop's own executor and its source, built only when
  // Options::executor is null; options_.executor then points at
  // own_executor_. unique_ptr: the executor holds the source's address.
  std::unique_ptr<sync::PerfectSource> perfect_source_;
  std::unique_ptr<sync::SyncExecutor> own_executor_;

  // Registry handles (cached once; valid for the registry's lifetime).
  obs::MetricsRegistry* registry_;
  obs::Counter* periods_counter_;
  obs::Counter* syncs_counter_;
  obs::Counter* accesses_counter_;
  obs::Counter* fresh_accesses_counter_;
  obs::Counter* bandwidth_counter_;
  obs::Gauge* freshness_gauge_;
  obs::Gauge* access_age_gauge_;
  obs::Gauge* lambda_error_gauge_;
};

}  // namespace freshen

#endif  // FRESHEN_MIRROR_ONLINE_LOOP_H_
