// Freshness SLO monitor — the runtime answer to "is the plan keeping its
// promise?". The planner targets an aggregate freshness level; Mao et al.
// ("Revisiting Cache Freshness for Emerging Real-Time Applications") argue
// applications actually care about SLO-style guarantees: "at least
// `objective` of accesses are served good", where good means either
// served-fresh or served-within-the-age-SLO. This monitor tracks that
// guarantee continuously against the live access stream.
//
// Mechanics (multi-window error-budget burn rate, the SRE alerting idiom):
//   * Every period the online loop reports (accesses, fresh_accesses,
//     age_slo_accesses) for the period that just closed.
//   * error budget = 1 - objective. The burn rate of a window is
//     bad_fraction / error_budget: 1.0 means the budget is being consumed
//     exactly as fast as the SLO allows, 10 means ten times too fast.
//   * Two sliding windows: a short fast window (paging-grade: reacts within
//     a few periods) and a long slow window (trend: filters blips).
//   * State machine evaluated at every period close:
//       kOk      fast burn below warn_burn_rate
//       kBurning fast burn >= warn_burn_rate (budget burning too fast)
//       kAlert   fast burn >= page_burn_rate AND slow burn >=
//                warn_burn_rate (it is bad AND it is not a blip)
//     Transitions are counted and exported as freshen_slo_* metrics.
//
// Threading: ObservePeriod is called by one thread (the loop thread) at
// period boundaries. Report()/state() are safe from any number of
// concurrent reader threads (admin commands, WATCH streams): the per-period
// ring is the writer's alone, the report is rebuilt from it under a mutex
// at period close, and readers copy it under the same mutex.
#ifndef FRESHEN_OBS_SLO_H_
#define FRESHEN_OBS_SLO_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/result.h"
#include "obs/metrics.h"

namespace freshen {
namespace obs {

/// Alerting state of the freshness SLO.
enum class SloState : uint8_t { kOk = 0, kBurning = 1, kAlert = 2 };

/// Returns "ok" / "burning" / "alert".
const char* SloStateName(SloState state);

/// One sliding window's view at the last period close.
struct SloWindowView {
  /// Configured length, in periods.
  double length_periods = 0.0;
  /// Periods currently inside the window.
  uint64_t periods = 0;
  uint64_t accesses = 0;
  uint64_t good = 0;
  /// 1 - good/accesses (0 when the window saw no accesses).
  double bad_ratio = 0.0;
  /// bad_ratio / error_budget.
  double burn_rate = 0.0;
};

/// A coherent sample of the monitor (one Report() call).
struct SloReport {
  /// Target good-access fraction and its complement.
  double objective = 0.0;
  double error_budget = 0.0;
  /// True when "good" means within the age SLO rather than strictly fresh.
  bool good_is_age_slo = false;
  /// The age threshold fed back to the access stream (period units).
  double age_slo = 0.0;
  SloState state = SloState::kOk;
  /// Total state changes since creation, and when the last one happened
  /// (virtual period time; 0 if none yet).
  uint64_t transitions = 0;
  double last_transition_time = 0.0;
  SloWindowView fast;
  SloWindowView slow;
  /// Whole-run totals.
  uint64_t total_accesses = 0;
  uint64_t total_good = 0;
  /// good/accesses over the whole run (1 when no accesses yet).
  double overall_good_ratio = 1.0;
  /// Fraction of the slow window's error budget still unspent, in [0, 1].
  double budget_remaining = 1.0;
  /// Virtual time of the last observed period close.
  double now = 0.0;
};

/// Sliding-window freshness SLO monitor. One writer, many readers.
class SloMonitor {
 public:
  struct Options {
    /// The SLO: target fraction of accesses served good, in (0, 1).
    double objective = 0.99;
    /// Age threshold (period units) defining "served within the age SLO".
    /// The access-stream feeder reads this via age_slo().
    double age_slo = 0.25;
    /// When true, "good" = age_slo_accesses; when false, "good" =
    /// fresh_accesses (strictly fresh).
    bool good_is_age_slo = false;
    /// Fast (paging-grade) and slow (trend) window lengths, in periods.
    /// 1 <= fast < slow.
    double fast_window_periods = 4.0;
    double slow_window_periods = 32.0;
    /// Burn-rate thresholds: warn <= page.
    double warn_burn_rate = 2.0;
    double page_burn_rate = 8.0;
    /// Registry for freshen_slo_* metrics; nullptr = process-wide.
    MetricsRegistry* registry = nullptr;
  };

  /// Validates options. The monitor allocates its ring up front; no
  /// allocation happens on ObservePeriod.
  static Result<SloMonitor> Create(Options options);

  SloMonitor(SloMonitor&&) = default;
  SloMonitor& operator=(SloMonitor&&) = default;

  /// Records one closed period [period_end - 1, period_end): how many
  /// accesses it served, how many saw a strictly fresh copy, and how many
  /// were served within the age SLO. Evaluates the state machine and
  /// publishes metrics. Loop thread only; period_end must be increasing.
  void ObservePeriod(double period_end, uint64_t accesses,
                     uint64_t fresh_accesses, uint64_t age_slo_accesses);

  /// Current alert state (any thread).
  SloState state() const {
    return static_cast<SloState>(state_->load(std::memory_order_acquire));
  }

  /// One coherent sample: the report built at the last period close (any
  /// thread).
  SloReport Report() const;

  /// The configured age threshold, for the access-stream feeder.
  double age_slo() const { return options_.age_slo; }

  const Options& options() const { return options_; }

 private:
  // One closed period: its accesses and how many of them were good.
  struct Period {
    uint64_t accesses = 0;
    uint64_t good = 0;
  };

  explicit SloMonitor(Options options);

  // Sums the trailing `window` periods from the ring (writer only).
  SloWindowView WindowView(double window) const;

  Options options_;
  // Writer-only: the last floor(slow_window_periods) closed periods, and how
  // many periods were ever observed.
  std::vector<Period> ring_;
  uint64_t head_ = 0;

  // Reader-shared state. unique_ptr keeps the monitor movable.
  std::unique_ptr<std::mutex> mu_;
  SloReport report_;  // Guarded by *mu_.
  std::unique_ptr<std::atomic<uint8_t>> state_;

  // Cached registry handles.
  Gauge* state_gauge_;
  Gauge* fast_burn_gauge_;
  Gauge* slow_burn_gauge_;
  Gauge* budget_remaining_gauge_;
  Counter* transitions_to_ok_;
  Counter* transitions_to_burning_;
  Counter* transitions_to_alert_;
};

}  // namespace obs
}  // namespace freshen

#endif  // FRESHEN_OBS_SLO_H_
