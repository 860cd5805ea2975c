// Estimator drift detector — "is the plan solved against the right λ?".
//
// The planner's output is only as good as the believed change rates it was
// solved with (Avrachenkov et al., "Online Algorithms for Estimating Change
// Rates of Web Pages"). Between replans the believed rates drift with new
// evidence, and the *plan* keeps running on the old ones; if the world
// shifted (a flash crowd of edits, a source going quiet), staleness shows
// up at users long before the next scheduled replan. This detector watches
// for that gap continuously:
//
//   * Every applied sync is a free poll: ObserveSync(element, changed, gap)
//     accumulates per-element evidence (polls, detected changes, watched
//     time) in a SyncEvidence store, the store type the adaptive
//     controller keeps undecayed; here it decays once per period so old
//     evidence fades.
//   * At every period close, EndPeriod(now, planned_rates) turns each
//     element's evidence into a bias-reduced observed-rate estimate
//     (-log(1 - c/p) per mean gap — the paper's [4] estimator form) and
//     scores it against the rate the CURRENT PLAN was solved with:
//     score = |ln(observed / planned)|, so score ln(2) means the believed
//     rate is off by 2x in either direction. Decay leaves the estimate
//     unchanged, so an element is rescored only after new evidence or a
//     change in its planned rate.
//   * The report carries the evidence-weighted aggregate score, the top-k
//     worst offenders, and a replan recommendation that arms after the
//     aggregate stays above threshold for a configurable number of
//     consecutive periods (debounced so one noisy period can't force an
//     early replan).
//
// Threading: ObserveSync and EndPeriod are loop-thread-only. Report() /
// replan_recommended() are safe from any thread (the report is rebuilt
// under a mutex at period close; readers copy it under the same mutex).
#ifndef FRESHEN_OBS_DRIFT_H_
#define FRESHEN_OBS_DRIFT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "common/result.h"
#include "estimate/change_estimator.h"
#include "obs/metrics.h"

namespace freshen {
namespace obs {

/// One drifted element in a DriftReport, worst first.
struct DriftOffender {
  size_t element = 0;
  /// The rate the current plan was solved against.
  double planned_rate = 0.0;
  /// Bias-reduced estimate from the decayed sync evidence.
  double observed_rate = 0.0;
  /// |ln(observed / planned)| (ln 2 = off by 2x).
  double score = 0.0;
  /// Decayed effective poll count backing the estimate.
  double evidence = 0.0;
};

/// A coherent sample of the detector at the last period close.
struct DriftReport {
  /// Virtual time of the last EndPeriod.
  double now = 0.0;
  /// Elements with enough evidence to score this period.
  size_t scored_elements = 0;
  /// Elements whose score exceeded flag_threshold.
  size_t flagged_elements = 0;
  /// Evidence-weighted mean score over scored elements.
  double aggregate_score = 0.0;
  double max_score = 0.0;
  /// Worst offenders, descending by score (at most Options::top_k).
  std::vector<DriftOffender> top;
  /// True when the aggregate has stayed above replan_score for
  /// replan_consecutive_periods closes.
  bool replan_recommended = false;
  /// Consecutive period closes with aggregate_score >= replan_score.
  uint32_t periods_above_threshold = 0;
  /// Early replans this detector has triggered (loop-reported).
  uint64_t replans_triggered = 0;
};

/// Believed-vs-observed λ drift detector. Loop-thread writer, any-thread
/// readers.
class DriftDetector {
 public:
  struct Options {
    /// Catalog size; evidence arrays are sized once here.
    size_t num_elements = 0;
    /// Per-period multiplicative decay of the evidence (1 = never forget).
    double decay = 0.97;
    /// Effective (decayed) polls an element needs before it is scored.
    double min_evidence = 3.0;
    /// Offender-list length.
    size_t top_k = 8;
    /// Per-element score above which the element counts as flagged.
    /// Default ln(2): believed rate off by 2x.
    double flag_threshold = 0.6931471805599453;
    /// Aggregate score at which a replan is recommended. Default ln(3).
    double replan_score = 1.0986122886681098;
    /// Consecutive periods the aggregate must stay above replan_score
    /// before replan_recommended() arms (debounce).
    uint32_t replan_consecutive_periods = 2;
    /// Floor for both rates before taking the log ratio, so zero-change
    /// evidence against a hot believed rate still yields a finite score.
    double rate_floor = 1e-4;
    /// Registry for freshen_drift_* metrics; nullptr = process-wide.
    MetricsRegistry* registry = nullptr;
  };

  static Result<DriftDetector> Create(Options options);

  DriftDetector(DriftDetector&&) = default;
  DriftDetector& operator=(DriftDetector&&) = default;

  /// Records one applied sync: `changed` is whether the fetched copy
  /// differed, `gap` the time since the element's previous sync (periods;
  /// non-positive gaps are ignored). Loop thread only.
  void ObserveSync(size_t element, bool changed, double gap);

  /// Closes a period: decays evidence, scores every element against
  /// `planned_rates` (the rates the CURRENT plan was solved with — size
  /// num_elements), rebuilds the report, updates metrics. Loop thread only.
  void EndPeriod(double now, const std::vector<double>& planned_rates);

  /// True when drift has persisted long enough to justify an early replan.
  /// Any thread.
  bool replan_recommended() const {
    return recommend_->load(std::memory_order_acquire);
  }

  /// The loop calls this after acting on the recommendation: clears the
  /// armed flag and the debounce counter, and counts the triggered replan.
  void AcknowledgeReplan();

  /// Copy of the last period's report (any thread).
  DriftReport Report() const;

  const Options& options() const { return options_; }

 private:
  explicit DriftDetector(Options options);

  // One element's last score and the planned rate it was scored against.
  // A sync queues the element in dirty_ and marks it queued (a negative
  // scored_against); NaN while it has too little evidence to be scored.
  struct Score {
    double score = 0.0;
    double scored_against = std::numeric_limits<double>::quiet_NaN();
  };

  // True when the element has enough evidence to be scored.
  bool Scorable(size_t element) const {
    return evidence_.polls(element) >= options_.min_evidence &&
           evidence_.watched_time(element) > 0.0;
  }

  // The bias-reduced observed rate from the element's evidence.
  double ObservedRate(size_t element) const;

  // Scores the element against `planned` (one lane of RescoreSynced).
  [[gnu::cold, gnu::noinline]] void RescoreOne(size_t element,
                                               double planned);

  // Rescores, in batches, the scorable elements synced since the last
  // EndPeriod, and empties dirty_.
  void RescoreSynced(const std::vector<double>& planned_rates);

  Options options_;
  // Decayed polls, detected changes and watched time, per element.
  SyncEvidence evidence_;
  std::vector<Score> scores_;
  // Elements synced since the last EndPeriod, each once.
  std::vector<size_t> dirty_;

  // Reader-shared state. unique_ptr keeps the detector movable.
  std::unique_ptr<std::mutex> mu_;
  DriftReport report_;  // Guarded by *mu_.
  std::unique_ptr<std::atomic<bool>> recommend_;

  uint32_t periods_above_ = 0;
  uint64_t replans_triggered_ = 0;

  // Cached registry handles.
  Gauge* aggregate_gauge_;
  Gauge* max_gauge_;
  Gauge* flagged_gauge_;
  Counter* replans_counter_;
};

}  // namespace obs
}  // namespace freshen

#endif  // FRESHEN_OBS_DRIFT_H_
