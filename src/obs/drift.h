// Estimator drift detector — "is the plan solved against the right λ?".
//
// The planner's output is only as good as the believed change rates it was
// solved with (Avrachenkov et al., "Online Algorithms for Estimating Change
// Rates of Web Pages"). Between replans the believed rates drift with new
// evidence, and the *plan* keeps running on the old ones; if the world
// shifted (a flash crowd of edits, a source going quiet), staleness shows
// up at users long before the next scheduled replan. This detector watches
// for that gap continuously and reports it; when to replan is the adaptive
// controller's cadence alone:
//
//   * Every applied sync is a free poll: ObserveSync(element, changed, gap)
//     accumulates per-element evidence (polls, detected changes, watched
//     time) in a SyncEvidence store, the store type the adaptive
//     controller keeps undecayed; here it decays once per period so old
//     evidence fades. Only a synced element has an evidence row, and its
//     score is kept in that row, so the detector holds 4 bytes for an
//     element no sync has reached and each period costs O(elements ever
//     synced), not O(N).
//   * At every period close, EndPeriod(now, plan) turns each
//     element's evidence into the plain Poisson estimate
//     -ln(1 - min(c/p, 0.999)) / (w/p) — not the Cho–Garcia-Molina
//     BiasReducedRate the controller plans on — and scores it against the
//     rate the CURRENT PLAN was solved with: score = |ln(observed /
//     planned)|, so score ln(2) means the two rates differ by 2x in either
//     direction. Decay leaves the estimate unchanged, so an element is
//     rescored only after new evidence or a change in its planned rate.
//   * The report carries the evidence-weighted aggregate score, the count
//     of flagged elements (score >= ln 2) and the top-k worst offenders.
//
// A flag means the two estimators disagree, not necessarily that the world
// moved: an element whose polls all saw a change is planned on the
// controller's saturated estimate (~ln(2n+1)/gap after n polls) while this
// detector reads the capped ratio, so with a steady truth a large share of
// well-polled elements can still be flagged. Read the offender list as
// "where do the plan's rates and the recent evidence part ways".
//
// Threading: ObserveSync and EndPeriod are loop-thread-only. Report() is
// safe from any thread (the report is rebuilt under a mutex at period
// close; readers copy it under the same mutex).
#ifndef FRESHEN_OBS_DRIFT_H_
#define FRESHEN_OBS_DRIFT_H_

#include <cstddef>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "common/plan_classes.h"
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
  /// Plain Poisson estimate from the decayed sync evidence.
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
  /// Elements whose score reached DriftDetector::kFlagScore.
  size_t flagged_elements = 0;
  /// Evidence-weighted mean score over scored elements.
  double aggregate_score = 0.0;
  double max_score = 0.0;
  /// Worst offenders, descending by score (at most Options::top_k).
  std::vector<DriftOffender> top;
};

/// Believed-vs-observed λ drift detector. Loop-thread writer, any-thread
/// readers.
class DriftDetector {
 public:
  /// Per-element score at or above which the element counts as flagged:
  /// ln(2), the two rates off by 2x.
  static constexpr double kFlagScore = 0.6931471805599453;
  /// Floor for both rates before taking the log ratio, so zero-change
  /// evidence against a hot believed rate still yields a finite score.
  static constexpr double kRateFloor = 1e-4;

  struct Options {
    /// Catalog size: sizes the element -> evidence-row column. Rows are
    /// appended as elements first sync.
    size_t num_elements = 0;
    /// Per-period multiplicative decay of the evidence (1 = never forget).
    double decay = 0.97;
    /// Effective (decayed) polls an element needs before it is scored.
    double min_evidence = 3.0;
    /// Offender-list length.
    size_t top_k = 8;
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

  /// Closes a period: decays evidence, scores every element with evidence
  /// against `plan`'s change rates (the rates the CURRENT plan was solved
  /// with, read through each element's class; plan.size() is
  /// num_elements), rebuilds the report, updates metrics. Walks the
  /// evidence rows in ascending element id. Loop thread only.
  void EndPeriod(double now, const PlanClassView& plan);

  /// Copy of the last period's report (any thread).
  DriftReport Report() const;

  const Options& options() const { return options_; }

 private:
  explicit DriftDetector(Options options);

  // One evidence row's last score and the planned rate it was scored
  // against. A sync marks the row queued (a negative scored_against, below
  // any floored planned rate), so the next EndPeriod rescores it. NaN
  // before the row's first sync.
  struct Score {
    double score = 0.0;
    double scored_against = std::numeric_limits<double>::quiet_NaN();
  };
  using Evidence = BasicSyncEvidence<Score>;

  // True when the evidence row has enough evidence to be scored.
  bool Scorable(size_t row) const {
    const Evidence::Row& evidence = evidence_.row(row);
    return evidence.polls >= options_.min_evidence &&
           evidence.watched_time > 0.0;
  }

  // The plain Poisson observed rate from an evidence row.
  static double ObservedRate(const Evidence::Row& evidence);

  // Scores `rows` (at most one sweep chunk of them, each of an element <
  // plan.size()) against their planned rates, in one batch.
  void RescoreRows(const size_t* rows, size_t count,
                   const PlanClassView& plan);

  Options options_;
  // Decayed polls, detected changes and watched time of every element
  // that has synced, each row with its score.
  Evidence evidence_;

  // Reader-shared state. unique_ptr keeps the detector movable.
  std::unique_ptr<std::mutex> mu_;
  DriftReport report_;  // Guarded by *mu_.

  // Cached registry handles.
  Gauge* aggregate_gauge_;
  Gauge* max_gauge_;
  Gauge* flagged_gauge_;
};

}  // namespace obs
}  // namespace freshen

#endif  // FRESHEN_OBS_DRIFT_H_
