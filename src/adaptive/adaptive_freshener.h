// Closed-loop freshening controller — the deployment story the paper
// sketches in §7: "gather information on user access-patterns ... through
// direct feedback from users or from a simple learning algorithm that
// monitors the system request log", combined with poll-based change-rate
// estimation ([4]/[6], §2.1) and periodic re-solving of the Core Problem
// ("for large real-world problems for which the contents of the mirror or
// the user interests might change, we would need to periodically solve the
// Core Problem").
//
// The controller owns three pieces of evolving state:
//   * an AccessLogLearner fed by ObserveAccess() (the request log),
//   * a SyncEvidence store fed by ObserveSync() (every refresh is a free
//     poll: did the fetched copy differ, and how long since the last one?),
//     never decayed, so each believed rate is the batch bias-reduced
//     estimate over every poll so far,
//   * the current plan, re-computed by MaybeReplan() on a fixed cadence by
//     FreshenPlanner's exact solve (SolveClasses, then RescaleToBudget),
//     kept per class of identical rows.
#ifndef FRESHEN_ADAPTIVE_ADAPTIVE_FRESHENER_H_
#define FRESHEN_ADAPTIVE_ADAPTIVE_FRESHENER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/plan_classes.h"
#include "common/result.h"
#include "core/planner.h"
#include "estimate/change_estimator.h"
#include "model/element.h"
#include "obs/metrics.h"
#include "opt/problem.h"
#include "profile/learner.h"

namespace freshen {

/// Periodically re-planning freshening controller.
class AdaptiveFreshener {
 public:
  struct Options {
    /// Request-log learner configuration (decay, smoothing). Smoothing
    /// defaults to 1.0 here so a cold-started controller begins from a
    /// uniform profile instead of failing.
    AccessLogLearner::Options learner = {.decay = 1.0, .smoothing = 1.0};
    /// Re-plan cadence, in periods.
    double replan_every_periods = 1.0;
    /// Change-rate prior used for elements with no sync evidence yet.
    double prior_change_rate = 1.0;
    /// Metrics registry for replan counters/latency (freshen_adaptive_*).
    /// nullptr means the process-wide obs::MetricsRegistry::Global().
    obs::MetricsRegistry* registry = nullptr;
  };

  /// A controller over `sizes.size()` elements with the given per-period
  /// bandwidth. Starts with a uniform-profile, prior-rate plan.
  static Result<AdaptiveFreshener> Create(std::vector<double> sizes,
                                          double bandwidth, Options options);

  /// Records one user access (feeds the profile learner).
  void ObserveAccess(size_t element);

  /// Records the outcome of one sync of `element`: `changed` is whether the
  /// fetched copy differed from the local one, `gap` the time since the
  /// element's previous sync (periods). A gap <= 0 carries no evidence; the
  /// online loop passes 0 for an element's first sync. That window starts at
  /// t = 0 and can be as long as the run; this store is never decayed, so
  /// counting it would cap the bias-reduced estimate near ln 3 / gap, and a
  /// measured run lost PF to it (docs/performance.md, "Fixed-Order
  /// timeline").
  void ObserveSync(size_t element, bool changed, double gap) {
    evidence_.Observe(element, changed, gap);
  }

  /// Marks a period boundary: applies the learner's decay so old interest
  /// fades (no-op at decay = 1).
  void EndPeriod();

  /// Re-plans when the cadence has elapsed since the last plan (or `force`).
  /// Returns true when a new plan was installed. A replan that fails (its
  /// believed rows do not form a valid Core Problem) installs an empty plan,
  /// every frequency 0, and returns the error.
  Result<bool> MaybeReplan(double now, bool force = false);

  /// The current plan's sync frequency (per period) for `element`.
  double Frequency(size_t element) const {
    return class_frequencies_[classes_.class_of()[element]];
  }

  /// The current plan, expanded per element: O(N), for tests and offline
  /// evaluation.
  std::vector<double> frequencies() const {
    return classes_.Expand(class_frequencies_);
  }

  /// The configured element sizes (bandwidth units per sync).
  const std::vector<double>& sizes() const { return *sizes_; }

  /// The same sizes as one immutable shared column, so a reader that needs
  /// them for the controller's lifetime (freshend's snapshots) holds this
  /// column instead of a copy.
  const std::shared_ptr<const std::vector<double>>& shared_sizes() const {
    return sizes_;
  }

  /// The catalog the controller currently believes in (learned profile,
  /// estimated change rates, configured sizes).
  ElementSet BelievedCatalog() const;

  /// One element's believed change rate — BelievedCatalog()[i].change_rate
  /// without the O(N) construction: the bias-reduced estimate from its
  /// syncs, or the prior before its first gap.
  double BelievedChangeRate(size_t element) const {
    return evidence_.RateOr(element, options_.prior_change_rate);
  }

  /// The change rate the CURRENT plan was solved against for `element`:
  /// its believed rate at the last replan, read through its class. Beliefs
  /// keep drifting with new evidence between replans — the gap between
  /// these and fresh observations is what obs::DriftDetector scores.
  double PlannedChangeRate(size_t element) const {
    return classes_.problem().change_rates[classes_.class_of()[element]];
  }

  /// The current plan per class: each element's class, and each class's
  /// frequency and planned change rate. Frequency(i) and
  /// PlannedChangeRate(i) are its values for element i. Class ids are
  /// renumbered at every replan; the view is valid until the next one.
  PlanClassView PlanClasses() const {
    return {classes_.class_of(), class_frequencies_,
            classes_.problem().change_rates};
  }

  /// Number of plans installed so far (including the initial one).
  uint64_t num_replans() const { return num_replans_; }

 private:
  AdaptiveFreshener(std::vector<double> sizes, double bandwidth,
                    Options options);

  Options options_;
  std::shared_ptr<const std::vector<double>> sizes_;
  double bandwidth_;
  AccessLogLearner learner_;

  // Change evidence from every sync so far, never decayed; a row only for
  // an element that has recorded a poll.
  SyncEvidence evidence_;

  // The exact replan's solver, and the class transform of the problem the
  // current plan solved: what FreshenPlanner's exact PF mode with unit
  // costs would build from BelievedCatalog(), grouped into classes. Its
  // rows are derived at each replan, never stored per element; its class
  // table holds the planned change rates.
  KktWaterFillingSolver solver_;
  ClassTransform classes_;
  // The plan: one frequency per class of classes_, the only copy.
  std::vector<double> class_frequencies_;
  double last_plan_time_ = 0.0;
  uint64_t num_replans_ = 0;

  // Cached registry handles (valid for the registry's lifetime).
  obs::Counter* replans_counter_;
  obs::Histogram* replan_latency_;
  // Rows the last exact solve ran on: classes, or N when the class
  // transform fell back to the per-element problem.
  obs::Gauge* plan_classes_;
};

}  // namespace freshen

#endif  // FRESHEN_ADAPTIVE_ADAPTIVE_FRESHENER_H_
