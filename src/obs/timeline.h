// Per-element staleness attribution — the freshness ledger behind the
// paper's PF objective. Aggregate freshness says *how much* of the
// perceived-staleness budget p_i * (1 - F(f_i, lambda_i)) is being spent;
// this timeline says *which elements* are spending it: it accounts
// time-in-fresh / time-in-stale per element from fresh<->stale transitions
// (fed by the simulator or the online loop), tracks a fresh-access SLO
// (fraction of accesses served fresh, and served within a configurable age
// threshold), and ranks per-window "staleness offenders" by
// p_i * stale_fraction_i.
//
// Determinism: transition and access calls touch only the element's own
// slots (safe from the sharded simulator — each element belongs to exactly
// one shard), and every aggregate is computed sequentially in element-index
// order at window close, so reports are byte-identical at any thread count.
// `timeline_test` pins the cross-check the accounting exists for: the
// ledger's weighted time-in-fresh reproduces the simulator's measured
// perceived freshness to 1e-9.
#ifndef FRESHEN_OBS_TIMELINE_H_
#define FRESHEN_OBS_TIMELINE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "obs/metrics.h"

namespace freshen {
namespace obs {

/// One element's ledger totals over the whole observation window.
struct TimelineElementStats {
  size_t element = 0;
  /// Normalized access weight p_i.
  double weight = 0.0;
  /// Seconds (period units) the copy was stale inside the window.
  double stale_time = 0.0;
  /// 1 - stale_time / window length.
  double fresh_fraction = 1.0;
  /// p_i * stale_fraction — the element's bite out of the PF budget.
  double stale_score = 0.0;
  uint64_t accesses = 0;
  uint64_t fresh_accesses = 0;
  /// Accesses whose copy age was <= the configured SLO threshold (fresh
  /// accesses count: their age is 0).
  uint64_t slo_accesses = 0;
  /// Mean copy age over this element's accesses (0 when always fresh).
  double mean_access_age = 0.0;
};

/// One observation window (a period for the online loop, the whole horizon
/// for the simulator).
struct TimelineWindow {
  double begin = 0.0;
  double end = 0.0;
  /// Sum over i of p_i * fresh_fraction_i inside this window — the
  /// time-averaged perceived freshness the ledger measured.
  double weighted_freshness = 0.0;
  uint64_t accesses = 0;
  uint64_t fresh_accesses = 0;
  uint64_t slo_accesses = 0;
  /// Top-k elements by p_i * stale_fraction_i inside this window,
  /// descending (ties by element index).
  std::vector<TimelineElementStats> offenders;
};

/// The finalized report: the overall window, every per-period window closed
/// along the way, and the full per-element ledger.
struct TimelineReport {
  TimelineWindow overall;
  std::vector<TimelineWindow> periods;
  std::vector<TimelineElementStats> elements;
  /// Fraction of all accesses served fresh / served within the age SLO.
  double fresh_access_ratio = 0.0;
  double slo_access_ratio = 0.0;
  double age_slo = 0.0;
};

/// Per-element time-in-fresh/time-in-stale ledger. Feed it transitions and
/// accesses, optionally close per-period windows, then Finalize() once.
class StalenessTimeline {
 public:
  struct Options {
    /// Observation window, in period units. Transitions outside it are
    /// clamped; end must be > begin (the fresh-fraction denominator).
    double window_begin = 0.0;
    double window_end = 1.0;
    /// Age threshold for the access SLO (period units), finite and >= 0.
    double age_slo = 0.25;
    /// Offenders reported per window.
    size_t top_k = 10;
    /// Registry for the freshen_timeline_* gauges published at Finalize;
    /// nullptr means the process-wide MetricsRegistry::Global().
    MetricsRegistry* registry = nullptr;
  };

  /// A ledger over `weights.size()` elements. Weights are the access
  /// probabilities p_i (non-negative, not all zero; normalized internally).
  static Result<StalenessTimeline> Create(std::vector<double> weights,
                                          Options options);

  /// Marks `element` stale as of `time` (no-op if already stale — the
  /// earliest onset wins). Safe to call concurrently for distinct elements;
  /// calls for one element must be ordered by the caller.
  void MarkStale(size_t element, double time);

  /// Marks `element` fresh as of `time`, charging the closed stale
  /// interval (clamped to the window). No-op if already fresh.
  void MarkFresh(size_t element, double time);

  /// Records one access at `time` with observed copy `age` (0 = fresh).
  void OnAccess(size_t element, double time, double age);

  /// Closes the current per-period window at `end` and appends its
  /// TimelineWindow (offenders, SLO, weighted freshness). Call from one
  /// thread with emitters quiesced.
  void CloseWindow(double end);

  /// Charges still-open stale intervals up to window_end, publishes the
  /// freshen_timeline_* gauges, and returns the report. Call once.
  TimelineReport Finalize();

  size_t size() const { return weights_.size(); }
  const std::vector<double>& weights() const { return weights_; }

 private:
  StalenessTimeline(std::vector<double> weights, Options options);

  // Overlap of [from, to] with the observation window.
  double ClampedInterval(double from, double to) const;

  // Builds the window view over [begin, end) from (total - mark) deltas.
  TimelineWindow BuildWindow(double begin, double end,
                             bool against_marks) const;

  Options options_;
  std::vector<double> weights_;  // Normalized p_i.

  // Whole-run ledger, indexed by element. stale_since_ < 0 means fresh.
  std::vector<double> stale_since_;
  std::vector<double> stale_total_;
  std::vector<uint64_t> accesses_;
  std::vector<uint64_t> fresh_accesses_;
  std::vector<uint64_t> slo_accesses_;
  std::vector<double> age_sum_;

  // Marks at the last CloseWindow, for per-period deltas.
  std::vector<double> stale_mark_;
  std::vector<uint64_t> accesses_mark_;
  std::vector<uint64_t> fresh_mark_;
  std::vector<uint64_t> slo_mark_;

  double window_cursor_ = 0.0;  // Begin of the currently open period window.
  std::vector<TimelineWindow> closed_windows_;
};

/// Per-element ledger as CSV (schema documented in EXPERIMENTS.md):
/// element,weight,stale_time,fresh_fraction,stale_score,accesses,
/// fresh_accesses,slo_accesses,mean_access_age.
std::string FormatTimelineCsv(const TimelineReport& report);

/// The report as a JSON document: overall + per-period windows (each with
/// its offender ranking) and the SLO summary.
std::string FormatTimelineJson(const TimelineReport& report);

}  // namespace obs
}  // namespace freshen

#endif  // FRESHEN_OBS_TIMELINE_H_
