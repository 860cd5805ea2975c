#include "obs/drift.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/status.h"

namespace freshen {
namespace obs {

DriftDetector::DriftDetector(Options options)
    : options_(options),
      evidence_(options.num_elements),
      mu_(new std::mutex),
      recommend_(new std::atomic<bool>(false)) {
  MetricsRegistry& registry =
      options_.registry != nullptr ? *options_.registry
                                   : MetricsRegistry::Global();
  aggregate_gauge_ = registry.GetGauge("freshen_drift_aggregate_score");
  max_gauge_ = registry.GetGauge("freshen_drift_max_score");
  flagged_gauge_ = registry.GetGauge("freshen_drift_flagged_elements");
  replans_counter_ = registry.GetCounter("freshen_drift_replans_triggered");
}

Result<DriftDetector> DriftDetector::Create(Options options) {
  if (options.num_elements == 0) {
    return Status::InvalidArgument("DriftDetector: num_elements must be > 0");
  }
  if (!(options.decay > 0.0 && options.decay <= 1.0)) {
    return Status::InvalidArgument("DriftDetector: decay must be in (0, 1]");
  }
  if (!(options.min_evidence >= 1.0)) {
    return Status::InvalidArgument("DriftDetector: min_evidence must be >= 1");
  }
  if (options.top_k == 0) {
    return Status::InvalidArgument("DriftDetector: top_k must be > 0");
  }
  if (!(options.flag_threshold > 0.0) || !(options.replan_score > 0.0)) {
    return Status::InvalidArgument(
        "DriftDetector: thresholds must be positive");
  }
  if (options.replan_consecutive_periods == 0) {
    return Status::InvalidArgument(
        "DriftDetector: replan_consecutive_periods must be >= 1");
  }
  if (!(options.rate_floor > 0.0)) {
    return Status::InvalidArgument("DriftDetector: rate_floor must be > 0");
  }
  return DriftDetector(options);
}

void DriftDetector::ObserveSync(size_t element, bool changed, double gap) {
  if (element >= evidence_.size()) return;
  if (!(gap > 0.0) || !std::isfinite(gap)) return;
  Evidence& e = evidence_[element];
  e.polls += 1.0;
  if (changed) e.changes += 1.0;
  e.watch_time += gap;
  e.scored_against = std::numeric_limits<double>::quiet_NaN();
}

double DriftDetector::ObservedRate(const Evidence& e) const {
  // Bias-reduced rate from poll evidence: with mean inter-poll gap w/p and
  // detection ratio c/p, a Poisson change process has
  // rate = -ln(1 - c/p) / (w/p). Cap the ratio so all-changed evidence
  // yields a large finite rate instead of infinity.
  const double ratio = std::min(e.changes / e.polls, 0.999);
  return std::max(-std::log1p(-ratio) / (e.watch_time / e.polls),
                  options_.rate_floor);
}

void DriftDetector::EndPeriod(double now,
                              const std::vector<double>& planned_rates) {
  DriftReport report;
  report.now = now;
  report.top.reserve(options_.top_k);

  double weighted_score = 0.0;
  double weight = 0.0;
  const size_t n = std::min(evidence_.size(), planned_rates.size());
  for (size_t i = 0; i < evidence_.size(); ++i) {
    Evidence& e = evidence_[i];
    const double p = e.polls;
    if (i < n && p >= options_.min_evidence && e.watch_time > 0.0) {
      const double planned = std::max(planned_rates[i], options_.rate_floor);
      // Decay scales polls, changes and watched time alike, so the observed
      // rate moves only when a sync adds evidence. Rescore only then, or
      // when the plan's rate changed.
      if (e.scored_against != planned) {
        e.score = std::fabs(std::log(ObservedRate(e) / planned));
        e.scored_against = planned;
      }
      const double score = e.score;

      ++report.scored_elements;
      weighted_score += score * p;
      weight += p;
      report.max_score = std::max(report.max_score, score);
      if (score >= options_.flag_threshold) ++report.flagged_elements;

      if (report.top.size() < options_.top_k ||
          score > report.top.back().score) {
        DriftOffender offender;
        offender.element = i;
        offender.planned_rate = planned;
        offender.observed_rate = ObservedRate(e);
        offender.score = score;
        offender.evidence = p;
        auto pos = std::upper_bound(
            report.top.begin(), report.top.end(), offender,
            [](const DriftOffender& a, const DriftOffender& b) {
              return a.score > b.score;
            });
        report.top.insert(pos, offender);
        if (report.top.size() > options_.top_k) report.top.pop_back();
      }
    }
    // Decay AFTER scoring so the period's own syncs count at full weight.
    e.polls *= options_.decay;
    e.changes *= options_.decay;
    e.watch_time *= options_.decay;
  }
  if (weight > 0.0) report.aggregate_score = weighted_score / weight;

  // Debounced recommendation: require sustained aggregate drift.
  if (report.aggregate_score >= options_.replan_score &&
      report.scored_elements > 0) {
    ++periods_above_;
  } else {
    periods_above_ = 0;
    recommend_->store(false, std::memory_order_release);
  }
  if (periods_above_ >= options_.replan_consecutive_periods) {
    recommend_->store(true, std::memory_order_release);
  }
  report.periods_above_threshold = periods_above_;
  report.replan_recommended =
      recommend_->load(std::memory_order_relaxed);
  report.replans_triggered = replans_triggered_;

  aggregate_gauge_->Set(report.aggregate_score);
  max_gauge_->Set(report.max_score);
  flagged_gauge_->Set(static_cast<double>(report.flagged_elements));

  {
    std::lock_guard<std::mutex> lock(*mu_);
    report_ = std::move(report);
  }
}

void DriftDetector::AcknowledgeReplan() {
  recommend_->store(false, std::memory_order_release);
  periods_above_ = 0;
  ++replans_triggered_;
  replans_counter_->Increment();
  std::lock_guard<std::mutex> lock(*mu_);
  report_.replan_recommended = false;
  report_.periods_above_threshold = 0;
  report_.replans_triggered = replans_triggered_;
}

DriftReport DriftDetector::Report() const {
  std::lock_guard<std::mutex> lock(*mu_);
  return report_;
}

}  // namespace obs
}  // namespace freshen
