#include "obs/drift.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/simd.h"
#include "common/status.h"

namespace freshen {
namespace obs {
namespace {

// Cap on the detection ratio c/p, so all-changed evidence yields a large
// finite rate.
constexpr double kMaxDetectionRatio = 0.999;

// Elements per rescoring batch and per EndPeriod sweep chunk.
constexpr size_t kSweepChunk = 256;

// scored_against of an element queued for rescoring: below any planned
// rate, which is floored at kRateFloor > 0.
constexpr double kQueued = -1.0;

// |log ratio| given the batch kernel's log of it. LogPos takes positive
// normal doubles only; libm covers the rest.
double ScoreFromRatio(double ratio, double log_ratio) {
  return std::fabs(ratio >= std::numeric_limits<double>::min() &&
                           ratio <= std::numeric_limits<double>::max()
                       ? log_ratio
                       : std::log(ratio));
}

}  // namespace

DriftDetector::DriftDetector(Options options)
    : options_(options),
      evidence_(options.num_elements),
      mu_(new std::mutex) {
  MetricsRegistry& registry =
      options_.registry != nullptr ? *options_.registry
                                   : MetricsRegistry::Global();
  aggregate_gauge_ = registry.GetGauge("freshen_drift_aggregate_score");
  max_gauge_ = registry.GetGauge("freshen_drift_max_score");
  flagged_gauge_ = registry.GetGauge("freshen_drift_flagged_elements");
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
  return DriftDetector(options);
}

void DriftDetector::ObserveSync(size_t element, bool changed, double gap) {
  if (element >= evidence_.size()) return;
  const uint32_t row = evidence_.Observe(element, changed, gap);
  if (row == Evidence::kNoRow) return;
  evidence_.payload(row).scored_against = kQueued;
}

double DriftDetector::ObservedRate(const Evidence::Row& evidence) {
  // Plain Poisson rate from poll evidence: with mean inter-poll gap w/p and
  // detection ratio c/p, a Poisson change process has
  // rate = -ln(1 - c/p) / (w/p). Cap the ratio so all-changed evidence
  // yields a large finite rate instead of infinity. These are the steps
  // RescoreRows' batch takes, with the scalar form of its logarithm, so
  // a reported observed rate is the one its score was taken from.
  const double polls = evidence.polls;
  const double ratio = std::min(evidence.changes / polls, kMaxDetectionRatio);
  return std::max(-simd::Log1pRef(-ratio) / (evidence.watched_time / polls),
                  kRateFloor);
}

void DriftDetector::RescoreRows(const size_t* rows, size_t count,
                                const PlanClassView& plan) {
  // Each step of ObservedRate and the log ratio runs over the whole batch,
  // the two logarithms through the batch kernels.
  double planned[kSweepChunk];
  double gap[kSweepChunk];
  double x[kSweepChunk];
  double y[kSweepChunk];
  for (size_t j = 0; j < count; ++j) {
    const Evidence::Row& evidence = evidence_.row(rows[j]);
    planned[j] =
        std::max(plan.ChangeRate(evidence_.ElementOf(rows[j])), kRateFloor);
    x[j] = -std::min(evidence.changes / evidence.polls, kMaxDetectionRatio);
    gap[j] = evidence.watched_time / evidence.polls;
  }
  simd::Log1pBatch(x, y, count);
  for (size_t j = 0; j < count; ++j) {
    x[j] = std::max(-y[j] / gap[j], kRateFloor) / planned[j];
  }
  simd::LogPosBatch(x, y, count);
  for (size_t j = 0; j < count; ++j) {
    evidence_.payload(rows[j]) = {ScoreFromRatio(x[j], y[j]), planned[j]};
  }
}

void DriftDetector::EndPeriod(double now, const PlanClassView& plan) {
  // The sums below run in ascending element id, the order a sweep over
  // every element would take, so they keep its bits.
  evidence_.SortRowsByElement();

  DriftReport report;
  report.now = now;

  // The top-k list. Offenders are built only for the final k, before the
  // evidence decays.
  struct Candidate {
    size_t row;
    double score;
  };
  std::vector<Candidate> top;
  top.reserve(options_.top_k + 1);

  const size_t top_k = options_.top_k;
  size_t scored_elements = 0;
  size_t flagged_elements = 0;
  double max_score = 0.0;
  double weighted_score = 0.0;
  double weight = 0.0;
  const size_t n = std::min(evidence_.size(), plan.size());
  // Rows of elements past the plan are not scored; they sort last.
  size_t num_rows = evidence_.rows();
  while (num_rows > 0 && evidence_.ElementOf(num_rows - 1) >= n) --num_rows;
  Candidate candidates[kSweepChunk];
  // Decay scales polls, changes and watched time alike, so a score goes
  // stale only when a sync adds evidence (and queues the row) or a replan
  // moves the row's planned rate. `stale` collects the scorable rows of one
  // chunk whose score is stale. The collection has no branch per row:
  // every row is written to the next slot, which only a stale row keeps.
  size_t stale[kSweepChunk];
  size_t num_stale = 0;
  const auto collect_if_stale = [&](size_t row) {
    const double planned =
        std::max(plan.ChangeRate(evidence_.ElementOf(row)), kRateFloor);
    stale[num_stale] = row;
    num_stale += Scorable(row) &
                 (evidence_.row(row).payload.scored_against != planned);
  };
  for (size_t row = 0; row < std::min(num_rows, kSweepChunk); ++row) {
    collect_if_stale(row);
  }
  // One sweep over the rows, a chunk at a time: rescore the chunk's stale
  // rows in one batch, then aggregate and rank it while collecting the
  // next chunk's stale rows. The aggregate's sums form a chain of
  // dependent additions, and the collection runs in its shadow; the loop
  // makes no call, so the sums stay in registers.
  for (size_t begin = 0; begin < num_rows; begin += kSweepChunk) {
    const size_t end = std::min(num_rows, begin + kSweepChunk);
    RescoreRows(stale, num_stale, plan);
    num_stale = 0;
    // Elements that may enter the top-k against the chunk's opening cutoff
    // are copied out.
    const bool open = top.size() < top_k;
    const double cutoff = open ? 0.0 : top.back().score;
    size_t m = 0;
    for (size_t row = begin; row < end; ++row) {
      if (row + kSweepChunk < num_rows) collect_if_stale(row + kSweepChunk);
      if (!Scorable(row)) continue;
      const Evidence::Row& evidence = evidence_.row(row);
      const double score = evidence.payload.score;
      const double polls = evidence.polls;
      ++scored_elements;
      if (score >= kFlagScore) ++flagged_elements;
      max_score = std::max(max_score, score);
      weighted_score += score * polls;
      weight += polls;
      if (open || score > cutoff) candidates[m++] = Candidate{row, score};
    }
    for (size_t j = 0; j < m; ++j) {
      const Candidate& c = candidates[j];
      if (top.size() == top_k && !(c.score > top.back().score)) continue;
      // Ties keep the earlier element ahead.
      size_t pos = top.size();
      top.push_back(c);
      for (; pos > 0 && top[pos - 1].score < c.score; --pos) {
        top[pos] = top[pos - 1];
      }
      top[pos] = c;
      if (top.size() > top_k) top.pop_back();
    }
  }
  report.scored_elements = scored_elements;
  report.flagged_elements = flagged_elements;
  report.max_score = max_score;
  report.top.reserve(top.size());
  for (const Candidate& c : top) {
    DriftOffender offender;
    offender.element = evidence_.ElementOf(c.row);
    const Evidence::Row& evidence = evidence_.row(c.row);
    offender.planned_rate = evidence.payload.scored_against;
    offender.observed_rate = ObservedRate(evidence);
    offender.score = c.score;
    offender.evidence = evidence.polls;
    report.top.push_back(offender);
  }
  // Decay AFTER scoring so the period's own syncs count at full weight.
  evidence_.Decay(options_.decay);
  if (weight > 0.0) report.aggregate_score = weighted_score / weight;

  aggregate_gauge_->Set(report.aggregate_score);
  max_gauge_->Set(report.max_score);
  flagged_gauge_->Set(static_cast<double>(report.flagged_elements));

  {
    std::lock_guard<std::mutex> lock(*mu_);
    report_ = std::move(report);
  }
}

DriftReport DriftDetector::Report() const {
  std::lock_guard<std::mutex> lock(*mu_);
  return report_;
}

}  // namespace obs
}  // namespace freshen
