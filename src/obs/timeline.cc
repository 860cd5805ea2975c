#include "obs/timeline.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/string_util.h"
#include "common/table_writer.h"
#include "obs/export.h"

namespace freshen {
namespace obs {
namespace {

constexpr double kFresh = -1.0;  // stale_since_ sentinel: element is fresh.

std::string WindowJson(const TimelineWindow& window) {
  std::string out = "{";
  out += StrFormat("\"begin\":%.9g,\"end\":%.9g,", window.begin, window.end);
  out += StrFormat("\"weighted_freshness\":%.17g,", window.weighted_freshness);
  out += StrFormat("\"accesses\":%llu,\"fresh_accesses\":%llu,"
                   "\"slo_accesses\":%llu,",
                   (unsigned long long)window.accesses,
                   (unsigned long long)window.fresh_accesses,
                   (unsigned long long)window.slo_accesses);
  out += "\"offenders\":[";
  for (size_t i = 0; i < window.offenders.size(); ++i) {
    const TimelineElementStats& e = window.offenders[i];
    if (i > 0) out += ",";
    out += StrFormat("{\"element\":%llu,\"weight\":%.9g,"
                     "\"stale_time\":%.9g,\"fresh_fraction\":%.9g,"
                     "\"stale_score\":%.9g}",
                     (unsigned long long)e.element, e.weight, e.stale_time,
                     e.fresh_fraction, e.stale_score);
  }
  out += "]}";
  return out;
}

}  // namespace

StalenessTimeline::StalenessTimeline(std::vector<double> weights,
                                     Options options)
    : options_(options), weights_(std::move(weights)) {
  const size_t n = weights_.size();
  stale_since_.assign(n, kFresh);
  stale_total_.assign(n, 0.0);
  accesses_.assign(n, 0);
  fresh_accesses_.assign(n, 0);
  slo_accesses_.assign(n, 0);
  age_sum_.assign(n, 0.0);
  stale_mark_.assign(n, 0.0);
  accesses_mark_.assign(n, 0);
  fresh_mark_.assign(n, 0);
  slo_mark_.assign(n, 0);
  window_cursor_ = options_.window_begin;
}

Result<StalenessTimeline> StalenessTimeline::Create(
    std::vector<double> weights, Options options) {
  if (weights.empty()) {
    return Status::InvalidArgument("timeline needs at least one element");
  }
  if (!(options.window_end > options.window_begin)) {
    return Status::InvalidArgument("timeline window must have positive length");
  }
  if (!(options.age_slo >= 0.0) || !std::isfinite(options.age_slo)) {
    return Status::InvalidArgument("timeline age_slo must be finite and >= 0");
  }
  double total = 0.0;
  for (double w : weights) {
    if (!(w >= 0.0) || !std::isfinite(w)) {
      return Status::InvalidArgument("timeline weights must be finite and >= 0");
    }
    total += w;
  }
  if (!(total > 0.0)) {
    return Status::InvalidArgument("timeline weights must not all be zero");
  }
  for (double& w : weights) w /= total;
  return StalenessTimeline(std::move(weights), options);
}

double StalenessTimeline::ClampedInterval(double from, double to) const {
  const double lo = std::max(from, options_.window_begin);
  const double hi = std::min(to, options_.window_end);
  return std::max(0.0, hi - lo);
}

void StalenessTimeline::MarkStale(size_t element, double time) {
  if (element >= stale_since_.size()) return;
  if (stale_since_[element] != kFresh) return;  // Earliest onset wins.
  stale_since_[element] = time;
}

void StalenessTimeline::MarkFresh(size_t element, double time) {
  if (element >= stale_since_.size()) return;
  const double since = stale_since_[element];
  if (since == kFresh) return;
  stale_total_[element] += ClampedInterval(since, time);
  stale_since_[element] = kFresh;
}

void StalenessTimeline::OnAccess(size_t element, double time, double age) {
  if (element >= accesses_.size()) return;
  (void)time;
  ++accesses_[element];
  age_sum_[element] += age;
  if (age <= 0.0) ++fresh_accesses_[element];
  if (age <= options_.age_slo) ++slo_accesses_[element];
}

TimelineWindow StalenessTimeline::BuildWindow(double begin, double end,
                                              bool against_marks) const {
  TimelineWindow window;
  window.begin = begin;
  window.end = end;
  const double length = end - begin;
  const size_t n = weights_.size();

  std::vector<TimelineElementStats> rows(n);
  // Weighted freshness summed in index order with Kahan compensation — the
  // same tree the per-period windows and the whole-run report both use, so
  // window stats never depend on which thread fed which element.
  double sum = 0.0;
  double comp = 0.0;
  for (size_t i = 0; i < n; ++i) {
    TimelineElementStats& row = rows[i];
    row.element = i;
    row.weight = weights_[i];
    double stale = stale_total_[i];
    uint64_t acc = accesses_[i];
    uint64_t fresh_acc = fresh_accesses_[i];
    uint64_t slo_acc = slo_accesses_[i];
    if (against_marks) {
      stale -= stale_mark_[i];
      acc -= accesses_mark_[i];
      fresh_acc -= fresh_mark_[i];
      slo_acc -= slo_mark_[i];
    }
    // An element still stale at window close is charged up to `end`
    // without mutating the ledger (Finalize/CloseWindow own the mutation).
    if (stale_since_[i] != kFresh) {
      const double lo = std::max(stale_since_[i], begin);
      stale += std::max(0.0, std::min(end, options_.window_end) - lo);
    }
    stale = std::min(std::max(stale, 0.0), length);
    row.stale_time = stale;
    row.fresh_fraction = length > 0.0 ? 1.0 - stale / length : 1.0;
    row.stale_score = row.weight * (1.0 - row.fresh_fraction);
    row.accesses = acc;
    row.fresh_accesses = fresh_acc;
    row.slo_accesses = slo_acc;
    row.mean_access_age = acc > 0 ? age_sum_[i] / static_cast<double>(acc)
                                  : 0.0;
    window.accesses += acc;
    window.fresh_accesses += fresh_acc;
    window.slo_accesses += slo_acc;

    const double term = row.weight * row.fresh_fraction;
    const double y = term - comp;
    const double t = sum + y;
    comp = (t - sum) - y;
    sum = t;
  }
  window.weighted_freshness = sum;

  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  const size_t k = std::min(options_.top_k, n);
  std::partial_sort(order.begin(), order.begin() + k, order.end(),
                    [&rows](size_t a, size_t b) {
                      if (rows[a].stale_score != rows[b].stale_score) {
                        return rows[a].stale_score > rows[b].stale_score;
                      }
                      return a < b;
                    });
  window.offenders.reserve(k);
  for (size_t i = 0; i < k; ++i) window.offenders.push_back(rows[order[i]]);
  return window;
}

void StalenessTimeline::CloseWindow(double end) {
  closed_windows_.push_back(BuildWindow(window_cursor_, end,
                                        /*against_marks=*/true));
  // Materialize open stale intervals so the next window's delta starts
  // clean; the element stays stale with onset reset to the boundary.
  for (size_t i = 0; i < stale_since_.size(); ++i) {
    if (stale_since_[i] != kFresh) {
      stale_total_[i] += ClampedInterval(stale_since_[i], end);
      stale_since_[i] = std::max(end, options_.window_begin);
    }
  }
  stale_mark_ = stale_total_;
  accesses_mark_ = accesses_;
  fresh_mark_ = fresh_accesses_;
  slo_mark_ = slo_accesses_;
  window_cursor_ = end;
}

TimelineReport StalenessTimeline::Finalize() {
  // Close the trailing partial window so `periods` tiles the whole run —
  // only when per-period windows are in use at all (the simulator path
  // never calls CloseWindow and reports just the overall window).
  if (!closed_windows_.empty() && window_cursor_ < options_.window_end) {
    CloseWindow(options_.window_end);
  }
  // Charge whatever is still stale up to the window end.
  for (size_t i = 0; i < stale_since_.size(); ++i) {
    if (stale_since_[i] != kFresh) {
      stale_total_[i] +=
          ClampedInterval(stale_since_[i], options_.window_end);
      stale_since_[i] = kFresh;
    }
  }

  TimelineReport report;
  report.age_slo = options_.age_slo;
  report.periods = closed_windows_;

  TimelineWindow overall = BuildWindow(options_.window_begin,
                                       options_.window_end,
                                       /*against_marks=*/false);
  // The overall window keeps the full per-element ledger; offenders stay
  // the top-k view of the same rows.
  const size_t n = weights_.size();
  report.elements.resize(n);
  {
    // Rebuild rows exactly as BuildWindow computed them (same arithmetic).
    const double length = options_.window_end - options_.window_begin;
    for (size_t i = 0; i < n; ++i) {
      TimelineElementStats& row = report.elements[i];
      row.element = i;
      row.weight = weights_[i];
      row.stale_time = std::min(std::max(stale_total_[i], 0.0), length);
      row.fresh_fraction =
          length > 0.0 ? 1.0 - row.stale_time / length : 1.0;
      row.stale_score = row.weight * (1.0 - row.fresh_fraction);
      row.accesses = accesses_[i];
      row.fresh_accesses = fresh_accesses_[i];
      row.slo_accesses = slo_accesses_[i];
      row.mean_access_age =
          accesses_[i] > 0 ? age_sum_[i] / static_cast<double>(accesses_[i])
                           : 0.0;
    }
  }
  report.overall = std::move(overall);
  report.fresh_access_ratio =
      report.overall.accesses > 0
          ? static_cast<double>(report.overall.fresh_accesses) /
                static_cast<double>(report.overall.accesses)
          : 1.0;
  report.slo_access_ratio =
      report.overall.accesses > 0
          ? static_cast<double>(report.overall.slo_accesses) /
                static_cast<double>(report.overall.accesses)
          : 1.0;

  MetricsRegistry& registry =
      options_.registry != nullptr ? *options_.registry
                                   : MetricsRegistry::Global();
  registry.GetGauge("freshen_timeline_elements")
      ->Set(static_cast<double>(n));
  registry.GetGauge("freshen_timeline_weighted_freshness")
      ->Set(report.overall.weighted_freshness);
  registry.GetGauge("freshen_timeline_fresh_access_ratio")
      ->Set(report.fresh_access_ratio);
  registry.GetGauge("freshen_timeline_slo_access_ratio")
      ->Set(report.slo_access_ratio);
  registry.GetGauge("freshen_timeline_windows")
      ->Set(static_cast<double>(report.periods.size()));
  return report;
}

std::string FormatTimelineCsv(const TimelineReport& report) {
  TableWriter table({"element", "weight", "stale_time", "fresh_fraction",
                     "stale_score", "accesses", "fresh_accesses",
                     "slo_accesses", "mean_access_age"});
  for (const TimelineElementStats& e : report.elements) {
    table.AddRow({StrFormat("%llu", (unsigned long long)e.element),
                  StrFormat("%.9g", e.weight),
                  StrFormat("%.9g", e.stale_time),
                  StrFormat("%.9g", e.fresh_fraction),
                  StrFormat("%.9g", e.stale_score),
                  StrFormat("%llu", (unsigned long long)e.accesses),
                  StrFormat("%llu", (unsigned long long)e.fresh_accesses),
                  StrFormat("%llu", (unsigned long long)e.slo_accesses),
                  StrFormat("%.9g", e.mean_access_age)});
  }
  return table.ToCsv();
}

std::string FormatTimelineJson(const TimelineReport& report) {
  std::string out = "{\n";
  out += " \"overall\":" + WindowJson(report.overall) + ",\n";
  out += StrFormat(" \"fresh_access_ratio\":%.9g,\n"
                   " \"slo_access_ratio\":%.9g,\n"
                   " \"age_slo\":%.9g,\n",
                   report.fresh_access_ratio, report.slo_access_ratio,
                   report.age_slo);
  out += " \"periods\":[\n";
  for (size_t i = 0; i < report.periods.size(); ++i) {
    out += "  " + WindowJson(report.periods[i]);
    if (i + 1 < report.periods.size()) out += ",";
    out += "\n";
  }
  out += " ]\n}\n";
  return out;
}

}  // namespace obs
}  // namespace freshen
