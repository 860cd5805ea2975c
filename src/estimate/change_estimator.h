// Estimating an element's change frequency from periodic polls — the
// mechanism the paper assumes supplies lambda to the mirror ("Prior work has
// shown how the source can use estimation [4] and sampling [6] techniques to
// obtain a good estimate of these update frequencies").
//
// A poll at interval tau only reveals *whether* the element changed since the
// last poll, not how many times. For a Poisson process with rate lambda the
// probability a poll detects a change is 1 - e^{-lambda tau}; Cho &
// Garcia-Molina's bias-reduced estimator from n polls with x detections is
//
//   lambda_hat = -log( (n - x + 1/2) / (n + 1/2) ) / tau
//
// which stays finite even when every poll saw a change. Two hardenings on
// top of the textbook form, both driven by how the planner consumes these
// estimates:
//
//   * Zero-detection floor. With x = 0 the formula collapses to exactly 0,
//     and a change rate of exactly 0 removes the element from the solver's
//     active set — it is never scheduled again, so it is never polled
//     again, so the estimate can never recover (permanent poisoning from
//     finite evidence). BiasReducedRate() therefore floors the x = 0 case
//     at -log(n / (n + 1/2)) / tau ~ 1 / (2 n tau): the rate whose
//     likelihood of n silent polls is still unsurprising, decaying honestly
//     as evidence accumulates but never reaching the absorbing zero.
//   * Zero-observation windows. A poll gap <= 0 (replayed logs, clock
//     steps, duplicate syncs at one timestamp) observes nothing;
//     SyncEvidence::Observe ignores it instead of corrupting the mean gap.
//
// SyncEvidence is the one per-element store of that poll stream. The
// adaptive controller never decays it (the batch estimator); the drift
// detector decays it once per period so old evidence fades (the online
// setting of Avrachenkov, Patil and Thoppe). Like their estimators, it
// keeps state only for the elements that have been polled: a row is
// appended at an element's first recorded poll, and every update, decay
// and read touches rows alone.
#ifndef FRESHEN_ESTIMATE_CHANGE_ESTIMATOR_H_
#define FRESHEN_ESTIMATE_CHANGE_ESTIMATOR_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <ranges>
#include <vector>

#include "common/macros.h"

namespace freshen {

/// The bias-reduced estimate from `polls` observations with `changes`
/// detections over a mean inter-poll gap `mean_gap` > 0, with the
/// zero-detection floor described above. Requires polls > 0.
double BiasReducedRate(double polls, double changes, double mean_gap);

/// SyncEvidence's row payload: none.
struct NoRowPayload {};

/// Per-element poll evidence: the effective number of polls, how many of
/// them detected a change, and the watched time (the sum of inter-poll
/// gaps). Only an element with evidence holds a row; an id -> row column
/// (4 bytes per element) finds it, and an element with no row reads as zero
/// evidence. A plan funds few elements, so most never get a row.
///
/// `Payload` is state an owner keeps per row beside the evidence (the drift
/// detector's score), in the same row; SyncEvidence has none.
template <typename Payload>
class BasicSyncEvidence {
 public:
  /// RowOf() of an element with no evidence yet.
  static constexpr uint32_t kNoRow = std::numeric_limits<uint32_t>::max();

  /// One element's evidence.
  struct Row {
    double polls = 0.0;
    double changes = 0.0;
    double watched_time = 0.0;
    [[no_unique_address]] Payload payload{};
  };

  /// A store over `num_elements` (< kNoRow) elements, none with a row.
  explicit BasicSyncEvidence(size_t num_elements)
      : row_of_(num_elements, kNoRow) {
    FRESHEN_CHECK(num_elements < kNoRow);
  }

  size_t size() const { return row_of_.size(); }

  /// Number of rows: the elements that have ever recorded a poll.
  size_t rows() const { return rows_.size(); }

  /// The element's row, or kNoRow before its first recorded poll.
  uint32_t RowOf(size_t element) const { return row_of_[element]; }

  /// The element that owns `row` (< rows()).
  size_t ElementOf(size_t row) const { return elements_[row]; }

  /// The evidence in `row` (< rows()), and its payload.
  const Row& row(size_t row) const { return rows_[row]; }
  Payload& payload(size_t row) { return rows_[row].payload; }

  /// Records one poll of `element` (< size()): `changed` is whether the
  /// fetched copy differed, `gap` the time since the element's previous
  /// poll. A gap <= 0 or non-finite is a zero-observation window and is
  /// ignored. Returns the row the poll was recorded in, or kNoRow if it was
  /// ignored; the element's first recorded poll appends its row, and the
  /// row stays the element's until SortRowsByElement.
  uint32_t Observe(size_t element, bool changed, double gap) {
    FRESHEN_CHECK(element < row_of_.size());
    if (!(gap > 0.0) || !std::isfinite(gap)) return kNoRow;  // Nothing seen.
    uint32_t& row_of = row_of_[element];
    if (row_of == kNoRow) {
      row_of = static_cast<uint32_t>(rows_.size());
      rows_.emplace_back();
      elements_.push_back(static_cast<uint32_t>(element));
    }
    Row& row = rows_[row_of];
    row.polls += 1.0;
    if (changed) row.changes += 1.0;
    row.watched_time += gap;
    return row_of;
  }

  /// Scales every element's polls, changes and watched time by `factor`,
  /// which leaves each detection ratio and mean gap as it was. Touches
  /// rows only: an element with no row stays at zero.
  void Decay(double factor) {
    for (Row& row : rows_) {
      row.polls *= factor;
      row.changes *= factor;
      row.watched_time *= factor;
    }
  }

  double polls(size_t element) const { return Get(element).polls; }
  double changes(size_t element) const { return Get(element).changes; }
  double watched_time(size_t element) const {
    return Get(element).watched_time;
  }

  /// BiasReducedRate over the element's evidence at its mean gap, or
  /// `prior` before its first recorded poll.
  double RateOr(size_t element, double prior) const {
    FRESHEN_CHECK(element < row_of_.size());
    const Row& row = Get(element);
    if (row.polls == 0.0) return prior;
    // The mean gap is the effective poll interval: exact for equal gaps, a
    // documented approximation otherwise.
    return BiasReducedRate(row.polls, row.changes,
                           row.watched_time / row.polls);
  }

  /// Reorders the rows by ascending element id, evidence and payload
  /// alike. Rows are appended in the order elements first record a poll,
  /// so this costs O(rows) only in a call that follows new rows.
  void SortRowsByElement() {
    const size_t n = rows_.size();
    const size_t sorted = sorted_rows_;
    sorted_rows_ = n;
    // Most calls find no new row, or new rows past the prefix's last one.
    const auto tail = elements_.begin() + static_cast<std::ptrdiff_t>(sorted);
    if (std::is_sorted(tail, elements_.end()) &&
        (sorted == 0 || sorted == n || *(tail - 1) < *tail)) {
      return;
    }
    // The new order, as old row indices: the prefix merged with the new
    // rows, sorted.
    const auto by_element = [this](uint32_t a, uint32_t b) {
      return elements_[a] < elements_[b];
    };
    std::vector<uint32_t> new_rows(n - sorted);
    for (size_t k = sorted; k < n; ++k) {
      new_rows[k - sorted] = static_cast<uint32_t>(k);
    }
    std::sort(new_rows.begin(), new_rows.end(), by_element);
    std::vector<uint32_t> order;
    order.reserve(n);
    std::ranges::merge(
        std::views::iota(uint32_t{0}, static_cast<uint32_t>(sorted)), new_rows,
        std::back_inserter(order), by_element);
    // Gather into fresh columns of the old capacity.
    std::vector<Row> rows;
    std::vector<uint32_t> elements;
    rows.reserve(rows_.capacity());
    elements.reserve(elements_.capacity());
    for (const uint32_t from : order) {
      rows.push_back(rows_[from]);
      elements.push_back(elements_[from]);
    }
    rows_.swap(rows);
    elements_.swap(elements);
    for (size_t k = 0; k < n; ++k) {
      row_of_[elements_[k]] = static_cast<uint32_t>(k);
    }
  }

 private:
  const Row& Get(size_t element) const {
    static const Row kNone;
    const uint32_t row = row_of_[element];
    return row == kNoRow ? kNone : rows_[row];
  }

  std::vector<uint32_t> row_of_;
  std::vector<Row> rows_;
  std::vector<uint32_t> elements_;
  // Leading rows known to be in ascending element order.
  size_t sorted_rows_ = 0;
};

/// The store the adaptive controller keeps.
using SyncEvidence = BasicSyncEvidence<NoRowPayload>;
static_assert(sizeof(SyncEvidence::Row) == 3 * sizeof(double));

/// Simulates `num_polls` polls of a Poisson(lambda) element at interval tau
/// and returns the resulting estimate. Deterministic in `seed`. Used by the
/// imperfect-knowledge ablation (A3).
double SimulatePollEstimate(double true_rate, double poll_interval,
                            uint64_t num_polls, uint64_t seed);

}  // namespace freshen

#endif  // FRESHEN_ESTIMATE_CHANGE_ESTIMATOR_H_
