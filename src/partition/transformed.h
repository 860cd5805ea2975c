// Step 2 of the scaling heuristics (§3.2): the Transformed Problem. Each
// partition j with n_j members is treated as n_j identical copies of its
// representative, so the K-variable problem
//
//   maximize   sum_j  n_j * p_j * F(f_j, l_j)
//   subject to sum_j  n_j * s_j * f_j = B
//
// is a Core Problem with weights n_j p_j and costs n_j s_j.
//
// When every partition holds only bit-identical rows, the transform is
// lossless: ClassTransform builds that exact case directly from Core
// Problem rows, one class per distinct (weight, change rate, cost) row.
#ifndef FRESHEN_PARTITION_TRANSFORMED_H_
#define FRESHEN_PARTITION_TRANSFORMED_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "common/string_util.h"
#include "opt/problem.h"
#include "partition/partitioner.h"

namespace freshen {

/// Builds the K-variable transformed Core Problem from partitions.
/// `size_aware` selects the §5 constraint (costs scaled by mean size).
CoreProblem BuildTransformedProblem(const std::vector<Partition>& partitions,
                                    double bandwidth, bool size_aware);

/// One Core Problem row.
struct CoreRow {
  double weight = 0.0;
  double change_rate = 0.0;
  double cost = 0.0;
};

/// The lossless Transformed Problem. Rows whose (weight, change rate, cost)
/// bit patterns are equal form one class, numbered by first occurrence;
/// class j with m_j members of row (w, l, c) becomes the row
/// (m_j w, l, m_j c). Every class member has the same KKT stationarity
/// condition, so the optimum gives them one frequency, and expanding the
/// class problem's solution to the members (FFA) solves the original
/// problem.
///
/// The rows are read through a callback, so a caller that derives them
/// (the adaptive controller's learned weights and believed rates) never
/// stores them per element, and each is read once. From the row that
/// opens class n / 4 + 1, or when a class row would overflow, the grouping
/// is the identity: class i is row i, unscaled, so the class problem is
/// the per-element problem itself, with the same rows in the same order.
///
/// The object is working memory meant to outlive one solve: a caller that
/// re-solves every period keeps one, and Build() then allocates nothing
/// once its vectors have grown.
class ClassTransform {
 public:
  /// Groups the rows row_of(0), ..., row_of(n - 1), each a CoreRow. Fails
  /// with the status CoreProblem::Validate() reports for the same rows and
  /// bandwidth. A failure on a row still completes the grouping (every row
  /// has a class), so class_of() and problem() stay readable; a failure on
  /// n or the bandwidth changes nothing.
  template <typename RowOf>
  Status Build(size_t n, double bandwidth, RowOf row_of);

  /// The class problem, in class-id order. Its bandwidth is the original
  /// problem's.
  const CoreProblem& problem() const { return classes_; }

  /// Row -> class id, one entry per row of the last Build.
  const std::vector<uint32_t>& class_of() const { return class_of_; }

  /// Each member's class frequency: element i of the result is
  /// class_frequencies[class of row i].
  std::vector<double> Expand(
      const std::vector<double>& class_frequencies) const;

 private:
  /// Regroups the first `rows` rows as the identity grouping (class i is
  /// row i), gathering each from its class row, which must be unscaled.
  void Ungroup(size_t rows);

  /// Resets the open-addressing table to `slots` empty slots (a power of
  /// two) and re-inserts every class found so far.
  void Rehash(size_t slots);

  /// Scales each class row by its member count, or none if one overflows.
  bool ScaleClassRows();

  // Row -> class id.
  std::vector<uint32_t> class_of_;
  // Open-addressing table keyed on a class's row bits: class id + 1,
  // 0 = empty.
  std::vector<uint32_t> slots_;
  // Members per class (grouped builds only).
  std::vector<uint32_t> counts_;
  // The class problem. While Group runs, its rows are the unscaled rows the
  // table compares against.
  CoreProblem classes_;
};

namespace class_transform_internal {

// Table size every grouping starts from; it doubles while more than half
// full.
inline constexpr size_t kInitialSlots = 64;

inline uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

// Multiply-xorshift mix of the three key words.
inline uint64_t HashKey(uint64_t w, uint64_t l, uint64_t c) {
  uint64_t h = w * 0x9E3779B97F4A7C15ULL;
  h = (h ^ (h >> 32) ^ l) * 0xC2B2AE3D27D4EB4FULL;
  h = (h ^ (h >> 29) ^ c) * 0x165667B19E3779F9ULL;
  return h ^ (h >> 32);
}

}  // namespace class_transform_internal

template <typename RowOf>
Status ClassTransform::Build(size_t n, double bandwidth, RowOf row_of) {
  using class_transform_internal::Bits;
  using class_transform_internal::HashKey;
  if (n == 0) return Status::InvalidArgument("problem has no variables");
  FRESHEN_RETURN_IF_ERROR(CoreProblem::ValidateBandwidth(bandwidth));
  if (n >= UINT32_MAX) {
    return Status::InvalidArgument(
        StrFormat("%zu rows do not fit 32-bit class ids", n));
  }
  classes_.bandwidth = bandwidth;
  classes_.weights.clear();
  classes_.change_rates.clear();
  classes_.costs.clear();
  counts_.clear();
  class_of_.resize(n);
  slots_.assign(class_transform_internal::kInitialSlots, 0);
  size_t mask = slots_.size() - 1;
  Status status;

  // Runs of one row are common (untouched elements of a learned catalog
  // sit side by side), so the previous row's class is tried before the
  // table, and a run's members are counted in a register. From the row
  // that would open class n / 4 + 1 on, every row is a class of its own.
  uint32_t* class_of = class_of_.data();
  bool grouping = true;
  uint64_t prev_w = 0;
  uint64_t prev_l = 0;
  uint64_t prev_c = 0;
  uint32_t prev_class = 0;
  uint32_t run = 0;
  for (size_t i = 0; i < n; ++i) {
    const CoreRow row = row_of(i);
    const uint64_t w = Bits(row.weight);
    const uint64_t l = Bits(row.change_rate);
    const uint64_t c = Bits(row.cost);
    if (run > 0 && w == prev_w && l == prev_l && c == prev_c) {
      class_of[i] = prev_class;
      ++run;
      continue;
    }
    uint32_t id = UINT32_MAX;
    size_t s = 0;
    if (grouping) {
      if (run > 0) counts_[prev_class] += run;
      s = HashKey(w, l, c) & mask;
      while (slots_[s] != 0) {
        const uint32_t j = slots_[s] - 1;
        if (Bits(classes_.weights[j]) == w &&
            Bits(classes_.change_rates[j]) == l &&
            Bits(classes_.costs[j]) == c) {
          id = j;
          break;
        }
        s = (s + 1) & mask;
      }
      if (id == UINT32_MAX && counts_.size() == n / 4) {
        Ungroup(i);
        grouping = false;
      }
    }
    if (id == UINT32_MAX) {
      // A row equal to an earlier one has that row's validity, so the
      // first invalid row is the first row of some class.
      if (status.ok() &&
          !CoreProblem::IsValidRow(row.weight, row.change_rate, row.cost)) {
        status =
            CoreProblem::ValidateRow(i, row.weight, row.change_rate, row.cost);
      }
      id = static_cast<uint32_t>(classes_.size());
      classes_.weights.push_back(row.weight);
      classes_.change_rates.push_back(row.change_rate);
      classes_.costs.push_back(row.cost);
      if (grouping) {
        counts_.push_back(0);
        slots_[s] = id + 1;
        if (2 * counts_.size() > slots_.size()) {
          Rehash(2 * slots_.size());
          mask = slots_.size() - 1;
        }
      }
    }
    class_of[i] = id;
    prev_w = w;
    prev_l = l;
    prev_c = c;
    prev_class = id;
    run = grouping ? 1 : 0;
  }
  if (grouping) counts_[prev_class] += run;
  if (grouping && !ScaleClassRows()) Ungroup(n);
  return status;
}

}  // namespace freshen

#endif  // FRESHEN_PARTITION_TRANSFORMED_H_
