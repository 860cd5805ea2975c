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
// lossless: ClassTransform builds that exact case directly from a Core
// Problem, one class per distinct (weight, change rate, cost) row.
#ifndef FRESHEN_PARTITION_TRANSFORMED_H_
#define FRESHEN_PARTITION_TRANSFORMED_H_

#include <cstdint>
#include <vector>

#include "opt/problem.h"
#include "partition/partitioner.h"

namespace freshen {

/// Builds the K-variable transformed Core Problem from partitions.
/// `size_aware` selects the §5 constraint (costs scaled by mean size).
CoreProblem BuildTransformedProblem(const std::vector<Partition>& partitions,
                                    double bandwidth, bool size_aware);

/// The lossless Transformed Problem. Rows whose (weight, change rate, cost)
/// bit patterns are equal form one class, numbered by first occurrence;
/// class j with m_j members of row (w, l, c) becomes the row
/// (m_j w, l, m_j c). Every class member has the same KKT stationarity
/// condition, so the optimum gives them one frequency, and expanding the
/// class problem's solution to the members (FFA) solves the original
/// problem.
///
/// The object is working memory meant to outlive one solve: a caller that
/// re-solves every period keeps one, and Build() then allocates nothing
/// once its vectors have grown.
class ClassTransform {
 public:
  /// Groups the rows of `problem`, which must pass CoreProblem::Validate().
  /// Returns false as soon as more than `max_classes` distinct rows turn up
  /// (the transform is then unusable until the next successful Build).
  bool Build(const CoreProblem& problem, size_t max_classes);

  /// The class problem, in class-id order (valid after Build returned
  /// true). Its bandwidth is the original problem's.
  const CoreProblem& problem() const { return classes_; }

  /// Writes each member's class frequency: (*frequencies)[i] =
  /// class_frequencies[class of row i], resized to the original row count.
  void Expand(const std::vector<double>& class_frequencies,
              std::vector<double>* frequencies) const;

 private:
  /// Resets the open-addressing table to `slots` empty slots (a power of
  /// two) and re-inserts every class of `problem` found so far.
  void Rehash(const CoreProblem& problem, size_t slots);

  // Row -> class id.
  std::vector<uint32_t> class_of_;
  // Open-addressing table keyed on a class's row bits: class id + 1,
  // 0 = empty.
  std::vector<uint32_t> slots_;
  // First row of each class; the table compares against its bits, so a
  // grouping that gives up has stored 4 bytes per class, not a row.
  std::vector<uint32_t> first_;
  // Members per class.
  std::vector<uint32_t> counts_;
  // The class problem built by the last successful Build.
  CoreProblem classes_;
};

}  // namespace freshen

#endif  // FRESHEN_PARTITION_TRANSFORMED_H_
