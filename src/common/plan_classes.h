// The controller's plan kept per class (the paper's Transformed Problem,
// §3.2, carried into memory): each element holds only a class id, and each
// class one planned frequency and the change rate the plan was solved
// against. The online loop, the drift detector and the snapshot builder
// read the plan through this view; code that holds dense per-element
// columns wraps them as one class per element with IdentityClasses.
#ifndef FRESHEN_COMMON_PLAN_CLASSES_H_
#define FRESHEN_COMMON_PLAN_CLASSES_H_

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "common/macros.h"

namespace freshen {

/// A non-owning view of a plan stored per class. Every id in `class_of` is
/// below the length of the two class columns, which are equal.
struct PlanClassView {
  /// Element -> class id, one entry per element.
  std::span<const uint32_t> class_of;
  /// Planned sync frequency (per period), one entry per class.
  std::span<const double> frequency;
  /// The change rate the plan was solved against, one entry per class.
  std::span<const double> change_rate;

  /// Number of elements.
  size_t size() const { return class_of.size(); }

  /// The planned sync frequency for `element`.
  double Frequency(size_t element) const {
    return frequency[class_of[element]];
  }

  /// The change rate the plan was solved against for `element`.
  double ChangeRate(size_t element) const {
    return change_rate[class_of[element]];
  }
};

/// Dense per-element columns as a plan with one class per element (class i
/// is element i). The columns must have equal lengths. Owns its columns;
/// view() is valid while it lives.
class IdentityClasses {
 public:
  IdentityClasses(std::vector<double> frequency,
                  std::vector<double> change_rate)
      : class_of_(frequency.size()),
        frequency_(std::move(frequency)),
        change_rate_(std::move(change_rate)) {
    FRESHEN_CHECK(frequency_.size() == change_rate_.size());
    std::iota(class_of_.begin(), class_of_.end(), uint32_t{0});
  }

  PlanClassView view() const { return {class_of_, frequency_, change_rate_}; }

 private:
  std::vector<uint32_t> class_of_;
  std::vector<double> frequency_;
  std::vector<double> change_rate_;
};

}  // namespace freshen

#endif  // FRESHEN_COMMON_PLAN_CLASSES_H_
