#include "profile/learner.h"

#include "common/macros.h"
#include "profile/profile.h"

namespace freshen {

AccessLogLearner::AccessLogLearner(size_t num_elements, Options options)
    : options_(options), counts_(num_elements, 0.0) {
  FRESHEN_CHECK(num_elements > 0);
  FRESHEN_CHECK(options.decay > 0.0 && options.decay <= 1.0);
  FRESHEN_CHECK(options.smoothing >= 0.0);
}

void AccessLogLearner::Observe(size_t element) {
  FRESHEN_CHECK(element < counts_.size());
  counts_[element] += 1.0;
  ++observations_;
}

void AccessLogLearner::EndPeriod() {
  if (options_.decay >= 1.0) return;
  for (double& c : counts_) c *= options_.decay;
}

Result<std::vector<double>> AccessLogLearner::Snapshot() const {
  FRESHEN_ASSIGN_OR_RETURN(const double inv, InverseTotal());
  std::vector<double> weights(counts_.size());
  for (size_t i = 0; i < counts_.size(); ++i) weights[i] = Weight(i, inv);
  return weights;
}

Result<double> AccessLogLearner::InverseTotal() const {
  return InverseWeightTotal(counts_.size(), [this](size_t i) {
    return counts_[i] + options_.smoothing;
  });
}

}  // namespace freshen
