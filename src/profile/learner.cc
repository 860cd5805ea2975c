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
  std::vector<double> weights;
  FRESHEN_RETURN_IF_ERROR(SnapshotInto(&weights));
  return weights;
}

Status AccessLogLearner::SnapshotInto(std::vector<double>* weights) const {
  weights->resize(counts_.size());
  for (size_t i = 0; i < counts_.size(); ++i) {
    (*weights)[i] = counts_[i] + options_.smoothing;
  }
  return NormalizeProbabilitiesInPlace(weights);
}

}  // namespace freshen
