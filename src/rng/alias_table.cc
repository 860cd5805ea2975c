#include "rng/alias_table.h"

#include <cmath>

#include "common/macros.h"
#include "common/string_util.h"

namespace freshen {

Result<double> AliasTable::CheckedTotal(const std::vector<double>& weights) {
  if (weights.empty()) return Status::InvalidArgument("weight vector is empty");
  if (weights.size() > UINT32_MAX) {
    return Status::InvalidArgument("more than 2^32 weights");
  }
  double total = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i];
    if (!(w >= 0.0) || !std::isfinite(w)) {
      return Status::InvalidArgument(
          StrFormat("weight %zu is negative or non-finite", i));
    }
    total += w;
  }
  if (!(total > 0.0)) return Status::InvalidArgument("all weights are zero");
  return total;
}

Result<AliasTable> AliasTable::Create(const std::vector<double>& weights) {
  FRESHEN_ASSIGN_OR_RETURN(const double total, CheckedTotal(weights));
  return AliasTable(weights, total);
}

AliasTable::AliasTable(const std::vector<double>& weights)
    : AliasTable(weights, CheckedTotal(weights).value()) {}

AliasTable::AliasTable(const std::vector<double>& weights, double total) {
  const size_t n = weights.size();
  // Vose's stable construction, in place: prob_ holds each bucket's scaled
  // weight (w / total) * n until the bucket is settled.
  prob_.resize(n);
  alias_.assign(n, 0);
  std::vector<uint32_t> small;
  std::vector<uint32_t> large;
  small.reserve(n);
  large.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    prob_[i] = (weights[i] / total) * static_cast<double>(n);
    if (prob_[i] < 1.0) {
      small.push_back(static_cast<uint32_t>(i));
    } else {
      large.push_back(static_cast<uint32_t>(i));
    }
  }
  while (!small.empty() && !large.empty()) {
    const uint32_t s = small.back();
    small.pop_back();
    const uint32_t l = large.back();
    large.pop_back();
    alias_[s] = l;
    prob_[l] = (prob_[l] + prob_[s]) - 1.0;
    if (prob_[l] < 1.0) {
      small.push_back(l);
    } else {
      large.push_back(l);
    }
  }
  // Remaining buckets are numerically 1.0.
  for (uint32_t i : large) prob_[i] = 1.0;
  for (uint32_t i : small) prob_[i] = 1.0;
}

double AliasTable::probability(size_t i) const {
  FRESHEN_CHECK(i < prob_.size());
  double mass = prob_[i];
  for (size_t b = 0; b < prob_.size(); ++b) {
    if (alias_[b] == i) mass += 1.0 - prob_[b];
  }
  return mass / static_cast<double>(prob_.size());
}

size_t AliasTable::Sample(Rng& rng) const {
  const size_t bucket = static_cast<size_t>(rng.NextUint64Below(prob_.size()));
  return rng.NextDouble() < prob_[bucket] ? bucket : alias_[bucket];
}

}  // namespace freshen
