#include "rng/alias_table.h"

#include <cmath>

#include "common/macros.h"

namespace freshen {

AliasTable::AliasTable(const std::vector<double>& weights) {
  const size_t n = weights.size();
  FRESHEN_CHECK(n > 0);
  FRESHEN_CHECK(n <= UINT32_MAX);
  double total = 0.0;
  for (double w : weights) {
    FRESHEN_CHECK(w >= 0.0 && std::isfinite(w));
    total += w;
  }
  FRESHEN_CHECK(total > 0.0);

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
