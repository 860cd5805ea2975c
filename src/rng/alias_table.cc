#include "rng/alias_table.h"

#include "common/macros.h"

namespace freshen {

Result<AliasTable> AliasTable::Create(const std::vector<double>& weights) {
  return Create(weights.size(), [&weights](size_t i) { return weights[i]; });
}

AliasTable::AliasTable(const std::vector<double>& weights)
    : AliasTable(Create(weights).value()) {}

void AliasTable::Pair() {
  const size_t n = prob_.size();
  alias_.assign(n, 0);
  // Vose's worklists of under- and over-full buckets: two LIFO stacks in
  // one n-entry buffer, `small` growing up from the front and `large` down
  // from the back. A bucket sits on at most one of them, so they never meet.
  std::vector<uint32_t> work(n);
  size_t small = 0;  // work[0, small); top at work[small - 1].
  size_t large = n;  // work[large, n); top at work[large].
  const auto push = [&](size_t i) {
    if (prob_[i] < 1.0) {
      work[small++] = static_cast<uint32_t>(i);
    } else {
      work[--large] = static_cast<uint32_t>(i);
    }
  };
  for (size_t i = 0; i < n; ++i) push(i);
  while (small > 0 && large < n) {
    const uint32_t s = work[--small];
    const uint32_t l = work[large++];
    alias_[s] = l;
    prob_[l] = (prob_[l] + prob_[s]) - 1.0;
    push(l);
  }
  // Remaining buckets are numerically 1.0.
  for (size_t k = 0; k < small; ++k) prob_[work[k]] = 1.0;
  for (size_t k = large; k < n; ++k) prob_[work[k]] = 1.0;
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
