// Walker/Vose alias method: O(1) sampling from an arbitrary discrete
// distribution after O(N) setup. The simulator's user-request generator draws
// element ids from master profiles with up to 500,000 entries, so constant
// time per access event matters.
#ifndef FRESHEN_RNG_ALIAS_TABLE_H_
#define FRESHEN_RNG_ALIAS_TABLE_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/string_util.h"
#include "rng/rng.h"

namespace freshen {

/// Pre-processed discrete distribution supporting O(1) Sample() calls.
class AliasTable {
 public:
  /// Builds the table from non-negative weights (need not be normalized).
  /// At least one weight must be positive; weights from outside the program
  /// go through Create instead.
  explicit AliasTable(const std::vector<double>& weights);

  /// The table over the weights weight_of(0), ..., weight_of(n - 1), read
  /// in place (once to check and sum them, once to scale them), or
  /// InvalidArgument when n is 0 or over 2^32, a weight is negative or
  /// non-finite, or all weights are zero.
  template <typename WeightOf>
  static Result<AliasTable> Create(size_t n, WeightOf weight_of);

  /// Create over a weight vector.
  static Result<AliasTable> Create(const std::vector<double>& weights);

  /// Draws an index in [0, size()) with probability proportional to its
  /// weight.
  size_t Sample(Rng& rng) const;

  /// Number of outcomes.
  size_t size() const { return prob_.size(); }

  /// The normalized probability of outcome `i`, rebuilt from the table in
  /// O(size()) (for tests).
  double probability(size_t i) const;

 private:
  AliasTable() = default;

  // Vose's stable pairing, in place: prob_ holds each bucket's scaled
  // weight (w / total) * n on entry and its acceptance threshold on exit.
  void Pair();

  std::vector<double> prob_;      // Acceptance threshold per bucket.
  std::vector<uint32_t> alias_;   // Fallback outcome per bucket.
};

template <typename WeightOf>
Result<AliasTable> AliasTable::Create(size_t n, WeightOf weight_of) {
  if (n == 0) return Status::InvalidArgument("weight vector is empty");
  if (n > UINT32_MAX) {
    return Status::InvalidArgument("more than 2^32 weights");
  }
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double w = weight_of(i);
    if (!(w >= 0.0) || !std::isfinite(w)) {
      return Status::InvalidArgument(
          StrFormat("weight %zu is negative or non-finite", i));
    }
    total += w;
  }
  if (!(total > 0.0)) return Status::InvalidArgument("all weights are zero");
  AliasTable table;
  table.prob_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    table.prob_[i] = (weight_of(i) / total) * static_cast<double>(n);
  }
  table.Pair();
  return table;
}

}  // namespace freshen

#endif  // FRESHEN_RNG_ALIAS_TABLE_H_
