// Walker/Vose alias method: O(1) sampling from an arbitrary discrete
// distribution after O(N) setup. The simulator's user-request generator draws
// element ids from master profiles with up to 500,000 entries, so constant
// time per access event matters.
#ifndef FRESHEN_RNG_ALIAS_TABLE_H_
#define FRESHEN_RNG_ALIAS_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "rng/rng.h"

namespace freshen {

/// Pre-processed discrete distribution supporting O(1) Sample() calls.
class AliasTable {
 public:
  /// Builds the table from non-negative weights (need not be normalized).
  /// At least one weight must be positive; weights from outside the program
  /// go through Create instead.
  explicit AliasTable(const std::vector<double>& weights);

  /// The same table, or InvalidArgument when `weights` is empty or longer
  /// than 2^32, a weight is negative or non-finite, or all weights are
  /// zero. The checks ride in the pass that sums the weights.
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
  AliasTable(const std::vector<double>& weights, double total);

  // The weights' plain sum, or the first reason they cannot form a table.
  static Result<double> CheckedTotal(const std::vector<double>& weights);

  std::vector<double> prob_;      // Acceptance threshold per bucket.
  std::vector<uint32_t> alias_;   // Fallback outcome per bucket.
};

}  // namespace freshen

#endif  // FRESHEN_RNG_ALIAS_TABLE_H_
