// SimulatedWorld: the world a mirror runs against — in the paper's Figure 4,
// the source's Update Generator and the User Request Generator. It owns the
// true catalog and answers every question about it, so the ground truth
// sits behind this one type; the mirror (MirrorState) and the controller
// see only their own observations.
//
// Updates: each element owns a Poisson process on its own stream, the i-th
// Fork() of Rng(seed ^ kUpdateSeedSalt). An element keeps only its pending
// update, drawn on first read, and its stream's 8-byte seed; the 32-byte
// stream is built when a sync first passes that update. A sync advances
// the element exactly past the sync time, so the pending update is the
// first one the copy missed (Definition 1 and Age need no per-copy column).
// Accesses: Poisson arrivals aimed by an alias table over the true profile,
// on Rng(seed ^ kAccessSeedSalt). State per element stays bounded.
#ifndef FRESHEN_MIRROR_SIMULATED_WORLD_H_
#define FRESHEN_MIRROR_SIMULATED_WORLD_H_

#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "model/element.h"
#include "rng/alias_table.h"
#include "rng/distributions.h"
#include "rng/rng.h"
#include "stats/descriptive.h"

namespace freshen {

/// The true catalog and the update and access streams drawn from it,
/// deterministic in the seed and in no way dependent on the sync order.
class SimulatedWorld {
 public:
  /// XORed into the seed for the update streams' root and the access stream.
  static constexpr uint64_t kUpdateSeedSalt = 0x737263;
  static constexpr uint64_t kAccessSeedSalt = 0x616363;

  /// A world over `truth`: change rates >= 0 and finite, access weights
  /// >= 0 and finite with a positive total (normalized internally), users
  /// arriving at `accesses_per_period` (>= 0 and finite).
  static Result<SimulatedWorld> Create(ElementSet truth,
                                       double accesses_per_period,
                                       uint64_t seed);

  /// A sync of `element` at `t`: true when the source changed since the
  /// element's previous sync (or since t = 0). Advances the element past
  /// `t`; syncs of one element must not go back in time.
  bool Sync(size_t element, double t) {
    FRESHEN_CHECK(element < next_update_.size());
    if (FirstMissed(element) > t) return false;
    AdvancePast(element, t);
    return true;
  }

  /// Definition 1: is the copy from `element`'s last sync still identical
  /// to the source at `t` (not before that sync)?
  bool IsFresh(size_t element, double t) const {
    FRESHEN_CHECK(element < next_update_.size());
    return t < FirstMissed(element);
  }

  /// Age of that copy at `t`: 0 when fresh, else the time since the first
  /// update it missed.
  double Age(size_t element, double t) const {
    return IsFresh(element, t) ? 0.0 : t - FirstMissed(element);
  }

  /// The first update after `element`'s last sync (+infinity at rate 0).
  /// A first read draws it, so reads of one world must not race.
  double FirstMissed(size_t element) const {
    const double next = next_update_[element];
    return std::isnan(next) ? DrawFirstUpdate(element) : next;
  }

  /// Calls on_access(element, t) for each access arriving in [t0, t1), in
  /// time order. Each arrival draws its gap, then its element.
  template <typename OnAccess>
  void ForEachAccess(double t0, double t1, OnAccess&& on_access) {
    if (accesses_per_period_ <= 0.0) return;
    for (double t = t0 + SampleExponential(access_rng_, accesses_per_period_);
         t < t1; t += SampleExponential(access_rng_, accesses_per_period_)) {
      on_access(static_cast<uint32_t>(access_table_.Sample(access_rng_)), t);
    }
  }

  /// Mean relative change-rate error of a belief, believed_rate(i) for
  /// element i, over the elements whose true rate is positive, Kahan-summed
  /// in element order; nullopt when no element changes.
  template <typename BelievedRate>
  std::optional<double> MeanLambdaError(BelievedRate&& believed_rate) const {
    KahanSum error_sum;
    size_t rated = 0;
    for (size_t i = 0; i < truth_.size(); ++i) {
      const double rate = truth_[i].change_rate;
      if (rate <= 0.0) continue;
      error_sum.Add(std::fabs(believed_rate(i) - rate) / rate);
      ++rated;
    }
    if (rated == 0) return std::nullopt;
    return error_sum.Total() / static_cast<double>(rated);
  }

  /// Replaces the true access profile (non-negative weights, normalized
  /// internally) — user interest just drifted.
  Status SetTrueProfile(const std::vector<double>& weights);

  /// The true catalog (rates, profile and sizes in force).
  const ElementSet& truth() const { return truth_; }

  /// Number of elements.
  size_t size() const { return truth_.size(); }

 private:
  SimulatedWorld(ElementSet truth, AliasTable access_table,
                 double accesses_per_period, uint64_t seed);

  // Draws the element's first update into next_update_ (+infinity at rate
  // 0); it depends only on the seed and the element.
  double DrawFirstUpdate(size_t element) const;

  // Discards the element's updates at or before `t`.
  void AdvancePast(size_t element, double t);

  ElementSet truth_;
  double accesses_per_period_;
  AliasTable access_table_;
  Rng access_rng_;
  // Per element: its pending update, NaN until the first read draws it.
  mutable std::vector<double> next_update_;
  // Per element: its stream seed (the root draw Rng::Fork() would consume)
  // until has_stream_ is set, then its row in streams_.
  std::vector<uint64_t> seed_or_stream_;
  std::vector<bool> has_stream_;
  std::vector<Rng> streams_;
};

}  // namespace freshen

#endif  // FRESHEN_MIRROR_SIMULATED_WORLD_H_
