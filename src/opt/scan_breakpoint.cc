#include "opt/scan_breakpoint.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/macros.h"
#include "model/freshness_batch.h"
#include "stats/descriptive.h"

namespace freshen {
namespace {

/// Elements per batch-kernel call: 4 KiB buffers, resident in L1 alongside
/// the SoA streams.
constexpr size_t kBlock = 512;

/// Slot index of a priced-out lane: it has no kernel input.
constexpr uint16_t kPricedOut = 0xFFFF;
static_assert(kBlock < kPricedOut, "slot indices must fit below kPricedOut");

/// Appends (target, seed) to the kernel's input buffer unless it repeats
/// the previous funded lane's input bit for bit, in which case that lane's
/// slot is shared; returns the lane's slot. Roots are a pure function of
/// their (target, seed) bits (model/freshness_batch.h), so a shared slot
/// yields the same root each lane would have got alone. A null `seeds`
/// means cold inversions, keyed on the target alone.
uint16_t AssignSlot(double target, double seed, double* targets,
                    double* seeds, size_t* slots) {
  if (*slots > 0) {
    const size_t last = *slots - 1;
    if (std::bit_cast<uint64_t>(target) ==
            std::bit_cast<uint64_t>(targets[last]) &&
        (seeds == nullptr || std::bit_cast<uint64_t>(seed) ==
                                 std::bit_cast<uint64_t>(seeds[last]))) {
      return static_cast<uint16_t>(last);
    }
  }
  targets[*slots] = target;
  if (seeds != nullptr) seeds[*slots] = seed;
  return static_cast<uint16_t>((*slots)++);
}

/// Runs the evaluator's batch kernel over n compressed inputs.
void InvertBatch(BreakpointSpendEvaluator::Kernel kernel, const double* targets,
                 const double* seeds, double* roots, size_t n) {
  if (n == 0) return;
  if (kernel == BreakpointSpendEvaluator::Kernel::kFreshnessG) {
    BatchInverseMarginalGainG(targets, seeds, roots, n);
  } else {
    BatchInverseAgeMarginalKernelH(targets, seeds, roots, n);
  }
}

/// Illinois works on phi = log((spend + eps*B) / ((1+eps)*B)): log-log
/// secant (spend is near power-law in mu, so phi is near-linear in log mu)
/// with an epsilon floor so a zero spend at the top of the bracket stays
/// finite. Root location is exact: phi = 0 iff spend = B, for any eps.
double Phi(double spend, double budget) {
  constexpr double kEps = 0x1p-45;
  return std::log((spend + kEps * budget) / ((1.0 + kEps) * budget));
}

}  // namespace

BreakpointSpendEvaluator::BreakpointSpendEvaluator(
    Kernel kernel, const std::vector<double>& target_scale,
    const std::vector<double>& lambda, const std::vector<double>& spend_scale,
    const par::Executor* exec)
    : kernel_(kernel),
      target_scale_(target_scale),
      lambda_(lambda),
      spend_scale_(spend_scale),
      exec_(exec),
      plan_(par::ShardPlanFor(target_scale.size(), par::kTranscendentalGrain,
                              par::kTranscendentalMaxShards)),
      warm_(target_scale.size(), 0.0) {
  FRESHEN_CHECK(lambda_.size() == target_scale_.size());
  FRESHEN_CHECK(spend_scale_.size() == target_scale_.size());
}

double BreakpointSpendEvaluator::SpendAt(double mu) {
  const size_t n = target_scale_.size();
  if (n == 0) return 0.0;
  std::vector<double> partial(plan_.size(), 0.0);
  const bool freshness = kernel_ == Kernel::kFreshnessG;
  exec_->ForShards(plan_, [&](const par::Shard& shard) {
    KahanSum acc;
    double target[kBlock];
    double seed[kBlock];
    double root[kBlock];
    uint16_t slot[kBlock];
    for (size_t b = shard.begin; b < shard.end; b += kBlock) {
      const size_t m = std::min(kBlock, shard.end - b);
      size_t slots = 0;
      for (size_t j = 0; j < m; ++j) {
        const double y = mu * target_scale_[b + j];
        slot[j] = freshness && !(y < 1.0)
                      ? kPricedOut
                      : AssignSlot(std::max(y, 1e-300), warm_[b + j], target,
                                   seed, &slots);
      }
      InvertBatch(kernel_, target, seed, root, slots);
      for (size_t j = 0; j < m; ++j) {
        if (slot[j] == kPricedOut) {
          acc.Add(0.0);  // Keep the summation tree independent of mu.
          continue;
        }
        // The warm root is per-element state: written only here, by the
        // owning shard, as a function of the probe sequence alone.
        const double r = root[slot[j]];
        warm_[b + j] = r;
        acc.Add(spend_scale_[b + j] / r);
      }
    }
    partial[shard.index] = acc.Total();
  });
  KahanSum total;
  for (double value : partial) total.Add(value);
  return total.Total();
}

void BreakpointSpendEvaluator::FillFrequenciesAt(
    double mu, std::vector<double>* frequencies) const {
  const size_t n = target_scale_.size();
  frequencies->assign(n, 0.0);
  const bool freshness = kernel_ == Kernel::kFreshnessG;
  exec_->ForShards(plan_, [&](const par::Shard& shard) {
    double target[kBlock];
    double root[kBlock];
    uint16_t slot[kBlock];
    for (size_t b = shard.begin; b < shard.end; b += kBlock) {
      const size_t m = std::min(kBlock, shard.end - b);
      size_t slots = 0;
      for (size_t j = 0; j < m; ++j) {
        const double y = mu * target_scale_[b + j];
        slot[j] = freshness && !(y < 1.0)
                      ? kPricedOut
                      : AssignSlot(std::max(y, 1e-300), /*seed=*/0.0, target,
                                   /*seeds=*/nullptr, &slots);
      }
      InvertBatch(kernel_, target, /*seeds=*/nullptr, root, slots);
      for (size_t j = 0; j < m; ++j) {
        if (slot[j] != kPricedOut) {
          (*frequencies)[b + j] = lambda_[b + j] / root[slot[j]];
        }
      }
    }
  });
}

GridSearchResult SolveMultiplierOnGrid(
    const std::function<double(double)>& spend_at, double budget,
    double mu_hi_hint, MultiplierSearch mode) {
  FRESHEN_CHECK(budget > 0.0);
  GridSearchResult out;
  auto probe = [&](double mu) {
    ++out.probes;
    return spend_at(mu);
  };

  // Upper edge: a lattice point with spend <= budget. The bracket phases
  // ignore kMaxSpendEvaluations — they are bounded by the representable
  // range of mu — so a valid (P, not-P) pair always exists before the cap
  // can bite.
  double hi;
  double spend_hi;
  if (mu_hi_hint > 0.0) {
    hi = MuLatticeCeil(mu_hi_hint);
    spend_hi = probe(hi);
    while (spend_hi > budget) {  // Hint too low: escalate (defensive).
      hi = MuLatticeCeil(hi * 2.0);
      FRESHEN_CHECK(hi < 1e300);
      spend_hi = probe(hi);
    }
  } else {
    hi = 1.0;  // On-lattice; *4 is an exponent shift, so stays on-lattice.
    spend_hi = probe(hi);
    while (spend_hi > budget) {
      hi *= 4.0;
      FRESHEN_CHECK(hi < 1e300);
      spend_hi = probe(hi);
    }
  }

  // Lower edge: descend geometrically until spend exceeds budget (spend is
  // unbounded as mu -> 0, so this terminates well before underflow).
  double lo = 0.0;
  double spend_lo = 0.0;
  for (double x = hi;;) {
    const double cand = MuLatticeFloor(x * 0.5);  // Halving is exact.
    FRESHEN_CHECK(cand > 0.0);
    const double s = probe(cand);
    if (s > budget) {
      lo = cand;
      spend_lo = s;
      break;
    }
    hi = cand;
    spend_hi = s;
    x = cand;
  }

  // Stage 1, kSecant only: Illinois secant in (log mu, phi) space.
  // Collapses the bracket to a few lattice steps in ~10-18 probes on the
  // measured catalogs, where bisection needs ~36 per binade. The oracle skips it and bisects the
  // whole bracket: a probe path structurally independent of the secant's,
  // yet landing on the same lattice edge because the flip is unique.
  double t_lo = std::log(lo);
  double t_hi = std::log(hi);
  double phi_lo = Phi(spend_lo, budget);
  double phi_hi = Phi(spend_hi, budget);
  int last_side = 0;  // -1: last probe replaced lo; +1: replaced hi.
  while (mode == MultiplierSearch::kSecant && MuLatticeDistance(lo, hi) > 8 &&
         out.probes < kMaxSpendEvaluations) {
    // A probe whose spend equals the budget has phi = 0; the secant then
    // lands next to it, which settles the flip in one more probe.
    if (!(phi_lo > phi_hi)) break;  // Flat: bisect.
    const double t = t_lo - phi_lo * (t_hi - t_lo) / (phi_hi - phi_lo);
    double cand = MuLatticeRound(std::exp(t));
    const double inner_lo = MuLatticeNext(lo);
    const double inner_hi = MuLatticePrev(hi);
    if (!(cand >= inner_lo)) cand = inner_lo;
    if (!(cand <= inner_hi)) cand = inner_hi;
    const double s = probe(cand);
    if (s > budget) {
      lo = cand;
      t_lo = std::log(cand);
      phi_lo = Phi(s, budget);
      if (last_side == -1) phi_hi *= 0.5;  // Illinois anti-stall halving.
      last_side = -1;
    } else {
      hi = cand;
      t_hi = std::log(cand);
      phi_hi = Phi(s, budget);
      if (last_side == +1) phi_lo *= 0.5;
      last_side = +1;
    }
  }

  // Stage 2: lattice bisection down to the adjacent pair.
  while (MuLatticeDistance(lo, hi) > 1 &&
         out.probes < kMaxSpendEvaluations) {
    const double mid = MuLatticeMidpoint(lo, hi);
    if (probe(mid) > budget) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  out.mu = hi;
  return out;
}

}  // namespace freshen
