#include "partition/transformed.h"

#include <cmath>
#include <cstring>

#include "common/macros.h"

namespace freshen {

CoreProblem BuildTransformedProblem(const std::vector<Partition>& partitions,
                                    double bandwidth, bool size_aware) {
  CoreProblem problem;
  const size_t k = partitions.size();
  problem.weights.resize(k);
  problem.change_rates.resize(k);
  problem.costs.resize(k);
  problem.bandwidth = bandwidth;
  for (size_t j = 0; j < k; ++j) {
    const auto& part = partitions[j];
    FRESHEN_CHECK(!part.members.empty());
    const double count = static_cast<double>(part.members.size());
    problem.weights[j] = count * part.rep_access_prob;
    problem.change_rates[j] = part.rep_change_rate;
    problem.costs[j] = count * (size_aware ? part.rep_size : 1.0);
  }
  return problem;
}

namespace {

// Table size every Build starts from; it doubles while more than half full.
constexpr size_t kInitialSlots = 64;

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

// Multiply-xorshift mix of the three key words.
uint64_t HashKey(uint64_t w, uint64_t l, uint64_t c) {
  uint64_t h = w * 0x9E3779B97F4A7C15ULL;
  h = (h ^ (h >> 32) ^ l) * 0xC2B2AE3D27D4EB4FULL;
  h = (h ^ (h >> 29) ^ c) * 0x165667B19E3779F9ULL;
  return h ^ (h >> 32);
}

}  // namespace

void ClassTransform::Rehash(const CoreProblem& problem, size_t slots) {
  slots_.assign(slots, 0);
  const size_t mask = slots - 1;
  for (size_t j = 0; j < first_.size(); ++j) {
    const size_t i = first_[j];
    size_t s = HashKey(Bits(problem.weights[i]), Bits(problem.change_rates[i]),
                       Bits(problem.costs[i])) &
               mask;
    while (slots_[s] != 0) s = (s + 1) & mask;
    slots_[s] = static_cast<uint32_t>(j + 1);
  }
}

bool ClassTransform::Build(const CoreProblem& problem, size_t max_classes) {
  const size_t n = problem.size();
  if (n >= UINT32_MAX) return false;
  first_.clear();
  counts_.clear();
  class_of_.resize(n);
  Rehash(problem, kInitialSlots);
  size_t mask = slots_.size() - 1;

  // Runs of one row are common (untouched elements of a learned catalog
  // sit side by side), so the previous row's class is tried before the
  // table, and a run's members are counted in a register.
  const double* weights = problem.weights.data();
  const double* rates = problem.change_rates.data();
  const double* costs = problem.costs.data();
  uint32_t* class_of = class_of_.data();
  uint64_t prev_w = 0;
  uint64_t prev_l = 0;
  uint64_t prev_c = 0;
  uint32_t prev_class = 0;
  uint32_t run = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t w = Bits(weights[i]);
    const uint64_t l = Bits(rates[i]);
    const uint64_t c = Bits(costs[i]);
    if (run > 0 && w == prev_w && l == prev_l && c == prev_c) {
      class_of[i] = prev_class;
      ++run;
      continue;
    }
    if (run > 0) counts_[prev_class] += run;
    size_t s = HashKey(w, l, c) & mask;
    uint32_t id = UINT32_MAX;
    while (slots_[s] != 0) {
      const uint32_t j = slots_[s] - 1;
      const size_t k = first_[j];
      if (Bits(weights[k]) == w && Bits(rates[k]) == l &&
          Bits(costs[k]) == c) {
        id = j;
        break;
      }
      s = (s + 1) & mask;
    }
    if (id == UINT32_MAX) {
      if (first_.size() == max_classes) return false;
      id = static_cast<uint32_t>(first_.size());
      first_.push_back(static_cast<uint32_t>(i));
      counts_.push_back(0);
      slots_[s] = id + 1;
      if (2 * first_.size() > slots_.size()) {
        Rehash(problem, 2 * slots_.size());
        mask = slots_.size() - 1;
      }
    }
    class_of[i] = id;
    prev_w = w;
    prev_l = l;
    prev_c = c;
    prev_class = id;
    run = 1;
  }
  if (run > 0) counts_[prev_class] += run;

  const size_t k = first_.size();
  classes_.weights.resize(k);
  classes_.change_rates.resize(k);
  classes_.costs.resize(k);
  classes_.bandwidth = problem.bandwidth;
  for (size_t j = 0; j < k; ++j) {
    const double members = static_cast<double>(counts_[j]);
    classes_.weights[j] = members * weights[first_[j]];
    classes_.change_rates[j] = rates[first_[j]];
    classes_.costs[j] = members * costs[first_[j]];
    // A class row must stay a valid Core Problem row.
    if (!std::isfinite(classes_.weights[j]) ||
        !std::isfinite(classes_.costs[j])) {
      return false;
    }
  }
  return true;
}

void ClassTransform::Expand(const std::vector<double>& class_frequencies,
                            std::vector<double>* frequencies) const {
  FRESHEN_CHECK(class_frequencies.size() == classes_.size());
  frequencies->resize(class_of_.size());
  for (size_t i = 0; i < class_of_.size(); ++i) {
    (*frequencies)[i] = class_frequencies[class_of_[i]];
  }
}

}  // namespace freshen
