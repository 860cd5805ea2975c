// FreshenPlanner: the library's main entry point. Given a catalog of
// elements (change rates, master-profile access probabilities, sizes) and a
// bandwidth budget, it produces a synchronization-frequency plan using any
// combination the paper studies:
//
//   technique  : Perceived Freshening (PF, the paper) or General Freshening
//                (GF, the prior-work baseline from [5])
//   mode       : exact KKT solve over all N elements, or the scalable
//                partition -> (optional k-means) -> solve -> expand pipeline
//   size model : size-blind (§2) or size-aware (§5) constraint, with FFA or
//                FBA intra-partition allocation
//
// Whatever the optimization mode, the returned plan is always feasible with
// respect to the *actual* object sizes: frequencies are proportionally
// rescaled so sum_i s_i f_i = B. (For equal sizes this is a no-op; for the
// paper's "ignore object size" configuration it is exactly the fairness
// normalization Figure 10's comparison requires.)
#ifndef FRESHEN_CORE_PLANNER_H_
#define FRESHEN_CORE_PLANNER_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/result.h"
#include "model/element.h"
#include "opt/water_filling.h"
#include "partition/allocation.h"
#include "partition/kmeans.h"
#include "partition/partitioner.h"
#include "partition/transformed.h"
#include "stats/descriptive.h"

namespace freshen {

/// Whose freshness the objective maximizes.
enum class Technique {
  /// Perceived Freshening: weight each element by its access probability.
  kPerceived,
  /// General Freshening: uniform weights (Cho & Garcia-Molina baseline).
  kGeneral,
};

/// Returns "PF_TECHNIQUE" / "GF_TECHNIQUE" (the paper's legend labels).
std::string ToString(Technique technique);

/// Whether to solve over all elements or over partition representatives.
enum class PlanMode {
  kExact,
  kPartitioned,
};

/// Everything configurable about a planning run.
struct PlannerOptions {
  Technique technique = Technique::kPerceived;
  PlanMode mode = PlanMode::kExact;
  /// Partitioned mode: sorting key for the initial partitions.
  PartitionKey partition_key = PartitionKey::kPerceivedFreshness;
  /// Partitioned mode: number of partitions K.
  size_t num_partitions = 50;
  /// Partitioned mode: Lloyd iterations refining the partitions (0 = none).
  int kmeans_iterations = 0;
  /// Options for the k-means refiner.
  KMeansRefiner::Options kmeans_options;
  /// Partitioned mode: intra-partition allocation policy.
  AllocationPolicy allocation_policy = AllocationPolicy::kFixedBandwidth;
  /// Use the §5 size-aware constraint (sum s_i f_i = B) during optimization.
  bool size_aware = false;
};

/// Per-phase wall-clock breakdown, for the Figure 7-9 timing experiments.
struct PlanTimings {
  double partition_seconds = 0.0;
  double kmeans_seconds = 0.0;
  double solve_seconds = 0.0;
  double expand_seconds = 0.0;
  double total_seconds = 0.0;
};

/// A complete synchronization plan.
struct FreshenPlan {
  /// Sync frequency per element (per period).
  std::vector<double> frequencies;
  /// Analytic perceived freshness sum_i p_i F(f_i, l_i) of the plan.
  double perceived_freshness = 0.0;
  /// Analytic general freshness (1/N) sum_i F(f_i, l_i).
  double general_freshness = 0.0;
  /// Actual bandwidth consumed, sum_i s_i f_i (== budget by construction).
  double bandwidth_used = 0.0;
  /// Partitions actually used (0 in exact mode; can be < requested when
  /// k-means drops empty clusters).
  size_t num_partitions_used = 0;
  /// Phase timings.
  PlanTimings timings;
};

/// The spend the planner's feasibility rescale divides the budget by: a
/// Kahan sum of size_of(i) * frequency_of(i) over i = 0, ..., n - 1.
template <typename SizeOf, typename FrequencyOf>
double PlanSpend(size_t n, SizeOf size_of, FrequencyOf frequency_of) {
  KahanSum spend;
  for (size_t i = 0; i < n; ++i) spend.Add(size_of(i) * frequency_of(i));
  return spend.Total();
}

/// The planner's feasibility rescale w.r.t. actual sizes, shared by every
/// path that installs a plan so the arithmetic exists once: PlanSpend over
/// the plan, then one multiply of every f_i by bandwidth / spend. A plan
/// that spends nothing is left as is. For a problem solved with the true
/// costs this is a no-op up to rounding.
template <typename SizeOf>
void RescaleToBudget(SizeOf size_of, double bandwidth,
                     std::vector<double>* frequencies) {
  const double spend =
      PlanSpend(frequencies->size(), size_of,
                [frequencies](size_t i) { return (*frequencies)[i]; });
  if (spend > 0.0) {
    const double scale = bandwidth / spend;
    for (double& f : *frequencies) f *= scale;
  }
}

/// RescaleToBudget on a plan kept per class: element i plans
/// (*class_frequencies)[class_of[i]]. The spend sums the same terms in the
/// same element order as on the expanded plan, and the multiply scales
/// each class once, so expanding the result gives RescaleToBudget's bits.
template <typename SizeOf>
void RescaleToBudget(SizeOf size_of, double bandwidth,
                     std::span<const uint32_t> class_of,
                     std::vector<double>* class_frequencies) {
  const double* frequency = class_frequencies->data();
  const double spend =
      PlanSpend(class_of.size(), size_of,
                [&](size_t i) { return frequency[class_of[i]]; });
  if (spend > 0.0) {
    const double scale = bandwidth / spend;
    for (double& f : *class_frequencies) f *= scale;
  }
}

/// Solves the Core Problem over the rows row_of(0), ..., row_of(n - 1)
/// exactly through its lossless class transform: ClassTransform::Build
/// groups the rows into `*classes`, `solver` solves the class problem, and
/// `*class_frequencies` receives one frequency per class. The solver hands
/// its residual to the boundary row, which here is the whole tied boundary
/// class, so ties share it equally instead of funding one member. Past n/4
/// distinct rows, or on an overflowing class row, the transform is the
/// identity, so the per-element problem is solved, to the same bytes.
/// Invalid rows fail with CoreProblem::Validate()'s status; on any failure
/// `*class_frequencies` holds one zero per class of `*classes`.
template <typename RowOf>
Status SolveClasses(const KktWaterFillingSolver& solver, size_t n,
                    double bandwidth, RowOf row_of, ClassTransform* classes,
                    std::vector<double>* class_frequencies) {
  Status status = classes->Build(n, bandwidth, row_of);
  if (status.ok()) {
    Result<Allocation> allocation = solver.Solve(classes->problem());
    if (allocation.ok()) {
      *class_frequencies = std::move(allocation->frequencies);
      return Status::OK();
    }
    status = allocation.status();
  }
  class_frequencies->assign(classes->problem().size(), 0.0);
  return status;
}

/// SolveClasses on the rows of `problem`, expanded: `*frequencies` holds one
/// frequency per row. Invalid input fails with CoreProblem::Validate()'s
/// status before any grouping. Returns the number of rows the solver ran on
/// (classes, or N when the transform is the identity).
Result<size_t> SolveByClasses(const KktWaterFillingSolver& solver,
                              const CoreProblem& problem,
                              ClassTransform* classes,
                              std::vector<double>* frequencies);

/// Stateless planner; options fixed at construction.
class FreshenPlanner {
 public:
  explicit FreshenPlanner(PlannerOptions options) : options_(options) {}

  /// Plans for the given catalog and per-period bandwidth budget (> 0).
  Result<FreshenPlan> Plan(const ElementSet& elements,
                           double bandwidth) const;

  /// The options this planner was built with.
  const PlannerOptions& options() const { return options_; }

 private:
  PlannerOptions options_;
  KktWaterFillingSolver solver_;
};

}  // namespace freshen

#endif  // FRESHEN_CORE_PLANNER_H_
