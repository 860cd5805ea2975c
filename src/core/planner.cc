#include "core/planner.h"

#include <cmath>

#include "common/string_util.h"
#include "common/timer.h"
#include "model/metrics.h"
#include "opt/problem.h"

namespace freshen {

std::string ToString(Technique technique) {
  switch (technique) {
    case Technique::kPerceived:
      return "PF_TECHNIQUE";
    case Technique::kGeneral:
      return "GF_TECHNIQUE";
  }
  return "UNKNOWN_TECHNIQUE";
}

Result<size_t> SolveByClasses(const KktWaterFillingSolver& solver,
                              const CoreProblem& problem,
                              ClassTransform* classes,
                              std::vector<double>* frequencies) {
  FRESHEN_RETURN_IF_ERROR(problem.Validate());
  std::vector<double> class_frequencies;
  FRESHEN_RETURN_IF_ERROR(SolveClasses(
      solver, problem.size(), problem.bandwidth,
      [&problem](size_t i) {
        return CoreRow{problem.weights[i], problem.change_rates[i],
                       problem.costs[i]};
      },
      classes, &class_frequencies));
  *frequencies = classes->Expand(class_frequencies);
  return class_frequencies.size();
}

Result<FreshenPlan> FreshenPlanner::Plan(const ElementSet& elements,
                                         double bandwidth) const {
  if (elements.empty()) {
    return Status::InvalidArgument("cannot plan for an empty catalog");
  }
  if (!(bandwidth > 0.0) || !std::isfinite(bandwidth)) {
    return Status::InvalidArgument(
        StrFormat("bandwidth must be positive and finite, got %g", bandwidth));
  }
  for (size_t i = 0; i < elements.size(); ++i) {
    if (!(elements[i].size > 0.0)) {
      return Status::InvalidArgument(
          StrFormat("element %zu has non-positive size", i));
    }
  }

  WallTimer total_timer;
  FreshenPlan plan;

  auto make_problem = [&](const ElementSet& catalog) {
    return options_.technique == Technique::kPerceived
               ? MakePerceivedProblem(catalog, bandwidth, options_.size_aware)
               : MakeGeneralProblem(catalog, bandwidth, options_.size_aware);
  };

  if (options_.mode == PlanMode::kExact) {
    WallTimer solve_timer;
    ClassTransform classes;
    FRESHEN_RETURN_IF_ERROR(
        SolveByClasses(solver_, make_problem(elements), &classes,
                       &plan.frequencies)
            .status());
    plan.timings.solve_seconds = solve_timer.ElapsedSeconds();
  } else {
    // Step 1: sort-based partitioning.
    WallTimer phase_timer;
    FRESHEN_ASSIGN_OR_RETURN(
        std::vector<Partition> partitions,
        BuildPartitions(elements, options_.partition_key,
                        options_.num_partitions));
    plan.timings.partition_seconds = phase_timer.ElapsedSeconds();

    // Step 1b: optional k-means cleanup.
    if (options_.kmeans_iterations > 0) {
      phase_timer.Restart();
      KMeansRefiner refiner(elements, options_.kmeans_options);
      FRESHEN_ASSIGN_OR_RETURN(
          partitions, refiner.Refine(partitions, options_.kmeans_iterations));
      plan.timings.kmeans_seconds = phase_timer.ElapsedSeconds();
    }
    plan.num_partitions_used = partitions.size();

    // Step 2: solve the Transformed Problem over the representatives.
    phase_timer.Restart();
    CoreProblem transformed =
        BuildTransformedProblem(partitions, bandwidth, options_.size_aware);
    if (options_.technique == Technique::kGeneral) {
      // GF weighs every element equally: partition weight n_j / N.
      const double inv_n = 1.0 / static_cast<double>(elements.size());
      for (size_t j = 0; j < partitions.size(); ++j) {
        transformed.weights[j] =
            static_cast<double>(partitions[j].members.size()) * inv_n;
      }
    }
    FRESHEN_ASSIGN_OR_RETURN(Allocation allocation,
                             solver_.Solve(transformed));
    plan.timings.solve_seconds = phase_timer.ElapsedSeconds();

    // Step 3: expand partition frequencies to element frequencies.
    phase_timer.Restart();
    FRESHEN_ASSIGN_OR_RETURN(
        plan.frequencies,
        ExpandAllocation(elements, partitions, allocation.frequencies,
                         options_.allocation_policy));
    plan.timings.expand_seconds = phase_timer.ElapsedSeconds();
  }

  // Feasibility w.r.t. actual sizes (no-op whenever the optimization
  // already used the true costs).
  RescaleToBudget([&](size_t i) { return elements[i].size; }, bandwidth,
                  &plan.frequencies);

  plan.perceived_freshness = PerceivedFreshness(elements, plan.frequencies);
  plan.general_freshness = GeneralFreshness(elements, plan.frequencies);
  plan.bandwidth_used = BandwidthUsed(elements, plan.frequencies);
  plan.timings.total_seconds = total_timer.ElapsedSeconds();
  return plan;
}

}  // namespace freshen
