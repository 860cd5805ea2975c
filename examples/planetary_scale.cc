// Example: planning at web-search scale — the paper's "mirrors with
// millions of elements" scenario. Exact optimization over every element is
// what the paper calls intolerable for a schedule that must be recomputed
// whenever contents or interests shift; this example plans for 2,000,000
// objects with the partition + k-means pipeline in well under a second of
// solve time and compares against the exact KKT optimum.
//
//   $ ./build/examples/planetary_scale          # ~2M objects
//   $ FRESHEN_QUICK=1 ./build/examples/planetary_scale   # 200k objects
#include <cstdio>

#include "common/quick_mode.h"
#include "freshen/freshen.h"

int main() {
  using namespace freshen;

  const size_t n = QuickMode() ? 200000 : 2000000;
  ExperimentSpec spec;
  spec.num_objects = n;
  spec.mean_updates_per_object = 2.0;
  spec.update_stddev = 2.0;
  spec.theta = 1.0;
  spec.alignment = Alignment::kShuffled;
  spec.syncs_per_period = 0.5 * static_cast<double>(n);
  const ElementSet catalog = GenerateCatalog(spec).value();
  std::printf("catalog: %zu objects, bandwidth %.0f syncs/period\n", n,
              spec.syncs_per_period);

  // Scalable plan: 100 PF partitions, 10 k-means iterations.
  PlannerOptions scalable;
  scalable.mode = PlanMode::kPartitioned;
  scalable.partition_key = PartitionKey::kPerceivedFreshness;
  scalable.num_partitions = 100;
  scalable.kmeans_iterations = 10;
  const FreshenPlan heuristic =
      FreshenPlanner(scalable).Plan(catalog, spec.syncs_per_period).value();
  std::printf(
      "partition+kmeans plan: PF %.4f in %.2f s total "
      "(partition %.2f s, kmeans %.2f s, solve %.4f s)\n",
      heuristic.perceived_freshness, heuristic.timings.total_seconds,
      heuristic.timings.partition_seconds, heuristic.timings.kmeans_seconds,
      heuristic.timings.solve_seconds);

  // Exact optimum for reference (feasible only because our solver exploits
  // the problem's separability — a generic NLP package cannot do this; see
  // bench_solver_scaling).
  const FreshenPlan exact =
      FreshenPlanner({}).Plan(catalog, spec.syncs_per_period).value();
  std::printf("exact KKT optimum:     PF %.4f in %.2f s\n",
              exact.perceived_freshness, exact.timings.total_seconds);
  std::printf(
      "heuristic reaches %.1f%% of optimal perceived freshness with a "
      "schedule it can\nrecompute continuously as profiles drift.\n",
      100.0 * heuristic.perceived_freshness / exact.perceived_freshness);
  return 0;
}
