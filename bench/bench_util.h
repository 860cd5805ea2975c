// Shared helpers for the figure/table benches: catalog construction from
// specs, planner shorthands, and uniform series printing.
#ifndef FRESHEN_BENCH_BENCH_UTIL_H_
#define FRESHEN_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/quick_mode.h"
#include "core/planner.h"
#include "model/element.h"
#include "workload/generator.h"
#include "workload/spec.h"

namespace freshen::bench {

/// FRESHEN_QUICK (common/quick_mode.h): big-case benches shrink their
/// workloads ~50x so the whole suite runs in seconds. Full-size runs are
/// the default.
using ::freshen::QuickMode;

/// The 1-minute load average read from /proc/loadavg (-1 when unreadable).
/// Timing gates print it beside a FAIL line: their thresholds assume free
/// cores, and a failure on a loaded machine should say so.
inline double LoadAverage1m() {
  std::FILE* file = std::fopen("/proc/loadavg", "r");
  if (file == nullptr) return -1.0;
  double load = -1.0;
  if (std::fscanf(file, "%lf", &load) != 1) load = -1.0;
  std::fclose(file);
  return load;
}

/// The q-quantile of `samples` (nearest rank; 0 when empty).
inline double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t k = std::min(
      samples.size() - 1,
      static_cast<size_t>(q * static_cast<double>(samples.size() - 1) + 0.5));
  return samples[k];
}

/// Table 3's big case, shrunk when QuickMode().
inline ExperimentSpec BigCaseSpec() {
  ExperimentSpec spec = ExperimentSpec::BigCase();
  if (QuickMode()) {
    spec.num_objects /= 50;       // 10,000 objects.
    spec.syncs_per_period /= 50;  // Bandwidth scales with N.
  }
  return spec;
}

/// Builds the catalog for a spec, aborting on invalid specs (benches use
/// hard-coded known-good parameters).
inline ElementSet MustCatalog(const ExperimentSpec& spec) {
  auto catalog = GenerateCatalog(spec);
  if (!catalog.ok()) {
    std::fprintf(stderr, "catalog generation failed: %s\n",
                 catalog.status().ToString().c_str());
    std::abort();
  }
  return std::move(catalog).value();
}

/// Plans and returns the plan, aborting on failure.
inline FreshenPlan MustPlan(const PlannerOptions& options,
                            const ElementSet& elements, double bandwidth) {
  auto plan = FreshenPlanner(options).Plan(elements, bandwidth);
  if (!plan.ok()) {
    std::fprintf(stderr, "planning failed: %s\n",
                 plan.status().ToString().c_str());
    std::abort();
  }
  return std::move(plan).value();
}

/// Perceived freshness of the optimal (exact) PF plan — the "best_case"
/// reference line in Figures 5 and 7.
inline double BestCasePf(const ElementSet& elements, double bandwidth) {
  PlannerOptions options;
  options.technique = Technique::kPerceived;
  options.mode = PlanMode::kExact;
  return MustPlan(options, elements, bandwidth).perceived_freshness;
}

/// The four §3.1 partitioning techniques in the order the figures list them.
inline const std::vector<PartitionKey>& FigurePartitionKeys() {
  static const std::vector<PartitionKey> keys = {
      PartitionKey::kPerceivedFreshness,
      PartitionKey::kAccessProb,
      PartitionKey::kChangeRate,
      PartitionKey::kProbOverLambda,
  };
  return keys;
}

}  // namespace freshen::bench

#endif  // FRESHEN_BENCH_BENCH_UTIL_H_
