// Ablation A1 — the paper's §3 scalability motivation, measured. Part 1
// compares wall-clock time and quality of:
//   * GENERIC_NLP  : black-box projected gradient with finite differences
//                    (O(N^2) per iteration), standing in for the IMSL
//                    package ("for hundreds of thousands of items, the
//                    package runs for days without terminating");
//   * EXACT_KKT    : our water-filling solver (near-linear);
//   * PARTITION+K  : PF-partitioning to 100 partitions + exact solve.
// The generic solver gets a fixed time budget per size; when it fails to
// converge inside it, the row is marked (budget), echoing the paper's
// observation.
//
// Part 2 benchmarks the scan-breakpoint KKT solver at catalog scale
// (N up to 10M) over the freshen::par thread knob, on a Zipf-flavored
// catalog and on one dominated by a single class of identical elements. Methodology, learned
// the hard way from this bench's own earlier pathologies:
//   * one UNTIMED warm-up solve per problem before any timed run (the old
//     bench charged first-touch page faults and pool spin-up to the
//     1-thread row, inflating every speedup);
//   * the problem instance is built once and PINNED across all thread
//     counts and both search modes (no per-row regeneration);
//   * every (n, threads, mode) cell reports the MEDIAN of 3 solves (the
//     old single-shot numbers swung 2x run-to-run under CPU contention).
// Beside each instance's kkt_solver rows, a planner_exact row times
// SolveByClasses, the exact planner's class-transform solve,
// with one ClassTransform kept across its solves as the adaptive controller
// keeps it. one_class groups into ~N/10^4 classes; zipf has no repeated
// rows, so it measures the fallback to the per-element solve. Its
// speedup_vs_1t is against the 1-thread kkt_solver scan row of the same
// instance, and its JSON row adds rows_solved and objective_gap (the
// relative objective difference to that row's allocation).
// Hard gates, enforced by exit code (the quick-mode run is wired into
// ctest as bench_solver_scaling_smoke):
//   * every thread count must reproduce the 1-thread allocation bits;
//   * the scan-breakpoint mode must reproduce the bisection-oracle
//     allocation byte-for-byte;
//   * the planner's class solve must repeat its own bits, match the
//     bisection oracle's class solve byte-for-byte, and reach at least the
//     kkt_solver objective minus 1e-12 relative;
//   * with >= 8 hardware threads, the 8-thread solve must be >= 2x the
//     1-thread solve. On narrower machines the gate cannot be meaningful
//     (oversubscribed "threads" share cores and measure scheduler noise,
//     which is exactly how the old bench produced 0.99x-at-4-threads
//     rows), so it is skipped with an explicit note.
// All rows land in BENCH_solver_scaling.json with the machine's hardware
// concurrency recorded, so the perf trajectory across PRs stays honest.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "common/table_writer.h"
#include "common/timer.h"
#include "core/planner.h"
#include "model/metrics.h"
#include "opt/generic_nlp.h"
#include "opt/problem.h"
#include "opt/scan_breakpoint.h"
#include "opt/water_filling.h"
#include "sim/simulator.h"

namespace {

using namespace freshen;

struct ScalingRow {
  std::string component;  // "kkt_solver" | "simulator".
  std::string catalog;    // "zipf" | "one_class" | "ideal" (simulator).
  std::string mode;       // "scan" | "oracle" | "-".
  size_t n = 0;
  size_t threads = 0;
  double seconds = 0.0;       // Median of 3.
  double speedup_vs_1t = 0.0;
  bool bit_identical = true;      // vs the 1-thread run, same mode.
  bool oracle_byte_match = true;  // scan allocation vs oracle allocation.
  size_t rows_solved = 0;         // planner_exact only.
  double objective_gap = 0.0;     // planner_exact only: vs kkt_solver.
};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameFrequencies(const std::vector<double>& a,
                     const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SameAllocation(const Allocation& a, const Allocation& b) {
  return SameFrequencies(a.frequencies, b.frequencies) &&
         SameBits(a.multiplier, b.multiplier) &&
         SameBits(a.objective, b.objective) &&
         SameBits(a.bandwidth_used, b.bandwidth_used);
}

bool SameResult(const SimulationResult& a, const SimulationResult& b) {
  return SameBits(a.empirical_perceived_freshness,
                  b.empirical_perceived_freshness) &&
         SameBits(a.empirical_general_freshness,
                  b.empirical_general_freshness) &&
         SameBits(a.empirical_perceived_age, b.empirical_perceived_age) &&
         SameBits(a.analytic_perceived_freshness,
                  b.analytic_perceived_freshness) &&
         SameBits(a.analytic_general_freshness,
                  b.analytic_general_freshness) &&
         a.num_accesses == b.num_accesses && a.num_updates == b.num_updates &&
         a.num_syncs == b.num_syncs;
}

// Zipf-flavored synthetic instance built directly as a CoreProblem: the
// 10M row would spend longer materializing an ElementSet catalog than
// solving, and Part 2 only needs the solver inputs.
CoreProblem SyntheticProblem(size_t n) {
  std::mt19937_64 rng(0x5CA1AB1Eu + n);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  CoreProblem problem;
  problem.weights.resize(n);
  problem.change_rates.resize(n);
  problem.costs.assign(n, 1.0);
  for (size_t i = 0; i < n; ++i) {
    // Heavy-tailed weights, log-uniform change rates over 4 decades.
    problem.weights[i] = 1.0 / std::pow(1.0 + u(rng) * 999.0, 0.8);
    problem.change_rates[i] = std::exp2(-6.0 + 12.0 * u(rng));
  }
  problem.bandwidth = 0.5 * static_cast<double>(n);
  return problem;
}

// A controller's catalog before it has observed most elements: all but
// 0.01% of elements share one (w, lambda), the rest are drawn as in
// SyntheticProblem. The budget (1e-4 per element, loop_replan's 50 at
// N=500k) prices the shared class out at most probes, so this row measures
// the evaluator's skipped and shared kernel inputs.
CoreProblem OneClassProblem(size_t n) {
  std::mt19937_64 rng(0x0C1A55u + n);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  CoreProblem problem;
  problem.weights.assign(n, 1.0 / static_cast<double>(n));
  problem.change_rates.assign(n, 1.0);
  problem.costs.assign(n, 1.0);
  for (size_t k = 0; k < n / 10000; ++k) {
    const size_t i = rng() % n;
    problem.weights[i] = 1.0 / std::pow(1.0 + u(rng) * 999.0, 0.8);
    problem.change_rates[i] = std::exp2(-6.0 + 12.0 * u(rng));
  }
  problem.bandwidth = 1e-4 * static_cast<double>(n);
  return problem;
}

// Median-of-3 timed solves. The allocation from the last solve is returned
// via *out (all three are byte-identical by the determinism contract — the
// bench's bit_identical columns prove it, so which one we keep is moot).
double MedianSolveSeconds(const KktWaterFillingSolver& solver,
                          const CoreProblem& problem, Allocation* out) {
  double seconds[3];
  for (double& s : seconds) {
    WallTimer timer;
    *out = solver.Solve(problem).value();
    s = timer.ElapsedSeconds();
  }
  std::sort(seconds, seconds + 3);
  return seconds[1];
}

void WriteJson(const std::vector<ScalingRow>& rows, const char* path) {
  std::FILE* file = std::fopen(path, "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(file, "{\n  \"hardware_threads\": %zu,\n  \"rows\": [\n",
               par::HardwareThreads());
  for (size_t i = 0; i < rows.size(); ++i) {
    const ScalingRow& row = rows[i];
    const std::string planner_fields =
        row.component == "planner_exact"
            ? StrFormat(", \"rows_solved\": %zu, \"objective_gap\": %.3e",
                        row.rows_solved, row.objective_gap)
            : "";
    std::fprintf(file,
                 "    {\"component\": \"%s\", \"catalog\": \"%s\", "
                 "\"mode\": \"%s\", \"n\": %zu, "
                 "\"threads\": %zu, \"seconds\": %.6f, "
                 "\"speedup_vs_1t\": %.3f, \"bit_identical\": %s, "
                 "\"oracle_byte_match\": %s%s}%s\n",
                 row.component.c_str(), row.catalog.c_str(),
                 row.mode.c_str(), row.n, row.threads,
                 row.seconds, row.speedup_vs_1t,
                 row.bit_identical ? "true" : "false",
                 row.oracle_byte_match ? "true" : "false",
                 planner_fields.c_str(), i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(file, "  ]\n}\n");
  std::fclose(file);
  std::printf("wrote %zu rows to %s\n", rows.size(), path);
}

}  // namespace

int main() {
  std::printf("== Ablation A1: solver scalability ==\n");
  const double budget_seconds = bench::QuickMode() ? 0.5 : 5.0;
  std::printf(
      "Table 2 parameters scaled to each N; generic-NLP time budget %.1f s "
      "per size\n\n",
      budget_seconds);

  TableWriter table({"N", "GENERIC_NLP s", "GENERIC_NLP pf", "EXACT_KKT s",
                     "EXACT_KKT pf", "PARTITION+KKT s", "PARTITION+KKT pf"});
  const std::vector<size_t> table_sizes =
      bench::QuickMode()
          ? std::vector<size_t>{100, 500, 2000, 10000, 50000}
          : std::vector<size_t>{100, 500, 2000, 10000, 100000, 500000};
  for (size_t n : table_sizes) {
    ExperimentSpec spec = ExperimentSpec::IdealCase();
    spec.num_objects = n;
    spec.syncs_per_period = 0.5 * static_cast<double>(n);
    spec.alignment = Alignment::kShuffled;
    const ElementSet elements = bench::MustCatalog(spec);
    const CoreProblem problem =
        MakePerceivedProblem(elements, spec.syncs_per_period, false);

    std::vector<std::string> row = {StrFormat("%zu", n)};

    // Generic NLP: only attempt sizes where one gradient evaluation is even
    // plausible inside the budget (the point of the ablation).
    if (n <= 10000) {
      GenericNlpSolver::Options options;
      options.time_budget_seconds = budget_seconds;
      options.max_iterations = 1000000;
      const Allocation allocation =
          GenericNlpSolver(options).Solve(problem).value();
      row.push_back(StrFormat("%.3f%s", allocation.solve_seconds,
                              allocation.converged ? "" : " (budget)"));
      row.push_back(FormatDouble(
          PerceivedFreshness(elements, allocation.frequencies), 4));
    } else {
      row.push_back("skipped (days)");
      row.push_back("-");
    }

    {
      const Allocation allocation =
          KktWaterFillingSolver().Solve(problem).value();
      row.push_back(FormatDouble(allocation.solve_seconds, 3));
      row.push_back(FormatDouble(
          PerceivedFreshness(elements, allocation.frequencies), 4));
    }
    {
      PlannerOptions options;
      options.mode = PlanMode::kPartitioned;
      options.partition_key = PartitionKey::kPerceivedFreshness;
      options.num_partitions = 100;
      const FreshenPlan plan =
          bench::MustPlan(options, elements, spec.syncs_per_period);
      row.push_back(FormatDouble(plan.timings.total_seconds, 3));
      row.push_back(FormatDouble(plan.perceived_freshness, 4));
    }
    table.AddRow(row);
  }
  std::printf("%s\n", table.ToText().c_str());
  std::printf(
      "reading: the generic black-box solver stops converging within budget "
      "well before\nN = 10^4 (the paper's IMSL observation); partitioning "
      "keeps solve cost flat at any N\nwith a small quality gap; the exact "
      "KKT solver shows the problem itself is easy once\nits separable "
      "structure is exploited.\n\n");

  // ---- Part 2: scan-breakpoint solver, thread + mode sweep -------------
  const size_t hardware_threads = par::HardwareThreads();
  std::printf("== Parallel scaling (scan-breakpoint KKT solver) ==\n");
  std::printf(
      "median of 3 solves, warmed up, pinned instances; hardware threads: "
      "%zu.\nEvery row must reproduce the 1-thread bits; scan must "
      "byte-match the bisection\noracle.\n\n",
      hardware_threads);
  const std::vector<size_t> thread_counts = {1, 2, 4, 8, 16};
  std::vector<ScalingRow> rows;
  bool gate_failed = false;

  TableWriter solver_table({"component", "catalog", "mode", "N", "threads",
                            "seconds", "speedup vs 1t", "bit-identical",
                            "oracle-match"});
  TableWriter planner_table({"catalog", "N", "rows solved", "seconds",
                             "vs kkt 1t", "objective gap", "repeat-identical",
                             "oracle-match"});
  struct SolverCase {
    const char* catalog;
    CoreProblem (*make)(size_t n);
    size_t n;
  };
  const std::vector<SolverCase> solver_cases =
      bench::QuickMode()
          ? std::vector<SolverCase>{{"zipf", SyntheticProblem, 200000},
                                    {"one_class", OneClassProblem, 200000}}
          : std::vector<SolverCase>{{"zipf", SyntheticProblem, 1000000},
                                    {"zipf", SyntheticProblem, 2000000},
                                    {"zipf", SyntheticProblem, 10000000},
                                    {"one_class", OneClassProblem, 1000000}};
  for (const SolverCase& solver_case : solver_cases) {
    const std::string catalog = solver_case.catalog;
    const size_t n = solver_case.n;
    const CoreProblem problem = solver_case.make(n);

    // Warm-up (untimed): faults in the problem arrays, spins up the shared
    // pool, and exercises both modes' code paths once.
    Allocation scan_baseline;
    {
      KktWaterFillingSolver::Options options;
      options.threads = hardware_threads;
      KktWaterFillingSolver(options).Solve(problem).value();
    }

    // Oracle reference: 1-thread bisection, the structurally different
    // probe path the scan must byte-match.
    Allocation oracle_allocation;
    {
      KktWaterFillingSolver::Options options;
      options.threads = 1;
      options.search = MultiplierSearch::kBisectionOracle;
      const double seconds = MedianSolveSeconds(
          KktWaterFillingSolver(options), problem, &oracle_allocation);
      solver_table.AddRow({"kkt_solver", catalog, "oracle",
                           StrFormat("%zu", n), "1", FormatDouble(seconds, 3),
                           "-", "yes", "-"});
      rows.push_back({"kkt_solver", catalog, "oracle", n, 1, seconds, 0.0,
                      true, true});
    }

    double baseline_seconds = 0.0;
    for (size_t threads : thread_counts) {
      KktWaterFillingSolver::Options options;
      options.threads = threads;
      options.search = MultiplierSearch::kScanBreakpoint;
      Allocation allocation;
      const double seconds = MedianSolveSeconds(KktWaterFillingSolver(options),
                                                problem, &allocation);
      const bool identical =
          threads == 1 || SameAllocation(allocation, scan_baseline);
      const bool oracle_match = SameAllocation(allocation, oracle_allocation);
      if (threads == 1) {
        scan_baseline = allocation;
        baseline_seconds = seconds;
      }
      const double speedup =
          seconds > 0.0 ? baseline_seconds / seconds : 0.0;
      solver_table.AddRow(
          {"kkt_solver", catalog, "scan", StrFormat("%zu", n),
           StrFormat("%zu", threads), FormatDouble(seconds, 3),
           StrFormat("%.2fx", speedup), identical ? "yes" : "NO",
           oracle_match ? "yes" : "NO"});
      rows.push_back({"kkt_solver", catalog, "scan", n, threads, seconds,
                      speedup, identical, oracle_match});
      if (!oracle_match) {
        std::fprintf(stderr,
                     "FAIL: scan != oracle allocation on %s at n=%zu "
                     "threads=%zu\n",
                     catalog.c_str(), n, threads);
        gate_failed = true;
      }
      if (threads == 8 && hardware_threads >= 8 && speedup < 2.0) {
        std::fprintf(
            stderr,
            "FAIL: 8-thread speedup %.2fx < 2x on %s at n=%zu on a "
            "%zu-thread machine\n",
            speedup, catalog.c_str(), n, hardware_threads);
        gate_failed = true;
      }
    }

    // The exact planner's solve of the same instance, warmed up once, with
    // its class transform reused across the timed solves.
    {
      const KktWaterFillingSolver planner_solver;
      ClassTransform classes;
      std::vector<double> warm;
      SolveByClasses(planner_solver, problem, &classes, &warm).value();
      std::vector<double> frequencies;
      size_t rows_solved = 0;
      bool repeat_identical = true;
      double seconds[3];
      for (double& s : seconds) {
        WallTimer timer;
        rows_solved =
            SolveByClasses(planner_solver, problem, &classes, &frequencies)
                .value();
        s = timer.ElapsedSeconds();
        repeat_identical &= SameFrequencies(frequencies, warm);
      }
      std::sort(seconds, seconds + 3);
      KktWaterFillingSolver::Options oracle_options;
      oracle_options.threads = 1;
      oracle_options.search = MultiplierSearch::kBisectionOracle;
      std::vector<double> oracle;
      SolveByClasses(KktWaterFillingSolver(oracle_options), problem, &classes,
                     &oracle)
          .value();
      const bool oracle_match = SameFrequencies(frequencies, oracle);
      const double kkt_objective = scan_baseline.objective;
      const double objective_gap =
          (problem.Objective(frequencies) - kkt_objective) /
          std::fabs(kkt_objective);
      const double speedup =
          seconds[1] > 0.0 ? baseline_seconds / seconds[1] : 0.0;
      planner_table.AddRow(
          {catalog, StrFormat("%zu", n), StrFormat("%zu", rows_solved),
           FormatDouble(seconds[1], 4), StrFormat("%.1fx", speedup),
           StrFormat("%.2e", objective_gap), repeat_identical ? "yes" : "NO",
           oracle_match ? "yes" : "NO"});
      ScalingRow row{"planner_exact", catalog, "scan", n, hardware_threads,
                     seconds[1], speedup, repeat_identical, oracle_match};
      row.rows_solved = rows_solved;
      row.objective_gap = objective_gap;
      rows.push_back(row);
      if (!repeat_identical || !oracle_match) {
        std::fprintf(stderr,
                     "FAIL: planner class solve not reproducible on %s at "
                     "n=%zu (repeat %s, oracle %s)\n",
                     catalog.c_str(), n, repeat_identical ? "ok" : "NO",
                     oracle_match ? "ok" : "NO");
        gate_failed = true;
      }
      if (!(objective_gap >= -1e-12)) {
        std::fprintf(stderr,
                     "FAIL: planner objective %.3e relative below the "
                     "kkt_solver objective on %s at n=%zu\n",
                     -objective_gap, catalog.c_str(), n);
        gate_failed = true;
      }
    }
  }

  const std::vector<size_t> sim_sizes = bench::QuickMode()
                                            ? std::vector<size_t>{5000}
                                            : std::vector<size_t>{1000000};
  for (size_t n : sim_sizes) {
    ExperimentSpec spec = ExperimentSpec::IdealCase();
    spec.num_objects = n;
    spec.syncs_per_period = 0.5 * static_cast<double>(n);
    spec.alignment = Alignment::kShuffled;
    const ElementSet elements = bench::MustCatalog(spec);
    const CoreProblem problem =
        MakePerceivedProblem(elements, spec.syncs_per_period, false);
    const Allocation allocation =
        KktWaterFillingSolver().Solve(problem).value();

    SimulationConfig config;
    config.horizon_periods = 4.0;
    config.warmup_periods = 1.0;
    config.accesses_per_period = 0.1 * static_cast<double>(n);
    config.seed = 7;

    // Warm-up (untimed).
    {
      config.threads = hardware_threads;
      MirrorSimulator simulator(elements, config);
      simulator.Run(allocation.frequencies).value();
    }

    SimulationResult baseline;
    double baseline_seconds = 0.0;
    for (size_t threads : thread_counts) {
      config.threads = threads;
      MirrorSimulator simulator(elements, config);
      double seconds[3];
      SimulationResult result;
      for (double& s : seconds) {
        WallTimer timer;
        result = simulator.Run(allocation.frequencies).value();
        s = timer.ElapsedSeconds();
      }
      std::sort(seconds, seconds + 3);
      const double median = seconds[1];
      const bool identical = threads == 1 || SameResult(result, baseline);
      if (threads == 1) {
        baseline = result;
        baseline_seconds = median;
      }
      const double speedup = median > 0.0 ? baseline_seconds / median : 0.0;
      solver_table.AddRow({"simulator", "ideal", "-", StrFormat("%zu", n),
                           StrFormat("%zu", threads), FormatDouble(median, 3),
                           StrFormat("%.2fx", speedup),
                           identical ? "yes" : "NO", "-"});
      rows.push_back({"simulator", "ideal", "-", n, threads, median, speedup,
                      identical, true});
    }
  }
  std::printf("%s\n", solver_table.ToText().c_str());
  std::printf(
      "== Exact planner (class transform) ==\nSolveByClasses on "
      "the same instances, median of 3 with one reused\nClassTransform; "
      "\"vs kkt 1t\" is the speedup over the 1-thread kkt_solver scan "
      "row.\n\n%s\n",
      planner_table.ToText().c_str());
  if (hardware_threads >= 8) {
    std::printf(
        "reading: shard boundaries depend only on N, so the thread column "
        "is pure execution\npolicy -- a bit-identical=NO row is a "
        "determinism bug, not noise. The 8-thread\nrows are gated at >= "
        "2x.\n");
  } else {
    std::printf(
        "reading: this machine exposes %zu hardware thread(s), so "
        "multi-thread rows\noversubscribe cores and measure scheduler "
        "fairness, not scaling -- the >= 2x\n8-thread gate is skipped "
        "(it is enforced on machines with >= 8 threads). The\n"
        "bit-identical and oracle-match columns are hardware-independent "
        "and still gate.\n",
        hardware_threads);
  }

  bool all_identical = true;
  for (const ScalingRow& row : rows) all_identical &= row.bit_identical;
  WriteJson(rows, "BENCH_solver_scaling.json");
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: some thread counts broke the determinism contract\n");
    return 1;
  }
  if (gate_failed) return 1;
  return 0;
}
