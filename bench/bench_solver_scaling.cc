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
// Part 2 times the secant-search KKT solver at catalog scale (N up to
// 10M) over the freshen::par thread knob, on a Zipf-flavored catalog and on
// one dominated by a single class of identical elements, beside a 1-thread
// bisection-oracle row and a planner_exact row (SolveByClasses with one
// reused ClassTransform) per instance, and the simulator at N = 1M. Each
// cell is warmed up once, then timed k = 5 times on a pinned instance
// (median and quartiles). Hard gates, enforced by exit code (the quick-mode
// run is the bench_solver_scaling_smoke ctest):
//   * every thread count must reproduce the 1-thread allocation bits;
//   * the secant mode (rows keyed "scan") must reproduce the bisection-oracle
//     allocation byte-for-byte;
//   * the planner's class solve must repeat its own bits, match the
//     bisection oracle's class solve byte-for-byte, and reach at least the
//     kkt_solver objective minus 1e-12 relative;
//   * with >= 8 hardware threads, the 8-thread solve must be >= 2x the
//     1-thread solve (on narrower machines the extra threads oversubscribe
//     cores, so the gate is skipped with a note).
// docs/performance.md ("Benchmark methodology") explains each rule. All rows
// land in BENCH_solver_scaling.json.
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

KktWaterFillingSolver Solver(size_t threads, MultiplierSearch search) {
  KktWaterFillingSolver::Options options;
  options.threads = threads;
  options.search = search;
  return KktWaterFillingSolver(options);
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

// One row of BENCH_solver_scaling.json; speedup_vs_1t is of the medians.
bench::JsonObject RowJson(const char* component, const std::string& catalog,
                          const char* mode, size_t n, size_t threads,
                          const bench::Spread& seconds, double speedup,
                          bool bit_identical, bool oracle_byte_match) {
  return bench::JsonObject()
      .Str("component", component)
      .Str("catalog", catalog)
      .Str("mode", mode)
      .Num("n", n)
      .Num("threads", threads)
      .Spread("seconds", seconds)
      .Num("speedup_vs_1t", speedup)
      .Bool("bit_identical", bit_identical)
      .Bool("oracle_byte_match", oracle_byte_match);
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

  // ---- Part 2: secant-search solver, thread + mode sweep ---------------
  const size_t hardware_threads = par::HardwareThreads();
  std::printf("== Parallel scaling (secant-search KKT solver) ==\n");
  std::printf(
      "median of %d solves, warmed up, pinned instances; hardware threads: "
      "%zu.\nEvery row must reproduce the 1-thread bits; scan must "
      "byte-match the bisection\noracle.\n\n",
      bench::kRepeats, hardware_threads);
  const std::vector<size_t> thread_counts = {1, 2, 4, 8, 16};
  std::vector<std::string> rows;  // BENCH_solver_scaling.json rows.
  bench::GateReport gates;

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
    Solver(hardware_threads, MultiplierSearch::kSecant)
        .Solve(problem)
        .value();

    // Oracle reference: 1-thread bisection, the structurally different
    // probe path the scan must byte-match.
    Allocation oracle_allocation;
    {
      const KktWaterFillingSolver solver =
          Solver(1, MultiplierSearch::kBisectionOracle);
      const bench::Spread seconds = bench::TimeSeconds(bench::kRepeats, [&] {
        oracle_allocation = solver.Solve(problem).value();
      });
      solver_table.AddRow({"kkt_solver", catalog, "oracle",
                           StrFormat("%zu", n), "1",
                           FormatDouble(seconds.median, 3), "-", "yes", "-"});
      rows.push_back(RowJson("kkt_solver", catalog, "oracle", n, 1, seconds,
                             0.0, true, true)
                         .str());
    }

    double baseline_seconds = 0.0;
    for (size_t threads : thread_counts) {
      const KktWaterFillingSolver solver =
          Solver(threads, MultiplierSearch::kSecant);
      Allocation allocation;
      const bench::Spread seconds = bench::TimeSeconds(
          bench::kRepeats,
          [&] { allocation = solver.Solve(problem).value(); });
      const bool identical =
          threads == 1 || SameAllocation(allocation, scan_baseline);
      const bool oracle_match = SameAllocation(allocation, oracle_allocation);
      if (threads == 1) {
        scan_baseline = allocation;
        baseline_seconds = seconds.median;
      }
      const double speedup =
          seconds.median > 0.0 ? baseline_seconds / seconds.median : 0.0;
      solver_table.AddRow(
          {"kkt_solver", catalog, "scan", StrFormat("%zu", n),
           StrFormat("%zu", threads), FormatDouble(seconds.median, 3),
           StrFormat("%.2fx", speedup), identical ? "yes" : "NO",
           oracle_match ? "yes" : "NO"});
      rows.push_back(RowJson("kkt_solver", catalog, "scan", n, threads,
                             seconds, speedup, identical, oracle_match)
                         .str());
      gates.Check(identical,
                  StrFormat("%zu threads broke bit-identity on %s at n=%zu",
                            threads, catalog.c_str(), n));
      gates.Check(oracle_match,
                  StrFormat("scan != oracle allocation on %s at n=%zu "
                            "threads=%zu",
                            catalog.c_str(), n, threads));
      gates.CheckTiming(
          threads != 8 || hardware_threads < 8 || speedup >= 2.0,
          StrFormat("8-thread speedup %.2fx < 2x on %s at n=%zu on a "
                    "%zu-thread machine",
                    speedup, catalog.c_str(), n, hardware_threads));
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
      const bench::Spread seconds = bench::Repeat(bench::kRepeats, [&] {
        WallTimer timer;
        rows_solved =
            SolveByClasses(planner_solver, problem, &classes, &frequencies)
                .value();
        const double elapsed = timer.ElapsedSeconds();
        repeat_identical &= SameFrequencies(frequencies, warm);
        return elapsed;
      });
      std::vector<double> oracle;
      SolveByClasses(Solver(1, MultiplierSearch::kBisectionOracle), problem,
                     &classes, &oracle)
          .value();
      const bool oracle_match = SameFrequencies(frequencies, oracle);
      const double kkt_objective = scan_baseline.objective;
      const double objective_gap =
          (problem.Objective(frequencies) - kkt_objective) /
          std::fabs(kkt_objective);
      const double speedup =
          seconds.median > 0.0 ? baseline_seconds / seconds.median : 0.0;
      planner_table.AddRow(
          {catalog, StrFormat("%zu", n), StrFormat("%zu", rows_solved),
           FormatDouble(seconds.median, 4), StrFormat("%.1fx", speedup),
           StrFormat("%.2e", objective_gap), repeat_identical ? "yes" : "NO",
           oracle_match ? "yes" : "NO"});
      rows.push_back(RowJson("planner_exact", catalog, "scan", n,
                             hardware_threads, seconds, speedup,
                             repeat_identical, oracle_match)
                         .Num("rows_solved", rows_solved)
                         .Num("objective_gap", objective_gap)
                         .str());
      gates.Check(repeat_identical && oracle_match,
                  StrFormat("planner class solve not reproducible on %s at "
                            "n=%zu (repeat %s, oracle %s)",
                            catalog.c_str(), n, repeat_identical ? "ok" : "NO",
                            oracle_match ? "ok" : "NO"));
      gates.Check(objective_gap >= -1e-12,
                  StrFormat("planner objective %.3e relative below the "
                            "kkt_solver objective on %s at n=%zu",
                            -objective_gap, catalog.c_str(), n));
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
      SimulationResult result;
      const bench::Spread seconds = bench::TimeSeconds(bench::kRepeats, [&] {
        result = simulator.Run(allocation.frequencies).value();
      });
      const double median = seconds.median;
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
      rows.push_back(RowJson("simulator", "ideal", "-", n, threads, seconds,
                             speedup, identical, true)
                         .str());
      gates.Check(identical,
                  StrFormat("%zu simulator threads broke bit-identity at "
                            "n=%zu",
                            threads, n));
    }
  }
  std::printf("%s\n", solver_table.ToText().c_str());
  std::printf(
      "== Exact planner (class transform) ==\nSolveByClasses on "
      "the same instances, median of %d with one reused\nClassTransform; "
      "\"vs kkt 1t\" is the speedup over the 1-thread kkt_solver scan "
      "row.\n\n%s\n",
      bench::kRepeats, planner_table.ToText().c_str());
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

  const Status written = bench::WriteBenchJson(
      "BENCH_solver_scaling.json", "solver_scaling", bench::kRepeats,
      bench::JsonObject().Raw("rows", bench::JsonArray(rows)));
  return gates.ExitCode(written);
}
