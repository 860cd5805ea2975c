// Replan-latency bench — the DeltaReplanner's reason to exist, measured.
//
// A live catalog churns continuously; the question is what a period-boundary
// replan costs as a function of how much actually changed. This bench sweeps
// churn (0.01% .. 10% of the catalog per replan) against catalog size under
// two churn shapes:
//   * tail    — the batch halves the weights of already-unfunded elements
//               (cold items getting colder). The flip point provably cannot
//               move, so the replanner should stay on its kPinned path:
//               O(dirty) work, no probes, sub-millisecond state updates.
//   * uniform — the batch jitters weight and change rate of uniformly random
//               elements (+-5%). The flip moves, forcing kWarm (a few probes
//               from the cached flip) or kFull above the churn threshold.
// Every step also runs a cold scan solve of the identical updated problem
// and memcmp-compares the materialized allocation against it.
//
// Hard gates, enforced by exit code (quick mode is wired into ctest as
// bench_replan_smoke):
//   * byte_match: every (n, churn, pattern, step) cell must materialize the
//     cold solver's exact bytes — frequencies, multiplier, objective, and
//     bandwidth_used. Hardware-independent; always enforced.
//   * tail-churn latency: at churn <= 0.1% the pinned-path p50 state update
//     must come in under 1 ms. Timing gates are only meaningful with real
//     parallel hardware, so this one arms on machines with >= 4 hardware
//     threads and is skipped (with a note) on narrower ones.
// The replan time reported is the Replan() state update alone; materializing
// a full frequency vector is an O(N) write measured in its own column (a
// serving layer pays it per shard, not per replan — see docs/replanning.md).
// All rows land in BENCH_replan.json with hardware concurrency recorded.
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
#include "opt/delta_replan.h"
#include "opt/problem.h"
#include "opt/water_filling.h"

namespace {

using namespace freshen;

struct ReplanRow {
  size_t n = 0;
  double churn = 0.0;
  std::string pattern;  // "tail" | "uniform".
  size_t steps = 0;
  size_t pinned = 0, warm = 0, full = 0;  // Path counts over the steps.
  double p50_replan_s = 0.0;
  double p95_replan_s = 0.0;
  double p50_materialize_s = 0.0;
  double p50_cold_s = 0.0;
  double speedup_p50 = 0.0;  // cold p50 / replan p50.
  bool byte_match = true;
};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameAllocation(const Allocation& a, const Allocation& b) {
  if (a.frequencies.size() != b.frequencies.size()) return false;
  if (!a.frequencies.empty() &&
      std::memcmp(a.frequencies.data(), b.frequencies.data(),
                  a.frequencies.size() * sizeof(double)) != 0) {
    return false;
  }
  return SameBits(a.multiplier, b.multiplier) &&
         SameBits(a.objective, b.objective) &&
         SameBits(a.bandwidth_used, b.bandwidth_used);
}

// Same synthetic family as bench_solver_scaling: heavy-tailed weights,
// log-uniform change rates over 4 decades, bandwidth for half the catalog.
CoreProblem SyntheticProblem(size_t n) {
  std::mt19937_64 rng(0x5CA1AB1Eu + n);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  CoreProblem problem;
  problem.weights.resize(n);
  problem.change_rates.resize(n);
  problem.costs.assign(n, 1.0);
  for (size_t i = 0; i < n; ++i) {
    problem.weights[i] = 1.0 / std::pow(1.0 + u(rng) * 999.0, 0.8);
    problem.change_rates[i] = std::exp2(-6.0 + 12.0 * u(rng));
  }
  problem.bandwidth = 0.5 * static_cast<double>(n);
  return problem;
}

void WriteJson(const std::vector<ReplanRow>& rows, const char* path) {
  std::FILE* file = std::fopen(path, "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(file, "{\n  \"hardware_threads\": %zu,\n  \"rows\": [\n",
               par::HardwareThreads());
  for (size_t i = 0; i < rows.size(); ++i) {
    const ReplanRow& row = rows[i];
    std::fprintf(
        file,
        "    {\"n\": %zu, \"churn\": %g, \"pattern\": \"%s\", "
        "\"steps\": %zu, \"pinned\": %zu, \"warm\": %zu, \"full\": %zu, "
        "\"p50_replan_s\": %.9f, \"p95_replan_s\": %.9f, "
        "\"p50_materialize_s\": %.9f, \"p50_cold_s\": %.9f, "
        "\"speedup_p50\": %.2f, \"byte_match\": %s}%s\n",
        row.n, row.churn, row.pattern.c_str(), row.steps, row.pinned,
        row.warm, row.full, row.p50_replan_s, row.p95_replan_s,
        row.p50_materialize_s, row.p50_cold_s, row.speedup_p50,
        row.byte_match ? "true" : "false", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(file, "  ]\n}\n");
  std::printf("wrote %zu rows to %s\n", rows.size(), path);
}

}  // namespace

int main() {
  const bool quick = bench::QuickMode();
  const size_t hardware_threads = par::HardwareThreads();
  const std::vector<size_t> sizes =
      quick ? std::vector<size_t>{100000}
            : std::vector<size_t>{1000000, 10000000};
  const std::vector<double> churns = {0.0001, 0.001, 0.01, 0.1};

  std::printf("== Incremental replan latency vs churn ==\n");
  std::printf(
      "hardware threads: %zu; every step is memcmp-gated against a cold "
      "scan solve\nof the identical problem.\n\n",
      hardware_threads);

  TableWriter table({"N", "churn", "pattern", "paths (p/w/f)", "replan p50",
                     "replan p95", "materialize p50", "cold p50", "speedup",
                     "bytes"});
  std::vector<ReplanRow> rows;
  bool gate_failed = false;

  for (size_t n : sizes) {
    // Each step pays a full cold reference solve (~2.3 s/M single-threaded),
    // so the step budget shrinks with N to keep the full run bounded.
    const size_t steps = quick ? 5 : (n >= 10000000 ? 3 : 11);
    const CoreProblem base = SyntheticProblem(n);

    // Unfunded elements (active but zero frequency in the cold plan): the
    // tail-churn batches draw from these, so the flip provably stays put.
    std::vector<size_t> unfunded;
    {
      KktWaterFillingSolver::Options options;
      options.threads = hardware_threads;
      const Allocation cold =
          KktWaterFillingSolver(options).Solve(base).value();
      for (size_t i = 0; i < n; ++i) {
        if (cold.frequencies[i] == 0.0 && base.weights[i] > 0.0 &&
            base.change_rates[i] > 0.0) {
          unfunded.push_back(i);
        }
      }
    }

    for (const char* pattern : {"tail", "uniform"}) {
      const bool tail = std::strcmp(pattern, "tail") == 0;
      for (double churn : churns) {
        const size_t dirty = std::max<size_t>(
            1, static_cast<size_t>(churn * static_cast<double>(n)));
        if (tail && dirty > unfunded.size()) continue;  // Not enough tail.

        DeltaReplanner::Options options;
        options.threads = hardware_threads;
        auto replanner = DeltaReplanner::Create(base, options).value();
        CoreProblem mirror = base;  // Cold solver's copy of the problem.
        KktWaterFillingSolver::Options cold_options;
        cold_options.threads = hardware_threads;
        const KktWaterFillingSolver cold_solver(cold_options);

        std::mt19937_64 rng(0xC0FFEEu ^ n ^ dirty ^ (tail ? 1 : 0));
        std::uniform_real_distribution<double> u(-0.05, 0.05);
        ReplanRow row;
        row.n = n;
        row.churn = churn;
        row.pattern = pattern;
        row.steps = steps;
        std::vector<double> replan_s, materialize_s, cold_s;

        for (size_t step = 0; step < steps; ++step) {
          std::vector<ElementUpdate> updates;
          updates.reserve(dirty);
          if (tail) {
            // Halve the weight of `dirty` unfunded elements (rotating
            // through the pool so batches differ step to step).
            for (size_t j = 0; j < dirty; ++j) {
              const size_t i = unfunded[(step * dirty + j) % unfunded.size()];
              updates.push_back({i, mirror.weights[i] * 0.5,
                                 mirror.change_rates[i], mirror.costs[i]});
            }
          } else {
            for (size_t j = 0; j < dirty; ++j) {
              const size_t i = rng() % n;
              updates.push_back(
                  {i, mirror.weights[i] * std::exp(u(rng)),
                   mirror.change_rates[i] * std::exp(u(rng)),
                   mirror.costs[i]});
            }
          }
          WallTimer timer;
          const DeltaReplanner::ReplanResult result =
              replanner->Replan(updates).value();
          replan_s.push_back(timer.ElapsedSeconds());
          switch (result.path) {
            case ReplanPath::kPinned: ++row.pinned; break;
            case ReplanPath::kWarm: ++row.warm; break;
            case ReplanPath::kFull: ++row.full; break;
          }

          WallTimer mat_timer;
          const Allocation materialized = replanner->MaterializeAllocation();
          materialize_s.push_back(mat_timer.ElapsedSeconds());

          // Cold reference on the identical problem (last write wins, same
          // as the replanner's batch semantics).
          for (const ElementUpdate& update : updates) {
            mirror.weights[update.index] = update.weight;
            mirror.change_rates[update.index] = update.change_rate;
            mirror.costs[update.index] = update.cost;
          }
          WallTimer cold_timer;
          const Allocation reference = cold_solver.Solve(mirror).value();
          cold_s.push_back(cold_timer.ElapsedSeconds());
          if (!SameAllocation(materialized, reference)) {
            std::fprintf(stderr,
                         "FAIL: delta != cold bytes at n=%zu churn=%g "
                         "pattern=%s step=%zu\n",
                         n, churn, pattern, step);
            row.byte_match = false;
            gate_failed = true;
          }
        }

        row.p50_replan_s = bench::Percentile(replan_s, 0.50);
        row.p95_replan_s = bench::Percentile(replan_s, 0.95);
        row.p50_materialize_s = bench::Percentile(materialize_s, 0.50);
        row.p50_cold_s = bench::Percentile(cold_s, 0.50);
        row.speedup_p50 = row.p50_replan_s > 0.0
                              ? row.p50_cold_s / row.p50_replan_s
                              : 0.0;
        if (tail && churn <= 0.001 && hardware_threads >= 4 &&
            row.p50_replan_s >= 1e-3) {
          std::fprintf(stderr,
                       "FAIL: tail-churn p50 %.3f ms >= 1 ms at n=%zu "
                       "churn=%g on a %zu-thread machine\n",
                       row.p50_replan_s * 1e3, n, churn, hardware_threads);
          gate_failed = true;
        }
        table.AddRow({StrFormat("%zu", n), StrFormat("%g", churn), pattern,
                      StrFormat("%zu/%zu/%zu", row.pinned, row.warm,
                                row.full),
                      StrFormat("%.3f ms", row.p50_replan_s * 1e3),
                      StrFormat("%.3f ms", row.p95_replan_s * 1e3),
                      StrFormat("%.3f ms", row.p50_materialize_s * 1e3),
                      StrFormat("%.3f ms", row.p50_cold_s * 1e3),
                      StrFormat("%.0fx", row.speedup_p50),
                      row.byte_match ? "yes" : "NO"});
        rows.push_back(row);
      }
    }
  }

  std::printf("%s\n", table.ToText().c_str());
  if (hardware_threads >= 4) {
    std::printf(
        "reading: tail churn stays pinned (no probes, O(dirty) work) and is "
        "gated\nsub-millisecond at <= 0.1%% churn; uniform churn moves the "
        "flip and pays the\nO(active) warm re-derivation. The bytes column "
        "is the contract: the delta\npath is an optimization, never a "
        "different answer.\n");
  } else {
    std::printf(
        "reading: this machine exposes %zu hardware thread(s), so the "
        "sub-millisecond\ntail-churn gate is skipped (it arms at >= 4 "
        "threads); latencies here measure a\nsingle oversubscribed core. "
        "The bytes column is hardware-independent and\nstill gates.\n",
        hardware_threads);
  }
  WriteJson(rows, "BENCH_replan.json");
  return gate_failed ? 1 : 0;
}
