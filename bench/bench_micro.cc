// A6 — google-benchmark microbenchmarks for the hot paths: the freshness
// closed forms, the marginal-inverse kernel, the exact solver, partitioning,
// k-means iterations, and alias-table sampling.
#include <benchmark/benchmark.h>

#include "model/freshness.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "opt/problem.h"
#include "opt/water_filling.h"
#include "partition/kmeans.h"
#include "partition/partitioner.h"
#include "rng/alias_table.h"
#include "rng/rng.h"
#include "rng/zipf.h"
#include "serve/snapshot.h"
#include "workload/generator.h"
#include "workload/spec.h"

namespace freshen {
namespace {

ElementSet BenchCatalog(size_t n) {
  ExperimentSpec spec = ExperimentSpec::IdealCase();
  spec.num_objects = n;
  spec.syncs_per_period = 0.5 * static_cast<double>(n);
  spec.alignment = Alignment::kShuffled;
  return GenerateCatalog(spec).value();
}

void BM_FixedOrderFreshness(benchmark::State& state) {
  double f = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(FixedOrderFreshness(f, 2.0));
    f += 1e-9;
  }
}
BENCHMARK(BM_FixedOrderFreshness);

void BM_InverseMarginalGainG(benchmark::State& state) {
  double y = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(InverseMarginalGainG(y));
    y = y < 0.9 ? y + 1e-7 : 0.1;
  }
}
BENCHMARK(BM_InverseMarginalGainG);

void BM_WaterFillingSolve(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const ElementSet elements = BenchCatalog(n);
  const CoreProblem problem =
      MakePerceivedProblem(elements, 0.5 * static_cast<double>(n), false);
  KktWaterFillingSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(problem).value().objective);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_WaterFillingSolve)->Arg(100)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_BuildPartitions(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const ElementSet elements = BenchCatalog(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BuildPartitions(elements, PartitionKey::kPerceivedFreshness, 100)
            .value()
            .size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_BuildPartitions)->Arg(10000)->Arg(100000);

void BM_KMeansIteration(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const ElementSet elements = BenchCatalog(n);
  const auto initial =
      BuildPartitions(elements, PartitionKey::kPerceivedFreshness, 100)
          .value();
  KMeansRefiner refiner(elements, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(refiner.Refine(initial, 1).value().size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n) * 100);
}
BENCHMARK(BM_KMeansIteration)->Arg(10000)->Arg(100000);

// Metrics hot-path overhead: these guard the "instrumentation is cheap and
// a disabled registry is ~zero-cost" property every instrumented subsystem
// relies on.
void BM_MetricsCounterAdd(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("bench_counter");
  for (auto _ : state) {
    counter->Increment();
  }
  benchmark::DoNotOptimize(counter->value());
}
BENCHMARK(BM_MetricsCounterAdd);

void BM_MetricsCounterAddDisabled(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("bench_counter");
  registry.set_enabled(false);
  for (auto _ : state) {
    counter->Increment();
  }
  benchmark::DoNotOptimize(counter->value());
}
BENCHMARK(BM_MetricsCounterAddDisabled);

void BM_MetricsGaugeSet(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Gauge* gauge = registry.GetGauge("bench_gauge");
  double v = 0.0;
  for (auto _ : state) {
    gauge->Set(v);
    v += 1.0;
  }
  benchmark::DoNotOptimize(gauge->value());
}
BENCHMARK(BM_MetricsGaugeSet);

void BM_MetricsHistogramRecord(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Histogram* histogram =
      registry.GetHistogram("bench_histogram", obs::LatencySecondsBuckets());
  double v = 1e-7;
  for (auto _ : state) {
    histogram->Record(v);
    v = v < 1.0 ? v * 1.7 : 1e-7;
  }
  benchmark::DoNotOptimize(histogram->count());
}
BENCHMARK(BM_MetricsHistogramRecord);

void BM_MetricsScopedSpan(benchmark::State& state) {
  obs::MetricsRegistry registry;
  for (auto _ : state) {
    obs::ScopedSpan span("bench_span", registry);
    benchmark::DoNotOptimize(span.path().size());
  }
}
BENCHMARK(BM_MetricsScopedSpan);

void BM_AliasTableSample(benchmark::State& state) {
  const auto probs = ZipfProbabilities(500000, 1.0);
  AliasTable table(probs);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Sample(rng));
  }
}
BENCHMARK(BM_AliasTableSample);

void BM_ZipfProbabilities(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ZipfProbabilities(n, 1.0).size());
  }
}
BENCHMARK(BM_ZipfProbabilities)->Arg(10000)->Arg(500000);

// The full-digest consistency check a torture reader runs: every shard
// digest over the three sharded serving columns, the shared size column's
// digest, and their combination.
void BM_SnapshotCheckConsistent(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> column(n);
  for (size_t i = 0; i < n; ++i) column[i] = 1.0 / (1.0 + i);
  serve::SnapshotBuilder builder(
      std::make_shared<const std::vector<double>>(column));
  builder.MarkAllDirty();
  const auto snapshot =
      builder.Publish(1, 0, 0.0, column, column, column).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(snapshot->CheckConsistent());
  }
  state.SetBytesProcessed(state.iterations() * 4 * n * sizeof(double));
}
BENCHMARK(BM_SnapshotCheckConsistent)
    ->Arg(500000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace freshen

BENCHMARK_MAIN();
