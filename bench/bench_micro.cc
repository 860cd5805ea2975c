// A6 — google-benchmark microbenchmarks for the hot paths: the freshness
// closed forms, the marginal-inverse kernel, the exact solver, partitioning,
// the class transform's grouping, k-means iterations, alias-table sampling,
// the serving snapshot's consistency check and lookup, and three set-up
// steps over every element: the catalog's CRC, the catalog load and
// building the simulated world.
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/macros.h"
#include "common/plan_classes.h"
#include "io/catalog_binary.h"
#include "mirror/simulated_world.h"
#include "model/freshness.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "opt/problem.h"
#include "opt/water_filling.h"
#include "partition/kmeans.h"
#include "partition/partitioner.h"
#include "partition/transformed.h"
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

// One replan's grouping: ClassTransform::Build over N = state.range(0)
// rows, each derived in the callback as the controller derives it (a
// weight from a count, a rate through a log, unit cost). With
// state.range(1) = 0 every third row repeats one of 16 rows and the rest
// are distinct, so the transform turns into the identity grouping after
// ~3,700 of 10k rows (the loop_events shape); otherwise the rows fall into
// state.range(1) classes in runs of 16.
void BM_ClassTransformBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto classes = static_cast<uint64_t>(state.range(1));
  std::vector<uint32_t> key(n);
  Rng rng(13);
  for (size_t i = 0; i < n; ++i) {
    if (classes == 0) {
      key[i] = static_cast<uint32_t>(i % 3 == 0 ? i % 16 : 16 + i);
    } else if (i % 16 == 0) {
      key[i] = static_cast<uint32_t>(rng.NextUint64Below(classes));
    } else {
      key[i] = key[i - 1];
    }
  }
  const double inv = 1.0 / static_cast<double>(n);
  ClassTransform transform;
  for (auto _ : state) {
    const Status status =
        transform.Build(n, 0.1 * static_cast<double>(n), [&](size_t i) {
          const double k = static_cast<double>(key[i]);
          return CoreRow{(k + 1.0) * inv, std::log(2.0 + k) / 3.0, 1.0};
        });
    benchmark::DoNotOptimize(status.ok());
    benchmark::DoNotOptimize(transform.problem().weights.data());
    benchmark::ClobberMemory();
  }
  state.counters["classes"] =
      static_cast<double>(transform.problem().size());
}
BENCHMARK(BM_ClassTransformBuild)
    ->Args({10000, 0})
    ->Args({500000, 256})
    ->Unit(benchmark::kMicrosecond);

// A published snapshot over N = state.range(0) elements whose plan has
// state.range(1) classes (0: one class per element), every class holding
// a distinct (frequency, change rate) pair.
std::shared_ptr<const serve::ServeSnapshot> BenchSnapshot(size_t n,
                                                          size_t classes) {
  std::vector<double> column(n);
  for (size_t i = 0; i < n; ++i) column[i] = 1.0 / (1.0 + i);
  serve::SnapshotBuilder builder(
      std::make_shared<const std::vector<double>>(column));
  if (classes == 0) {
    const IdentityClasses plan(column, column);
    FRESHEN_CHECK(builder.SetPlan(plan.view()).ok());
  } else {
    std::vector<uint32_t> class_of(n);
    std::vector<double> class_values(classes);
    for (size_t j = 0; j < classes; ++j) class_values[j] = 1.0 / (1.0 + j);
    Rng rng(7);
    for (uint32_t& c : class_of) {
      c = static_cast<uint32_t>(rng.NextUint64Below(classes));
    }
    FRESHEN_CHECK(
        builder.SetPlan(PlanClassView{class_of, class_values, class_values})
            .ok());
  }
  return builder.Publish(1, 0, 0.0, column).value();
}

// The full-digest consistency check a torture reader runs: every shard
// digest over the last-sync times, the plan table's digest over the class
// ids and class columns, the shared size column's digest, and their
// combination. One class per element: the class columns are as long as
// the catalog.
void BM_SnapshotCheckConsistent(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto snapshot = BenchSnapshot(n, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(snapshot->CheckConsistent());
  }
  state.SetBytesProcessed(state.iterations() * n *
                          (4 * sizeof(double) + sizeof(uint32_t)));
}
BENCHMARK(BM_SnapshotCheckConsistent)
    ->Arg(500000)
    ->Unit(benchmark::kMillisecond);

// What a query reads from a pinned snapshot: one ElementView per lookup,
// at uniformly drawn elements, for a plan of 256 classes and for one with
// a class per element (every (frequency, rate) pair distinct).
void BM_SnapshotLookup(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto snapshot = BenchSnapshot(n, static_cast<size_t>(state.range(1)));
  constexpr size_t kKeys = 4096;
  std::vector<size_t> keys(kKeys);
  Rng rng(11);
  for (size_t& key : keys) key = rng.NextUint64Below(n);
  size_t k = 0;
  for (auto _ : state) {
    const serve::ElementView view = snapshot->Lookup(keys[k]);
    benchmark::DoNotOptimize(view);
    k = (k + 1) % kKeys;
  }
}
BENCHMARK(BM_SnapshotLookup)->Args({500000, 256})->Args({500000, 0});

// The check a catalog load runs over each section: one CRC-32 of a 4 MB
// column (N = 500k doubles, the loop_replan shape).
void BM_Crc32(benchmark::State& state) {
  const ElementSet catalog = BenchCatalog(500000);
  const std::vector<double> column = ChangeRates(catalog);
  const size_t bytes = column.size() * sizeof(double);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(column.data(), bytes));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
}
BENCHMARK(BM_Crc32)->Unit(benchmark::kMicrosecond);

// A catalog load as a daemon's set-up runs it: LoadCatalogBinary over the
// 12 MB FRSHCAT1 file of N = 500k elements (the loop_replan shape), every
// check included. The file is written and loaded once before timing, so
// the page cache is warm.
void BM_LoadCatalogBinary(benchmark::State& state) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("freshen_bench_micro_" + std::to_string(::getpid()) + ".fcat"))
          .string();
  const ElementSet catalog = BenchCatalog(500000);
  FRESHEN_CHECK(SaveCatalogBinary(catalog, path).ok());
  FRESHEN_CHECK(LoadCatalogBinary(path).ok());
  for (auto _ : state) {
    benchmark::DoNotOptimize(LoadCatalogBinary(path).value());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(CatalogToBinary({}).size() +
                                               3 * catalog.size() *
                                                   sizeof(double)));
  std::remove(path.c_str());
}
BENCHMARK(BM_LoadCatalogBinary)->Unit(benchmark::kMillisecond);

// The world over N = 500k elements as a loop's set-up builds it: the rate
// check, the alias table over the access profile, and one root draw per
// element (each first update waits for its first read). The catalog copy
// the world takes is made outside the timed region.
void BM_SimulatedWorldCreate(benchmark::State& state) {
  const ElementSet catalog = BenchCatalog(500000);
  for (auto _ : state) {
    state.PauseTiming();
    ElementSet truth = catalog;
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        SimulatedWorld::Create(std::move(truth), 100.0, 7).value());
  }
}
BENCHMARK(BM_SimulatedWorldCreate)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace freshen

BENCHMARK_MAIN();
