// Tests for the freshen::obs subsystem: registry semantics, concurrent
// updates, span nesting, exporter golden output, and the end-to-end
// "OnlineFreshenLoop run exports everything operators need" guarantee.
#include <atomic>
#include <cstdlib>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "mirror/online_loop.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/generator.h"

namespace freshen {
namespace {

using obs::Labels;
using obs::MetricsRegistry;

TEST(MetricsRegistryTest, SameSeriesReturnsSamePointer) {
  MetricsRegistry registry;
  obs::Counter* a = registry.GetCounter("freshen_test_total");
  obs::Counter* b = registry.GetCounter("freshen_test_total");
  EXPECT_EQ(a, b);
  EXPECT_EQ(registry.size(), 1u);

  // Different labels are a different series; label order is irrelevant.
  obs::Counter* labelled = registry.GetCounter(
      "freshen_test_total", {{"a", "1"}, {"b", "2"}});
  EXPECT_NE(labelled, a);
  EXPECT_EQ(labelled, registry.GetCounter("freshen_test_total",
                                          {{"b", "2"}, {"a", "1"}}));
  EXPECT_EQ(registry.size(), 2u);
}

TEST(MetricsRegistryTest, CounterGaugeSemantics) {
  MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("c");
  counter->Increment();
  counter->Add(2.5);
  EXPECT_DOUBLE_EQ(counter->value(), 3.5);

  obs::Gauge* gauge = registry.GetGauge("g");
  gauge->Set(7.0);
  gauge->Set(-1.0);
  EXPECT_DOUBLE_EQ(gauge->value(), -1.0);
}

TEST(MetricsRegistryTest, HistogramBucketsAreInclusiveUpperEdges) {
  MetricsRegistry registry;
  obs::Histogram* histogram = registry.GetHistogram("h", {1.0, 2.0});
  histogram->Record(0.5);   // <= 1 -> bucket 0.
  histogram->Record(1.0);   // == edge -> bucket 0 (inclusive).
  histogram->Record(1.5);   // bucket 1.
  histogram->Record(99.0);  // overflow bucket.
  const std::vector<uint64_t> counts = histogram->BucketCounts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(histogram->count(), 4u);
  EXPECT_DOUBLE_EQ(histogram->sum(), 102.0);
}

TEST(MetricsRegistryTest, BucketHelpers) {
  const std::vector<double> exp = obs::ExponentialBuckets(1.0, 2.0, 4);
  EXPECT_EQ(exp, (std::vector<double>{1.0, 2.0, 4.0, 8.0}));
  const std::vector<double> lin = obs::LinearBuckets(0.0, 5.0, 3);
  EXPECT_EQ(lin, (std::vector<double>{0.0, 5.0, 10.0}));
  EXPECT_TRUE(std::is_sorted(obs::LatencySecondsBuckets().begin(),
                             obs::LatencySecondsBuckets().end()));
  EXPECT_TRUE(std::is_sorted(obs::IterationCountBuckets().begin(),
                             obs::IterationCountBuckets().end()));
}

TEST(MetricsRegistryTest, ConcurrentIncrementsSumExactly) {
  MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("c");
  obs::Histogram* histogram =
      registry.GetHistogram("h", obs::LinearBuckets(0.0, 1.0, 8));
  constexpr int kThreads = 8;
  constexpr int kIncrements = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIncrements; ++i) {
        counter->Increment();
        histogram->Record(static_cast<double>(t % 4));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_DOUBLE_EQ(counter->value(),
                   static_cast<double>(kThreads) * kIncrements);
  EXPECT_EQ(histogram->count(),
            static_cast<uint64_t>(kThreads) * kIncrements);
  uint64_t bucket_total = 0;
  for (uint64_t c : histogram->BucketCounts()) bucket_total += c;
  EXPECT_EQ(bucket_total, histogram->count());
}

TEST(MetricsRegistryTest, DisabledRegistryDropsUpdatesAndResetKeepsHandles) {
  MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("c");
  obs::Gauge* gauge = registry.GetGauge("g");
  obs::Histogram* histogram = registry.GetHistogram("h", {1.0});

  registry.set_enabled(false);
  counter->Increment();
  gauge->Set(3.0);
  histogram->Record(0.5);
  EXPECT_DOUBLE_EQ(counter->value(), 0.0);
  EXPECT_DOUBLE_EQ(gauge->value(), 0.0);
  EXPECT_EQ(histogram->count(), 0u);

  registry.set_enabled(true);
  counter->Add(5.0);
  EXPECT_DOUBLE_EQ(counter->value(), 5.0);
  registry.Reset();
  // Cached handles stay valid and usable after Reset.
  EXPECT_DOUBLE_EQ(counter->value(), 0.0);
  counter->Increment();
  EXPECT_DOUBLE_EQ(counter->value(), 1.0);
}

TEST(MetricsRegistryTest, SnapshotFind) {
  MetricsRegistry registry;
  registry.GetCounter("a", {{"k", "v"}})->Add(2.0);
  registry.GetGauge("b")->Set(1.0);
  const obs::RegistrySnapshot snapshot = registry.Snapshot();
  ASSERT_NE(snapshot.Find("a"), nullptr);
  EXPECT_EQ(snapshot.Find("a")->kind, obs::MetricKind::kCounter);
  ASSERT_NE(snapshot.Find("a", {{"k", "v"}}), nullptr);
  EXPECT_EQ(snapshot.Find("a", {{"k", "other"}}), nullptr);
  EXPECT_EQ(snapshot.Find("missing"), nullptr);
}

TEST(ScopedSpanTest, NestedSpansBuildHierarchicalPaths) {
  MetricsRegistry registry;
  EXPECT_EQ(obs::CurrentSpanPath(), "");
  {
    obs::ScopedSpan outer("replan", registry);
    EXPECT_EQ(outer.path(), "replan");
    EXPECT_EQ(obs::CurrentSpanPath(), "replan");
    {
      obs::ScopedSpan middle("solve", registry);
      EXPECT_EQ(middle.path(), "replan/solve");
      obs::ScopedSpan inner("kkt_verify", registry);
      EXPECT_EQ(inner.path(), "replan/solve/kkt_verify");
      EXPECT_EQ(obs::CurrentSpanPath(), "replan/solve/kkt_verify");
    }
    EXPECT_EQ(obs::CurrentSpanPath(), "replan");
  }
  EXPECT_EQ(obs::CurrentSpanPath(), "");

  // Every close recorded one observation under its full path.
  const obs::RegistrySnapshot snapshot = registry.Snapshot();
  for (const char* path : {"replan", "replan/solve",
                           "replan/solve/kkt_verify"}) {
    const obs::MetricSample* sample =
        snapshot.Find(obs::kSpanHistogramName, {{"span", path}});
    ASSERT_NE(sample, nullptr) << path;
    EXPECT_EQ(sample->count, 1u) << path;
  }
}

TEST(ScopedSpanTest, SpanStacksArePerThread) {
  MetricsRegistry registry;
  obs::ScopedSpan outer("main_thread", registry);
  std::string other_thread_path;
  std::thread worker([&] {
    obs::ScopedSpan span("worker", registry);
    other_thread_path = span.path();
  });
  worker.join();
  // The worker's span did not nest under this thread's open span.
  EXPECT_EQ(other_thread_path, "worker");
}

// A small fixed registry whose export output is compared byte-for-byte.
MetricsRegistry& GoldenRegistry() {
  static MetricsRegistry* const registry = [] {
    auto* r = new MetricsRegistry();
    r->GetHistogram("freshen_test_latency", {1.0, 2.0});
    r->GetHistogram("freshen_test_latency", {1.0, 2.0})->Record(0.5);
    r->GetHistogram("freshen_test_latency", {1.0, 2.0})->Record(1.5);
    r->GetHistogram("freshen_test_latency", {1.0, 2.0})->Record(5.0);
    r->GetCounter("freshen_test_requests_total", {{"kind", "unit"}})
        ->Add(3.0);
    r->GetGauge("freshen_test_temperature")->Set(1.5);
    return r;
  }();
  return *registry;
}

TEST(ExportTest, JsonGolden) {
  const std::string expected = R"({"metrics":[
  {"name":"freshen_test_latency","type":"histogram","labels":{},"count":3,"sum":7,"buckets":[{"le":"1","count":1},{"le":"2","count":2},{"le":"+Inf","count":3}]},
  {"name":"freshen_test_requests_total","type":"counter","labels":{"kind":"unit"},"value":3},
  {"name":"freshen_test_temperature","type":"gauge","labels":{},"value":1.5}
]}
)";
  EXPECT_EQ(obs::FormatJson(GoldenRegistry().Snapshot()), expected);
}

TEST(ExportTest, PrometheusGolden) {
  const std::string expected =
      "# TYPE freshen_test_latency histogram\n"
      "freshen_test_latency_bucket{le=\"1\"} 1\n"
      "freshen_test_latency_bucket{le=\"2\"} 2\n"
      "freshen_test_latency_bucket{le=\"+Inf\"} 3\n"
      "freshen_test_latency_sum 7\n"
      "freshen_test_latency_count 3\n"
      "# TYPE freshen_test_requests_total counter\n"
      "freshen_test_requests_total{kind=\"unit\"} 3\n"
      "# TYPE freshen_test_temperature gauge\n"
      "freshen_test_temperature 1.5\n";
  EXPECT_EQ(obs::FormatPrometheus(GoldenRegistry().Snapshot()), expected);
}

// Prometheus exposition conformance for histograms: buckets are cumulative
// and non-decreasing, and the +Inf bucket equals the series' _count — the
// invariant scrape pipelines (and recording rules computing quantiles)
// assume. Known-answer over the golden registry's text output.
TEST(ExportTest, PrometheusHistogramBucketsConformToExposition) {
  const std::string text =
      obs::FormatPrometheus(GoldenRegistry().Snapshot());
  std::istringstream lines(text);
  std::string line;
  uint64_t last_cumulative = 0;
  uint64_t inf_bucket = 0;
  uint64_t count_value = 0;
  bool saw_inf = false;
  bool saw_count = false;
  while (std::getline(lines, line)) {
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    const uint64_t value = std::strtoull(line.c_str() + space + 1,
                                         nullptr, 10);
    if (line.rfind("freshen_test_latency_bucket", 0) == 0) {
      EXPECT_GE(value, last_cumulative) << "buckets must be cumulative";
      last_cumulative = value;
      if (line.find("le=\"+Inf\"") != std::string::npos) {
        inf_bucket = value;
        saw_inf = true;
      }
    } else if (line.rfind("freshen_test_latency_count", 0) == 0) {
      count_value = value;
      saw_count = true;
    }
  }
  ASSERT_TRUE(saw_inf);
  ASSERT_TRUE(saw_count);
  EXPECT_EQ(inf_bucket, count_value);
}

// The same invariant under a write race: Record() bumps buckets, then the
// count, then the sum, so a snapshot taken mid-record could once report
// _count > the +Inf bucket. Snapshot() now derives the count from the
// copied buckets; hammer it concurrently and verify every sample agrees.
TEST(MetricsRegistryTest, SnapshotHistogramCountMatchesBucketsUnderRace) {
  MetricsRegistry registry;
  obs::Histogram* histogram =
      registry.GetHistogram("h", obs::LinearBuckets(0.0, 1.0, 4));
  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      uint64_t i = 0;
      while (!done.load(std::memory_order_acquire)) {
        histogram->Record(static_cast<double>((i++ + t) % 6));
      }
    });
  }
  for (int round = 0; round < 2000; ++round) {
    const obs::RegistrySnapshot snapshot = registry.Snapshot();
    const obs::MetricSample* sample = snapshot.Find("h");
    ASSERT_NE(sample, nullptr);
    uint64_t bucket_total = 0;
    for (uint64_t c : sample->bucket_counts) bucket_total += c;
    EXPECT_EQ(sample->count, bucket_total)
        << "+Inf bucket must equal _count in every snapshot";
  }
  done.store(true, std::memory_order_release);
  for (std::thread& writer : writers) writer.join();
}

TEST(ExportTest, CsvGolden) {
  const std::string expected =
      "metric,labels,type,value,count,sum\n"
      "freshen_test_latency,,histogram,,3,7\n"
      "freshen_test_requests_total,kind=unit,counter,3,,\n"
      "freshen_test_temperature,,gauge,1.5,,\n";
  EXPECT_EQ(obs::FormatCsv(GoldenRegistry().Snapshot()), expected);
}

// Acceptance: one full OnlineFreshenLoop run must export, at minimum, the
// replan count + latency histogram, a solver iteration histogram, the
// sync/access counters, the bandwidth-spent counter, and the estimator
// lambda-error gauge.
TEST(ObsIntegrationTest, OnlineLoopRunExportsOperationalMetrics) {
  MetricsRegistry::Global().Reset();
  ExperimentSpec spec = ExperimentSpec::IdealCase();
  spec.num_objects = 60;
  spec.syncs_per_period = 30.0;
  const ElementSet truth = GenerateCatalog(spec).value();
  OnlineFreshenLoop::Options options;
  options.accesses_per_period = 1000.0;
  options.controller.prior_change_rate = 2.0;
  options.seed = 4;
  auto loop = OnlineFreshenLoop::Create(truth, 30.0, options).value();
  for (int period = 0; period < 3; ++period) loop.RunPeriod();

  const obs::RegistrySnapshot snapshot = loop.registry().Snapshot();
  const obs::MetricSample* replans =
      snapshot.Find("freshen_adaptive_replans_total");
  ASSERT_NE(replans, nullptr);
  EXPECT_GE(replans->value, 3.0);  // Initial plan + one per period.

  const obs::MetricSample* replan_latency =
      snapshot.Find("freshen_adaptive_replan_seconds");
  ASSERT_NE(replan_latency, nullptr);
  EXPECT_EQ(replan_latency->kind, obs::MetricKind::kHistogram);
  EXPECT_GE(replan_latency->count, 3u);

  const obs::MetricSample* solver_iterations = snapshot.Find(
      "freshen_solver_iterations", {{"solver", "water_filling"}});
  ASSERT_NE(solver_iterations, nullptr);
  EXPECT_EQ(solver_iterations->kind, obs::MetricKind::kHistogram);
  EXPECT_GE(solver_iterations->count, 3u);
  EXPECT_GT(solver_iterations->sum, 0.0);

  const obs::MetricSample* syncs =
      snapshot.Find("freshen_mirror_syncs_total");
  ASSERT_NE(syncs, nullptr);
  EXPECT_GT(syncs->value, 0.0);
  const obs::MetricSample* accesses =
      snapshot.Find("freshen_mirror_accesses_total");
  ASSERT_NE(accesses, nullptr);
  EXPECT_GT(accesses->value, 0.0);
  const obs::MetricSample* bandwidth =
      snapshot.Find("freshen_mirror_bandwidth_spent_total");
  ASSERT_NE(bandwidth, nullptr);
  EXPECT_GT(bandwidth->value, 0.0);
  const obs::MetricSample* lambda_error =
      snapshot.Find("freshen_mirror_lambda_error");
  ASSERT_NE(lambda_error, nullptr);
  EXPECT_GT(lambda_error->value, 0.0);

  // The span hierarchy is visible in the export: the initial plan solved
  // outside any period ("replan/solve"), while every boundary replan nested
  // under the running period ("period/replan/solve").
  const obs::MetricSample* initial_solve =
      snapshot.Find(obs::kSpanHistogramName, {{"span", "replan/solve"}});
  ASSERT_NE(initial_solve, nullptr);
  EXPECT_EQ(initial_solve->count, 1u);
  const obs::MetricSample* period_solve = snapshot.Find(
      obs::kSpanHistogramName, {{"span", "period/replan/solve"}});
  ASSERT_NE(period_solve, nullptr);
  EXPECT_GE(period_solve->count, 3u);

  // And all of it serializes in every wire format without dying.
  EXPECT_FALSE(obs::FormatJson(snapshot).empty());
  EXPECT_FALSE(obs::FormatPrometheus(snapshot).empty());
  EXPECT_FALSE(obs::FormatCsv(snapshot).empty());
}

// Regression: label values containing the k=v list's own separators (commas,
// quotes, equals) used to corrupt the CSV labels column. They must now be
// quoted/escaped, and TableWriter must still parse the whole row as one cell
// per column.
TEST(ExportTest, CsvLabelsSurviveSeparatorsInValues) {
  EXPECT_EQ(obs::CsvLabelEscape("plain"), "plain");
  EXPECT_EQ(obs::CsvLabelEscape("a,b"), "\"a,b\"");
  EXPECT_EQ(obs::CsvLabelEscape("say \"hi\""), "\"say \\\"hi\\\"\"");
  EXPECT_EQ(obs::CsvLabelEscape("k=v"), "\"k=v\"");
  EXPECT_EQ(obs::CsvLabelEscape("back\\slash"), "\"back\\\\slash\"");

  MetricsRegistry registry;
  registry.GetCounter("freshen_escape_total",
                      {{"source", "mirror,eu-west\"1\""}})
      ->Increment();
  const std::string csv = obs::FormatCsv(registry.Snapshot());
  // The labels cell is itself RFC-4180 quoted by TableWriter (it contains a
  // comma and quotes); after unquoting it must read as one k=v pair whose
  // value is the escaped original.
  EXPECT_NE(csv.find("source=\"\"mirror,eu-west\\\"\"1\\\"\"\"\""),
            std::string::npos)
      << csv;
  // The data row must still have exactly 6 columns: the embedded comma sits
  // inside a quoted cell, so exactly one extra comma shows up relative to a
  // plain-label row.
  const size_t header_end = csv.find('\n');
  ASSERT_NE(header_end, std::string::npos);
  const std::string row = csv.substr(header_end + 1);
  size_t commas = 0;
  bool in_quotes = false;
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i] == '"') in_quotes = !in_quotes;
    if (row[i] == ',' && !in_quotes) ++commas;
  }
  EXPECT_EQ(commas, 5u) << row;
}

// Un-escapes a Prometheus label value per the exposition format (the only
// escapes are \\, \", and \n).
std::string PromUnescapeLabelValue(const std::string& value) {
  std::string out;
  for (size_t i = 0; i < value.size(); ++i) {
    if (value[i] == '\\' && i + 1 < value.size()) {
      const char next = value[i + 1];
      if (next == '\\') {
        out += '\\';
        ++i;
        continue;
      }
      if (next == '"') {
        out += '"';
        ++i;
        continue;
      }
      if (next == 'n') {
        out += '\n';
        ++i;
        continue;
      }
    }
    out += value[i];
  }
  return out;
}

TEST(ExportTest, PromLabelEscapeRoundTrips) {
  const std::string cases[] = {
      "plain",
      "back\\slash",
      "say \"hi\"",
      "two\nlines",
      "tab\tand\rcr stay raw",
      "all: \\ \" \n together",
  };
  for (const std::string& original : cases) {
    const std::string escaped = obs::PromEscapeLabelValue(original);
    // The escaped form must never contain a raw newline (it would split the
    // series line) and must never use JSON-only escapes like \t.
    EXPECT_EQ(escaped.find('\n'), std::string::npos) << original;
    EXPECT_EQ(escaped.find("\\t"), std::string::npos) << original;
    EXPECT_EQ(PromUnescapeLabelValue(escaped), original);
  }
}

// The Prometheus exporter must use the Prometheus escaper, not the JSON one:
// a tab in a label value passes through raw instead of becoming \t.
TEST(ExportTest, PrometheusSeriesUseExpositionEscapes) {
  MetricsRegistry registry;
  registry.GetGauge("freshen_escape_gauge", {{"path", "a\tb\nc\"d\\e"}})
      ->Set(1.0);
  const std::string prom = obs::FormatPrometheus(registry.Snapshot());
  EXPECT_NE(prom.find("path=\"a\tb\\nc\\\"d\\\\e\""), std::string::npos)
      << prom;
}

}  // namespace
}  // namespace freshen
