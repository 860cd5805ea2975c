// freshen::obs metrics — a process-wide, thread-safe registry of named
// counters, gauges, and fixed-bucket histograms with label support.
//
// Design: registration (name + labels -> metric object) takes a mutex once;
// callers cache the returned pointer and every subsequent update is a single
// relaxed atomic op, so instrumentation is safe on hot paths. Metric objects
// live for the registry's lifetime and are never deallocated or invalidated
// (Reset() zeroes values in place), so cached pointers stay valid forever.
//
// Naming scheme (see docs/observability.md): freshen_<subsystem>_<name>,
// e.g. freshen_solver_iterations{solver="water_filling"}. Counters carry a
// _total suffix in the Prometheus exposition, not in the registry name.
//
// The registry can be disabled at runtime (set_enabled(false)); updates then
// reduce to one relaxed load + branch, which is the "~zero-cost when off"
// guarantee bench_micro's BM_Metrics* cases watch.
#ifndef FRESHEN_OBS_METRICS_H_
#define FRESHEN_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace freshen {
namespace obs {

/// Sorted key=value pairs identifying one time series of a metric.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// What a metric measures.
enum class MetricKind { kCounter, kGauge, kHistogram };

/// Returns "counter" / "gauge" / "histogram".
const char* MetricKindName(MetricKind kind);

/// Monotonically increasing value. Double-valued so it can carry bandwidth
/// sums as well as event counts (integer increments are exact below 2^53).
class Counter {
 public:
  /// Adds 1.
  void Increment() { Add(1.0); }

  /// Adds `delta` (callers pass non-negative deltas; not enforced on the
  /// hot path).
  void Add(double delta) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  /// Current total.
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

  std::atomic<double> value_{0.0};
  const std::atomic<bool>* enabled_;
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  /// Replaces the value.
  void Set(double value) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.store(value, std::memory_order_relaxed);
  }

  /// Current value.
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

  std::atomic<double> value_{0.0};
  const std::atomic<bool>* enabled_;
};

/// Fixed-bucket histogram: `bounds` are inclusive upper edges; one overflow
/// bucket catches everything above the last bound. Bucket counts, the total
/// count, and the sum are each relaxed atomics — a concurrent Snapshot() may
/// catch one Record mid-flight (count ahead of sum by one observation), which
/// is the standard tearing tolerance for lock-free histograms.
class Histogram {
 public:
  /// Records one observation.
  void Record(double value);

  /// Inclusive upper bucket edges (ascending, fixed at registration).
  const std::vector<double>& bounds() const { return bounds_; }

  /// Count per bucket; size bounds().size() + 1 (last = overflow).
  std::vector<uint64_t> BucketCounts() const;

  /// Total observations.
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  /// Sum of observed values.
  double sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Histogram(std::vector<double> bounds, const std::atomic<bool>* enabled);
  void Reset();

  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1.
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  const std::atomic<bool>* enabled_;
};

/// `count` bucket edges starting at `start`, each `factor` times the last
/// (Prometheus-style exponential buckets). start > 0, factor > 1, count >= 1.
std::vector<double> ExponentialBuckets(double start, double factor,
                                       int count);

/// `count` bucket edges start, start+width, ... (width > 0, count >= 1).
std::vector<double> LinearBuckets(double start, double width, int count);

/// Default bucket sets used by the built-in instrumentation.
const std::vector<double>& LatencySecondsBuckets();   // 1us .. ~100s.
const std::vector<double>& IterationCountBuckets();   // 1 .. 5120.

/// One exported time series (see MetricsRegistry::Snapshot).
struct MetricSample {
  std::string name;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
  /// Counter total or gauge value (unused for histograms).
  double value = 0.0;
  /// Histogram payload (empty for counters/gauges).
  std::vector<double> bounds;
  std::vector<uint64_t> bucket_counts;
  uint64_t count = 0;
  double sum = 0.0;
};

/// A point-in-time copy of every registered series, ordered by name then
/// labels — the unit the Format* exporters (obs/export.h) consume.
struct RegistrySnapshot {
  std::vector<MetricSample> samples;

  /// First sample matching name (+ labels when given); nullptr when absent.
  const MetricSample* Find(const std::string& name) const;
  const MetricSample* Find(const std::string& name,
                           const Labels& labels) const;
};

/// Thread-safe metric registry. Use Global() for the process-wide instance;
/// separate instances are handy for isolated tests.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every built-in instrumentation site uses.
  static MetricsRegistry& Global();

  /// Returns the counter for (name, labels), registering it on first use.
  /// The pointer is valid for the registry's lifetime — cache it.
  Counter* GetCounter(const std::string& name, const Labels& labels = {});

  /// Returns the gauge for (name, labels), registering it on first use.
  Gauge* GetGauge(const std::string& name, const Labels& labels = {});

  /// Returns the histogram for (name, labels). `bounds` is used only on
  /// first registration (must be non-empty and ascending then); later calls
  /// return the existing histogram regardless of `bounds`.
  Histogram* GetHistogram(const std::string& name,
                          const std::vector<double>& bounds,
                          const Labels& labels = {});

  /// Copies every registered series.
  RegistrySnapshot Snapshot() const;

  /// Zeroes every metric in place. Registered objects stay valid (cached
  /// pointers keep working) — intended for tests and benchmarks.
  void Reset();

  /// Runtime kill switch: when false, all updates become no-ops. Reads
  /// (value(), Snapshot()) still work.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Number of registered series (across all kinds).
  size_t size() const;

 private:
  struct Entry {
    MetricKind kind;
    std::string name;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* FindOrCreate(MetricKind kind, const std::string& name,
                      const Labels& labels,
                      const std::vector<double>* bounds);

  mutable std::mutex mu_;
  // Keyed by name + serialized sorted labels; map keeps Snapshot() ordering
  // deterministic for the golden-file exporter tests.
  std::map<std::string, Entry> entries_;
  std::atomic<bool> enabled_{true};
};

}  // namespace obs
}  // namespace freshen

#endif  // FRESHEN_OBS_METRICS_H_
