#include "common/parallel.h"

#include <algorithm>
#include <memory>
#include <thread>
#include <utility>

#include "common/macros.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace freshen {
namespace par {

size_t HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

size_t ShardCountFor(size_t n, size_t grain, size_t max_shards) {
  if (n == 0) return 0;
  FRESHEN_DCHECK(grain > 0 && max_shards > 0);
  return std::clamp<size_t>(n / grain, 1, max_shards);
}

std::vector<Shard> ShardPlanFor(size_t n, size_t grain, size_t max_shards) {
  const size_t count = ShardCountFor(n, grain, max_shards);
  std::vector<Shard> plan;
  plan.reserve(count);
  const size_t base = count == 0 ? 0 : n / count;
  const size_t remainder = count == 0 ? 0 : n % count;
  size_t begin = 0;
  for (size_t s = 0; s < count; ++s) {
    const size_t size = base + (s < remainder ? 1 : 0);
    plan.push_back(Shard{s, begin, begin + size});
    begin += size;
  }
  return plan;
}

size_t ShardCount(size_t n) { return ShardCountFor(n, kShardGrain, kMaxShards); }

std::vector<Shard> ShardPlan(size_t n) {
  return ShardPlanFor(n, kShardGrain, kMaxShards);
}

ShardGeometry::ShardGeometry(size_t n) {
  const size_t count = ShardCount(n);
  if (count == 0) return;
  base = n / count;
  remainder = n % count;
  pivot = remainder * (base + 1);
}

size_t ShardIndexOf(size_t n, size_t i) {
  FRESHEN_DCHECK(i < n);
  return ShardGeometry(n).IndexOf(i);
}

namespace detail {
namespace {

// Registered once; updated lock-free per region.
struct ParMetrics {
  obs::Counter* regions;
  obs::Counter* inline_regions;
  obs::Counter* shards;
  obs::Gauge* last_threads;
  obs::Gauge* last_efficiency;
};

const ParMetrics& GetParMetrics() {
  static const ParMetrics metrics = [] {
    auto& registry = obs::MetricsRegistry::Global();
    return ParMetrics{
        registry.GetCounter("freshen_par_regions_total",
                            {{"mode", "pooled"}}),
        registry.GetCounter("freshen_par_regions_total",
                            {{"mode", "inline"}}),
        registry.GetCounter("freshen_par_shards_total"),
        registry.GetGauge("freshen_par_last_region_threads"),
        registry.GetGauge("freshen_par_last_region_efficiency")};
  }();
  return metrics;
}

}  // namespace

ThreadPool& SharedPool() {
  static ThreadPool pool(ThreadPool::Options{
      .num_threads = std::max<size_t>(HardwareThreads(), 8),
      .queue_capacity = 4096});
  return pool;
}

void RecordRegion(size_t shards, size_t tasks, double wall_seconds,
                  double busy_seconds) {
  const ParMetrics& metrics = GetParMetrics();
  metrics.regions->Increment();
  metrics.shards->Add(static_cast<double>(shards));
  metrics.last_threads->Set(static_cast<double>(tasks));
  if (wall_seconds > 0.0 && tasks > 0) {
    metrics.last_efficiency->Set(
        busy_seconds / (static_cast<double>(tasks) * wall_seconds));
  }
}

void RecordInlineRegion(size_t shards) {
  const ParMetrics& metrics = GetParMetrics();
  metrics.inline_regions->Increment();
  metrics.shards->Add(static_cast<double>(shards));
}

}  // namespace detail

void TaskGroup::Spawn(std::function<void()> fn) {
  // Held by shared_ptr so the closure survives a rejected submit (TrySubmit
  // consumes its argument either way) and can still run inline below.
  auto task = std::make_shared<std::function<void()>>(std::move(fn));
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++outstanding_;
  }
  Status submitted = detail::SharedPool().TrySubmit([this, task] {
    (*task)();
    Finish();
  });
  if (!submitted.ok()) {
    // Queue full or pool shutting down: degrade to inline execution so the
    // group's completion never depends on pool capacity.
    (*task)();
    Finish();
  }
}

void TaskGroup::Join() {
  std::unique_lock<std::mutex> lock(mu_);
  done_.wait(lock, [this] { return outstanding_ == 0; });
}

void TaskGroup::Finish() {
  std::lock_guard<std::mutex> lock(mu_);
  FRESHEN_CHECK(outstanding_ > 0);
  if (--outstanding_ == 0) done_.notify_all();
}

Executor::Executor(size_t threads)
    : threads_(threads == 0 ? HardwareThreads() : threads) {}

}  // namespace par
}  // namespace freshen
