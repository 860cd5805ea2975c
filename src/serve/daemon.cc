#include "serve/daemon.h"

#include <chrono>
#include <cmath>
#include <utility>

#include "common/macros.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "obs/build_info.h"
#include "obs/trace.h"

namespace freshen {
namespace serve {

Result<std::unique_ptr<FreshendDaemon>> FreshendDaemon::Create(
    ElementSet truth, double bandwidth, Options options) {
  if (options.loop.on_period_end) {
    return Status::InvalidArgument(
        "loop.on_period_end is owned by the daemon; leave it unset");
  }
  if (options.loop.slo != nullptr || options.loop.drift != nullptr) {
    return Status::InvalidArgument(
        "loop.slo/loop.drift are owned by the daemon; leave them unset "
        "(configure Options::slo / Options::drift instead)");
  }
  if (!(options.freshness_threshold >= 0.0 &&
        options.freshness_threshold <= 1.0)) {
    return Status::InvalidArgument("freshness_threshold must be in [0, 1]");
  }
  if (!(options.period_seconds >= 0.0) ||
      !std::isfinite(options.period_seconds)) {
    return Status::InvalidArgument("period_seconds must be finite and >= 0");
  }
  if (options.slowlog.capacity > SlowQueryLog::kMaxCapacity) {
    return Status::InvalidArgument(StrFormat(
        "slowlog capacity must be <= %zu", SlowQueryLog::kMaxCapacity));
  }
  if (!(options.slowlog.threshold_seconds >= 0.0) ||
      !std::isfinite(options.slowlog.threshold_seconds)) {
    return Status::InvalidArgument(
        "slowlog threshold_seconds must be finite and >= 0");
  }
  if (options.loop.registry == nullptr) {
    options.loop.registry = options.registry;
  }
  const size_t n = truth.size();
  std::unique_ptr<FreshendDaemon> daemon(new FreshendDaemon(options, n));

  // Telemetry plane: the daemon owns the monitor/detector and hands the
  // loop raw pointers (the daemon outlives its loop by construction).
  Options& opts = daemon->options_;
  if (opts.slo.registry == nullptr) opts.slo.registry = opts.registry;
  FRESHEN_ASSIGN_OR_RETURN(obs::SloMonitor monitor,
                           obs::SloMonitor::Create(opts.slo));
  daemon->slo_ = std::make_unique<obs::SloMonitor>(std::move(monitor));
  opts.loop.slo = daemon->slo_.get();
  opts.drift.num_elements = n;
  if (opts.drift.registry == nullptr) opts.drift.registry = opts.registry;
  FRESHEN_ASSIGN_OR_RETURN(obs::DriftDetector detector,
                           obs::DriftDetector::Create(opts.drift));
  daemon->drift_ = std::make_unique<obs::DriftDetector>(std::move(detector));
  opts.loop.drift = daemon->drift_.get();

  opts.loop.on_period_end = [d = daemon.get()](
                                const PeriodStats& stats,
                                const std::vector<uint32_t>& synced) {
    d->PublishBoundary(stats.replanned, synced);
  };
  FRESHEN_ASSIGN_OR_RETURN(
      OnlineFreshenLoop loop,
      OnlineFreshenLoop::Create(std::move(truth), bandwidth, opts.loop));
  daemon->loop_ = std::make_unique<OnlineFreshenLoop>(std::move(loop));
  daemon->builder_ = std::make_unique<SnapshotBuilder>(
      daemon->loop_->controller().shared_sizes());

  // Initial publication (epoch 1): the controller's cold-start plan over
  // its cold-start beliefs, nothing synced yet; a builder's first publish
  // builds every shard. Queries work from here on.
  daemon->PublishBoundary(/*replanned=*/true, {});
  return daemon;
}

FreshendDaemon::FreshendDaemon(Options options, size_t num_elements)
    : options_(std::move(options)),
      num_elements_(num_elements),
      store_(options_.registry),
      slow_log_(std::make_unique<SlowQueryLog>(options_.slowlog)),
      registry_(options_.registry != nullptr
                    ? options_.registry
                    : &obs::MetricsRegistry::Global()) {
  obs::ExportBuildInfo(registry_);
  uptime_gauge_ = registry_->GetGauge("freshen_uptime_seconds");
  fresh_queries_counter_ = registry_->GetCounter(
      "freshen_serve_queries_total", {{"kind", "is_fresh"}});
  age_queries_counter_ = registry_->GetCounter("freshen_serve_queries_total",
                                               {{"kind", "expected_age"}});
  plan_queries_counter_ = registry_->GetCounter(
      "freshen_serve_queries_total", {{"kind", "get_plan"}});
  stats_queries_counter_ = registry_->GetCounter(
      "freshen_serve_queries_total", {{"kind", "stats"}});
  full_publish_counter_ = registry_->GetCounter(
      "freshen_serve_publishes_total", {{"kind", "full"}});
  delta_publish_counter_ = registry_->GetCounter(
      "freshen_serve_publishes_total", {{"kind", "delta"}});
  publish_seconds_ = registry_->GetHistogram(
      "freshen_serve_publish_seconds", obs::LatencySecondsBuckets());
  snapshot_bytes_ = registry_->GetGauge("freshen_serve_snapshot_bytes");
}

FreshendDaemon::~FreshendDaemon() {
  Stop();
  // store_ drains readers and frees every snapshot in its destructor.
}

void FreshendDaemon::PublishBoundary(bool replanned,
                                     const std::vector<uint32_t>& synced) {
  obs::ScopedSpan span("serve_publish", *registry_);
  WallTimer timer;
  // Free the snapshots whose readers left during the period first: their
  // shard blocks and plan table are the builder's spares, which it rewrites
  // only once they are free.
  store_.Reclaim();
  const AdaptiveFreshener& controller = loop_->controller();
  // A replan republishes the plan table once, an O(N) copy per replan
  // cadence; only the shards holding an element synced this period are
  // rebuilt, replan or not.
  if (replanned) {
    FRESHEN_CHECK(builder_->SetPlan(controller.PlanClasses()).ok());
  }
  for (uint32_t id : synced) builder_->MarkDirty(id);
  auto snapshot = builder_->Publish(store_.CurrentEpoch() + 1,
                                    controller.num_replans(), loop_->Now(),
                                    loop_->mirror().LastSyncTimes());
  FRESHEN_CHECK(snapshot.ok());
  snapshot_bytes_->Set(static_cast<double>((*snapshot)->stats().held_bytes));
  store_.Publish(std::move(*snapshot));
  (replanned ? full_publish_counter_ : delta_publish_counter_)->Increment();
  publish_seconds_->Record(timer.ElapsedSeconds());
}

Status FreshendDaemon::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("daemon already running");
  }
  if (loop_thread_.joinable()) loop_thread_.join();
  stop_requested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread([this] { LoopMain(); });
  return Status::OK();
}

void FreshendDaemon::Stop() {
  {
    std::lock_guard<std::mutex> lock(pacing_mu_);
    stop_requested_.store(true, std::memory_order_release);
  }
  pacing_cv_.notify_all();
  if (loop_thread_.joinable()) loop_thread_.join();
}

void FreshendDaemon::LoopMain() {
  while (!stop_requested_.load(std::memory_order_acquire)) {
    WallTimer period_timer;
    loop_->RunPeriod();  // Publishes via the on_period_end hook.
    const uint64_t done = periods_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (options_.max_periods != 0 && done >= options_.max_periods) break;
    if (options_.period_seconds > 0.0) {
      const double remaining =
          options_.period_seconds - period_timer.ElapsedSeconds();
      if (remaining > 0.0) {
        std::unique_lock<std::mutex> lock(pacing_mu_);
        pacing_cv_.wait_for(
            lock, std::chrono::duration<double>(remaining), [this] {
              return stop_requested_.load(std::memory_order_acquire);
            });
      }
    }
  }
  running_.store(false, std::memory_order_release);
}

Result<FreshnessVerdict> FreshendDaemon::IsFresh(size_t id) const {
  SnapshotRef ref = store_.Acquire();
  if (!ref) return Status::FailedPrecondition("no snapshot published yet");
  if (id >= ref->size()) {
    return Status::OutOfRange(StrFormat("element %zu out of range [0, %zu)",
                                        id, ref->size()));
  }
  const ElementView view = ref->Lookup(id);
  FreshnessVerdict verdict;
  verdict.epoch = ref->epoch();
  verdict.elapsed =
      std::max(0.0, ref->stats().published_at - view.last_sync_time);
  verdict.fresh_probability =
      view.change_rate > 0.0
          ? std::exp(-view.change_rate * verdict.elapsed)
          : 1.0;
  verdict.fresh =
      verdict.fresh_probability >= options_.freshness_threshold;
  fresh_queries_counter_->Increment();
  return verdict;
}

Result<AgeEstimate> FreshendDaemon::ExpectedAge(size_t id) const {
  SnapshotRef ref = store_.Acquire();
  if (!ref) return Status::FailedPrecondition("no snapshot published yet");
  if (id >= ref->size()) {
    return Status::OutOfRange(StrFormat("element %zu out of range [0, %zu)",
                                        id, ref->size()));
  }
  const ElementView view = ref->Lookup(id);
  AgeEstimate estimate;
  estimate.epoch = ref->epoch();
  estimate.elapsed =
      std::max(0.0, ref->stats().published_at - view.last_sync_time);
  // E[age] over an elapsed window tau with Poisson(lambda) updates:
  //   tau - (1 - e^{-lambda tau}) / lambda,
  // evaluated with expm1 so tiny lambda*tau does not cancel.
  const double lt = view.change_rate * estimate.elapsed;
  estimate.expected_age =
      view.change_rate > 0.0
          ? estimate.elapsed + std::expm1(-lt) / view.change_rate
          : 0.0;
  age_queries_counter_->Increment();
  return estimate;
}

Result<PlanEntry> FreshendDaemon::GetPlan(size_t id) const {
  SnapshotRef ref = store_.Acquire();
  if (!ref) return Status::FailedPrecondition("no snapshot published yet");
  if (id >= ref->size()) {
    return Status::OutOfRange(StrFormat("element %zu out of range [0, %zu)",
                                        id, ref->size()));
  }
  const ElementView view = ref->Lookup(id);
  PlanEntry entry;
  entry.epoch = ref->epoch();
  entry.frequency = view.frequency;
  entry.interval = view.frequency > 0.0
                       ? 1.0 / view.frequency
                       : std::numeric_limits<double>::infinity();
  entry.bandwidth_share = view.frequency * view.size;
  plan_queries_counter_->Increment();
  return entry;
}

DaemonStats FreshendDaemon::Stats() const {
  DaemonStats stats;
  if (SnapshotRef ref = store_.Acquire()) {
    stats.snapshot = ref->stats();
  }
  stats.store = store_.stats();
  stats.periods = periods_.load(std::memory_order_relaxed);
  stats.queries = static_cast<uint64_t>(
      fresh_queries_counter_->value() + age_queries_counter_->value() +
      plan_queries_counter_->value() + stats_queries_counter_->value());
  stats.pinned_readers = store_.PinnedReaders();
  stats.running = running_.load(std::memory_order_acquire);
  uptime_gauge_->Set(UptimeSeconds());
  stats_queries_counter_->Increment();
  return stats;
}

}  // namespace serve
}  // namespace freshen
