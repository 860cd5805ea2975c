#include "sync/executor.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <queue>
#include <utility>

#include "obs/recorder.h"
#include "obs/trace.h"

namespace freshen {
namespace sync {
namespace {

// Flight-recorder instants for the in-order pass. All events are virtual
// time (period units) on the sync-commit track and depend only on
// (seed, tasks), so the recorded stream repeats run to run.
void EmitSyncEvent(obs::EventRecorder& recorder, const char* name,
                   double ts_periods, double element, double arg1,
                   const char* arg1_name) {
  if (!recorder.enabled()) return;
  obs::Event event;
  event.name = name;
  event.category = "sync";
  event.clock = obs::EventClock::kVirtual;
  event.track = obs::kTrackSyncCommit;
  event.ts = ts_periods;
  event.arg0 = element;
  event.arg0_name = "element";
  event.arg1 = arg1;
  event.arg1_name = arg1_name;
  event.phase = obs::EventPhase::kInstant;
  recorder.Emit(event);
}

const char* BreakerEventName(BreakerState state) {
  switch (state) {
    case BreakerState::kOpen:
      return "breaker_open";
    case BreakerState::kHalfOpen:
      return "breaker_half_open";
    case BreakerState::kClosed:
      return "breaker_closed";
  }
  return "breaker_unknown";
}

}  // namespace

Result<std::unique_ptr<SyncExecutor>> SyncExecutor::Create(Source* source,
                                                           Options options) {
  if (source == nullptr) {
    return Status::InvalidArgument("source must not be null");
  }
  if (options.queue_capacity == 0) {
    return Status::InvalidArgument("queue_capacity must be >= 1");
  }
  FRESHEN_RETURN_IF_ERROR(ValidateRetryPolicy(options.retry));
  FRESHEN_ASSIGN_OR_RETURN(CircuitBreaker breaker,
                           CircuitBreaker::Create(options.breaker));
  return std::unique_ptr<SyncExecutor>(
      new SyncExecutor(source, std::move(breaker), options));
}

SyncExecutor::SyncExecutor(Source* source, CircuitBreaker breaker,
                           Options options)
    : source_(source),
      options_(options),
      breaker_(std::move(breaker)),
      backoff_rng_(options.seed ^ 0x73796e63ULL),
      registry_(options.registry != nullptr
                    ? options.registry
                    : &obs::MetricsRegistry::Global()) {
  const obs::Labels labels = {{"source", source_->name()}};
  tasks_counter_ = registry_->GetCounter("freshen_sync_tasks_total", labels);
  applied_counter_ =
      registry_->GetCounter("freshen_sync_applied_total", labels);
  attempts_counter_ =
      registry_->GetCounter("freshen_sync_attempts_total", labels);
  retries_counter_ =
      registry_->GetCounter("freshen_sync_retries_total", labels);
  failures_counter_ =
      registry_->GetCounter("freshen_sync_failures_total", labels);
  dropped_counter_ =
      registry_->GetCounter("freshen_sync_dropped_total", labels);
  breaker_skipped_counter_ =
      registry_->GetCounter("freshen_sync_breaker_skipped_total", labels);
  breaker_opens_counter_ =
      registry_->GetCounter("freshen_sync_breaker_opens_total", labels);
  wasted_bandwidth_counter_ =
      registry_->GetCounter("freshen_sync_wasted_bandwidth_total", labels);
  fetch_latency_histogram_ = registry_->GetHistogram(
      "freshen_sync_fetch_latency_seconds", obs::LatencySecondsBuckets(),
      labels);
}

std::vector<SyncOutcome> SyncExecutor::Execute(
    const std::vector<SyncTask>& tasks) {
  obs::ScopedSpan span("sync_execute", *registry_);
  last_stats_ = ExecuteStats{};
  last_stats_.tasks = tasks.size();
  tasks_counter_->Add(static_cast<double>(tasks.size()));

  // Deterministic task order: scheduled time, element as tie-break.
  std::vector<size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (tasks[a].time != tasks[b].time) return tasks[a].time < tasks[b].time;
    return tasks[a].element < tasks[b].element;
  });

  // Completion events settle into the breaker in virtual-time order, so
  // breaker transitions are reproducible.
  using Completion = std::pair<double, bool>;  // (completion time, ok).
  std::priority_queue<Completion, std::vector<Completion>,
                      std::greater<Completion>>
      completions;
  const auto settle_until = [&](double now) {
    while (!completions.empty() && completions.top().first <= now) {
      const Completion done = completions.top();
      completions.pop();
      if (done.second) {
        breaker_.RecordSuccess(done.first);
      } else {
        breaker_.RecordFailure(done.first);
      }
    }
  };

  obs::EventRecorder& recorder = obs::EventRecorder::Global();
  BreakerState last_breaker_state = breaker_.state();
  // Emits one instant whenever the breaker's state moved since the last
  // check; ts is the virtual time the transition became observable.
  const auto note_breaker = [&](double ts) {
    const BreakerState state = breaker_.state();
    if (state == last_breaker_state) return;
    last_breaker_state = state;
    EmitSyncEvent(recorder, BreakerEventName(state), ts, -1.0, 0.0, nullptr);
  };

  const RetryPolicy& retry = options_.retry;
  std::vector<SyncOutcome> outcomes;
  outcomes.reserve(order.size());
  for (size_t rank = 0; rank < order.size(); ++rank) {
    const SyncTask& task = tasks[order[rank]];
    const uint64_t seq = next_seq_++;
    SyncOutcome outcome;
    outcome.element = task.element;
    outcome.scheduled_time = task.time;
    const double element = static_cast<double>(task.element);
    if (rank >= options_.queue_capacity) {
      outcome.kind = SyncOutcomeKind::kDropped;
      ++last_stats_.dropped;
      dropped_counter_->Increment();
      EmitSyncEvent(recorder, "sync_dropped", task.time, element, 0.0,
                    nullptr);
      outcomes.push_back(outcome);
      continue;
    }
    settle_until(task.time);
    note_breaker(task.time);
    if (!breaker_.AllowRequest(task.time)) {
      outcome.kind = SyncOutcomeKind::kBreakerOpen;
      ++last_stats_.breaker_open;
      breaker_skipped_counter_->Increment();
      EmitSyncEvent(recorder, "sync_breaker_skip", task.time, element, 0.0,
                    nullptr);
      outcomes.push_back(outcome);
      continue;
    }
    note_breaker(task.time);
    double now = task.time;
    double backoff = 0.0;
    bool success = false;
    for (uint32_t attempt = 0; attempt < retry.max_attempts; ++attempt) {
      const FetchResult fetched =
          source_->Fetch({task.element, task.time, seq, attempt});
      // A stall is cut off at the per-attempt timeout and fails.
      const bool timed_out =
          fetched.latency_seconds > retry.attempt_timeout_seconds;
      const double latency =
          std::min(fetched.latency_seconds, retry.attempt_timeout_seconds);
      outcome.attempts += 1;
      ++last_stats_.attempts;
      attempts_counter_->Increment();
      if (attempt > 0) {
        ++last_stats_.retries;
        retries_counter_->Increment();
        EmitSyncEvent(recorder, "sync_retry", now, element,
                      static_cast<double>(attempt), "attempt");
      }
      EmitSyncEvent(recorder, "sync_attempt", now, element,
                    static_cast<double>(attempt), "attempt");
      fetch_latency_histogram_->Record(latency);
      now += latency;
      if (fetched.status.ok() && !timed_out) {
        success = true;
        break;
      }
      if (timed_out) {
        EmitSyncEvent(recorder, "sync_timeout", now, element,
                      static_cast<double>(attempt), "attempt");
      }
      outcome.wasted_bandwidth += task.size;
      wasted_bandwidth_counter_->Add(task.size);
      if (attempt + 1 < retry.max_attempts) {
        backoff = NextBackoffDelay(backoff_rng_, retry, backoff);
        now += backoff;
      }
    }
    last_stats_.wasted_bandwidth += outcome.wasted_bandwidth;
    if (success) {
      outcome.kind = SyncOutcomeKind::kApplied;
      // Scheduled time plus the transport time elapsed, added in that
      // order: `now` itself can differ in the last bit, and the loop's
      // golden outputs pin apply times computed this way.
      outcome.apply_time = task.time + (now - task.time);
      ++last_stats_.applied;
      applied_counter_->Increment();
      EmitSyncEvent(recorder, "sync_applied", now, element,
                    static_cast<double>(outcome.attempts), "attempts");
    } else {
      outcome.kind = SyncOutcomeKind::kFailed;
      ++last_stats_.failed;
      failures_counter_->Increment();
      EmitSyncEvent(recorder, "sync_failed", now, element,
                    static_cast<double>(outcome.attempts), "attempts");
    }
    completions.emplace(now, success);
    outcomes.push_back(outcome);
  }
  settle_until(std::numeric_limits<double>::infinity());
  if (!order.empty()) {
    note_breaker(tasks[order.back()].time);
  }

  const uint64_t opens = breaker_.open_transitions();
  breaker_opens_counter_->Add(static_cast<double>(opens - breaker_opens_seen_));
  breaker_opens_seen_ = opens;
  return outcomes;
}

}  // namespace sync
}  // namespace freshen
