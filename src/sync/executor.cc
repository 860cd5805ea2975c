#include "sync/executor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <queue>
#include <utility>

#include "obs/recorder.h"
#include "obs/trace.h"

namespace freshen {
namespace sync {
namespace {

// Flight-recorder instants for the commit replay. All events are virtual
// time (period units) on the sync-commit track; phase 2 runs on one thread
// and its trace depends only on (seed, tasks), so the recorded stream is
// deterministic at any pool size.
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
  if (options.num_threads == 0) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  if (options.queue_capacity == 0) {
    return Status::InvalidArgument("queue_capacity must be >= 1");
  }
  if (!(options.period_seconds > 0.0) ||
      !std::isfinite(options.period_seconds)) {
    return Status::InvalidArgument("period_seconds must be > 0");
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
      pool_(std::make_unique<ThreadPool>(ThreadPool::Options{
          options.num_threads, options.queue_capacity})),
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
  queue_depth_gauge_ =
      registry_->GetGauge("freshen_sync_queue_depth", labels);
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

  struct TaskPlan {
    SyncTask task;
    uint64_t seq = 0;
    bool dropped = false;
    std::vector<AttemptRecord> trace;
  };
  std::vector<TaskPlan> plans(tasks.size());
  for (size_t i = 0; i < order.size(); ++i) {
    plans[i].task = tasks[order[i]];
    plans[i].seq = next_seq_++;
  }

  // Phase 1 — speculative fetch: each admitted task runs its whole attempt
  // loop on the pool. Traces depend only on (seed, seq, attempt), never on
  // scheduling, so phase 2 can replay them deterministically.
  const RetryPolicy& retry = options_.retry;
  size_t max_queue_depth = 0;
  for (TaskPlan& plan : plans) {
    const double scheduled_seconds = plan.task.time * options_.period_seconds;
    const Status submitted =
        pool_->TrySubmit([this, &plan, &retry, scheduled_seconds] {
          plan.trace.reserve(retry.max_attempts);
          for (uint32_t attempt = 0; attempt < retry.max_attempts; ++attempt) {
            const FetchResult fetched = source_->Fetch(
                {plan.task.element, scheduled_seconds, plan.seq, attempt});
            AttemptRecord record;
            record.timed_out =
                fetched.latency_seconds > retry.attempt_timeout_seconds;
            record.latency_seconds =
                std::min(fetched.latency_seconds,
                         retry.attempt_timeout_seconds);
            record.ok = fetched.status.ok() && !record.timed_out;
            plan.trace.push_back(record);
            if (record.ok) break;
          }
        });
    if (!submitted.ok()) plan.dropped = true;
    max_queue_depth = std::max(max_queue_depth, pool_->QueueDepth());
  }
  pool_->Wait();
  queue_depth_gauge_->Set(static_cast<double>(max_queue_depth));

  // Phase 2 — deterministic commit: replay each trace in scheduled order
  // against the breaker, settling completion events in virtual-time order so
  // breaker transitions are reproducible.
  using Completion = std::pair<double, bool>;  // (completion seconds, ok).
  std::priority_queue<Completion, std::vector<Completion>,
                      std::greater<Completion>>
      completions;
  const auto settle_until = [&](double now_seconds) {
    while (!completions.empty() && completions.top().first <= now_seconds) {
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
  const auto note_breaker = [&](double ts_periods) {
    const BreakerState state = breaker_.state();
    if (state == last_breaker_state) return;
    last_breaker_state = state;
    EmitSyncEvent(recorder, BreakerEventName(state), ts_periods, -1.0, 0.0,
                  nullptr);
  };

  std::vector<SyncOutcome> outcomes;
  outcomes.reserve(plans.size());
  for (const TaskPlan& plan : plans) {
    SyncOutcome outcome;
    outcome.element = plan.task.element;
    outcome.scheduled_time = plan.task.time;
    const double element = static_cast<double>(plan.task.element);
    if (plan.dropped) {
      outcome.kind = SyncOutcomeKind::kDropped;
      ++last_stats_.dropped;
      dropped_counter_->Increment();
      EmitSyncEvent(recorder, "sync_dropped", plan.task.time, element, 0.0,
                    nullptr);
      outcomes.push_back(outcome);
      continue;
    }
    const double scheduled_seconds = plan.task.time * options_.period_seconds;
    settle_until(scheduled_seconds);
    note_breaker(plan.task.time);
    if (!breaker_.AllowRequest(scheduled_seconds)) {
      outcome.kind = SyncOutcomeKind::kBreakerOpen;
      ++last_stats_.breaker_open;
      breaker_skipped_counter_->Increment();
      EmitSyncEvent(recorder, "sync_breaker_skip", plan.task.time, element,
                    0.0, nullptr);
      outcomes.push_back(outcome);
      continue;
    }
    note_breaker(plan.task.time);
    double now_seconds = scheduled_seconds;
    double backoff = 0.0;
    bool success = false;
    for (size_t attempt = 0; attempt < plan.trace.size(); ++attempt) {
      const AttemptRecord& record = plan.trace[attempt];
      outcome.attempts += 1;
      ++last_stats_.attempts;
      attempts_counter_->Increment();
      if (attempt > 0) {
        ++last_stats_.retries;
        retries_counter_->Increment();
        EmitSyncEvent(recorder, "sync_retry",
                      now_seconds / options_.period_seconds, element,
                      static_cast<double>(attempt), "attempt");
      }
      EmitSyncEvent(recorder, "sync_attempt",
                    now_seconds / options_.period_seconds, element,
                    static_cast<double>(attempt), "attempt");
      fetch_latency_histogram_->Record(record.latency_seconds);
      now_seconds += record.latency_seconds;
      if (record.ok) {
        success = true;
        break;
      }
      if (record.timed_out) {
        EmitSyncEvent(recorder, "sync_timeout",
                      now_seconds / options_.period_seconds, element,
                      static_cast<double>(attempt), "attempt");
      }
      outcome.wasted_bandwidth += plan.task.size;
      wasted_bandwidth_counter_->Add(plan.task.size);
      if (attempt + 1 < plan.trace.size()) {
        backoff = NextBackoffDelay(backoff_rng_, retry, backoff);
        now_seconds += backoff;
      }
    }
    last_stats_.wasted_bandwidth += outcome.wasted_bandwidth;
    const double finish_periods = now_seconds / options_.period_seconds;
    if (success) {
      outcome.kind = SyncOutcomeKind::kApplied;
      // Scheduled time plus transport elapsed, converted back to periods.
      // Kept as an offset from the scheduled time so a zero-latency source
      // (PerfectSource) applies at exactly the scheduled instant.
      outcome.apply_time =
          plan.task.time +
          (now_seconds - scheduled_seconds) / options_.period_seconds;
      ++last_stats_.applied;
      applied_counter_->Increment();
      EmitSyncEvent(recorder, "sync_applied", finish_periods, element,
                    static_cast<double>(outcome.attempts), "attempts");
    } else {
      outcome.kind = SyncOutcomeKind::kFailed;
      ++last_stats_.failed;
      failures_counter_->Increment();
      EmitSyncEvent(recorder, "sync_failed", finish_periods, element,
                    static_cast<double>(outcome.attempts), "attempts");
    }
    completions.emplace(now_seconds, success);
    outcomes.push_back(outcome);
  }
  settle_until(std::numeric_limits<double>::infinity());
  if (!plans.empty()) {
    note_breaker(plans.back().task.time);
  }

  const uint64_t opens = breaker_.open_transitions();
  breaker_opens_counter_->Add(static_cast<double>(opens - breaker_opens_seen_));
  breaker_opens_seen_ = opens;
  return outcomes;
}

}  // namespace sync
}  // namespace freshen
