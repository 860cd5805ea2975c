// Sync-executor bench. Three questions:
//   1. What does one Execute call cost on a 2,400-task batch against a
//      lossy SimulatedSource, and how much of it is the fetches themselves?
//   2. Does routing the online loop through a PerfectSource executor cost
//      anything versus the inline-sync path (the "zero regression" check)?
//   3. What does enabling the obs flight recorder cost on the commit-heavy
//      path (written to BENCH_recorder.json; budget is <= 5%)?
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "common/table_writer.h"
#include "mirror/online_loop.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "stats/descriptive.h"
#include "sync/executor.h"
#include "sync/source.h"

namespace {

using namespace freshen;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<sync::SyncTask> MakeBatch(size_t tasks) {
  std::vector<sync::SyncTask> batch;
  batch.reserve(tasks);
  for (size_t i = 0; i < tasks; ++i) {
    batch.push_back(
        {i % 512, static_cast<double>(i) / static_cast<double>(tasks), 1.0});
  }
  return batch;
}

// The lossy, jittery origin of the timing sections: ~200us mean simulated
// fetch latency (a number, not a wait) and 5% errors.
sync::SimulatedSource LossySource() {
  sync::SimulatedSource::Options source_options;
  source_options.base_latency_seconds = 100e-6;
  source_options.mean_jitter_seconds = 100e-6;
  source_options.error_rate = 0.05;
  return sync::SimulatedSource::Create(source_options).value();
}

// Median wall ms of one Execute call on a `tasks`-task batch, and of the
// same batch's first-attempt fetches called directly (the floor).
struct ExecuteTiming {
  double execute_ms = 0.0;
  double fetch_ms = 0.0;
};

ExecuteTiming TimeExecute(size_t tasks, int reps) {
  obs::MetricsRegistry registry;
  sync::SimulatedSource source = LossySource();
  sync::SyncExecutor::Options options;
  options.registry = &registry;
  auto executor = sync::SyncExecutor::Create(&source, options).value();
  const std::vector<sync::SyncTask> batch = MakeBatch(tasks);
  std::vector<double> execute_ms;
  std::vector<double> fetch_ms;
  double sink = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    double start = NowSeconds();
    executor->Execute(batch);
    execute_ms.push_back((NowSeconds() - start) * 1e3);
    start = NowSeconds();
    for (size_t i = 0; i < batch.size(); ++i) {
      sink += source.Fetch({batch[i].element, batch[i].time, i, 0})
                  .latency_seconds;
    }
    fetch_ms.push_back((NowSeconds() - start) * 1e3);
  }
  if (sink < 0.0) std::printf("%g\n", sink);  // Keeps the fetches live.
  return {Quantile(execute_ms, 0.5), Quantile(fetch_ms, 0.5)};
}

// One period-loop run to completion; returns wall seconds.
double TimeLoop(const ElementSet& truth, sync::SyncExecutor* executor,
                int periods, double* pf_sum) {
  obs::MetricsRegistry registry;
  OnlineFreshenLoop::Options options;
  options.accesses_per_period = 2000.0;
  options.seed = 1234;
  options.registry = &registry;
  options.executor = executor;
  auto loop = OnlineFreshenLoop::Create(truth, /*bandwidth=*/80.0, options);
  if (!loop.ok()) {
    std::fprintf(stderr, "loop creation failed: %s\n",
                 loop.status().ToString().c_str());
    std::abort();
  }
  *pf_sum = 0.0;
  const double start = NowSeconds();
  for (int period = 0; period < periods; ++period) {
    *pf_sum += loop.value().RunPeriod().perceived_freshness;
  }
  return NowSeconds() - start;
}

// Recorder-overhead probe: the same commit-heavy workload against the
// lossy SimulatedSource, whose fetches cost no wall time, so wall time is
// all executor work and the emit path has nowhere to hide. The global
// recorder's enabled flag is what freshenctl --trace-out flips.
double MeasureCommitSeconds(size_t tasks_per_batch, int batches) {
  obs::MetricsRegistry registry;
  sync::SimulatedSource source = LossySource();
  sync::SyncExecutor::Options options;
  options.registry = &registry;
  auto executor = sync::SyncExecutor::Create(&source, options).value();

  const double start = NowSeconds();
  for (int batch = 0; batch < batches; ++batch) {
    executor->Execute(MakeBatch(tasks_per_batch));
  }
  return NowSeconds() - start;
}

}  // namespace

int main() {
  const bool quick = bench::QuickMode();
  const size_t execute_tasks = 2400;
  const int execute_reps = quick ? 10 : 50;

  std::printf("== Execute wall time ==\n");
  std::printf("SimulatedSource, ~200us mean simulated fetch, 5%% errors; "
              "%zu-task batch, median of %d calls\n\n",
              execute_tasks, execute_reps);
  const ExecuteTiming timing = TimeExecute(execute_tasks, execute_reps);
  TableWriter execute({"tasks", "Execute ms", "fetches alone ms"});
  execute.AddRow({std::to_string(execute_tasks),
                  FormatDouble(timing.execute_ms, 3),
                  FormatDouble(timing.fetch_ms, 3)});
  std::printf("%s\n", execute.ToText().c_str());

  std::printf("== PerfectSource fast path vs inline sync ==\n");
  std::printf("same loop seed; the executor path must not regress\n\n");
  ExperimentSpec spec = ExperimentSpec::IdealCase();
  spec.num_objects = quick ? 200 : 1000;
  const ElementSet truth = bench::MustCatalog(spec);
  const int periods = quick ? 10 : 40;

  double inline_pf = 0.0;
  const double inline_seconds = TimeLoop(truth, nullptr, periods, &inline_pf);

  sync::PerfectSource perfect;
  obs::MetricsRegistry executor_registry;
  sync::SyncExecutor::Options executor_options;
  executor_options.registry = &executor_registry;
  auto executor =
      sync::SyncExecutor::Create(&perfect, executor_options).value();
  double executor_pf = 0.0;
  const double executor_seconds =
      TimeLoop(truth, executor.get(), periods, &executor_pf);

  TableWriter parity({"path", "periods", "wall sec", "mean PF"});
  parity.AddRow({"inline", std::to_string(periods),
                 std::to_string(inline_seconds),
                 std::to_string(inline_pf / periods)});
  parity.AddRow({"executor (perfect)", std::to_string(periods),
                 std::to_string(executor_seconds),
                 std::to_string(executor_pf / periods)});
  std::printf("%s\n", parity.ToText().c_str());
  std::printf("PF parity: %s  (overhead: %.1f%%)\n",
              inline_pf == executor_pf ? "EXACT" : "MISMATCH",
              100.0 * (executor_seconds - inline_seconds) /
                  (inline_seconds > 0 ? inline_seconds : 1.0));

  std::printf("\n== Flight-recorder overhead ==\n");
  const size_t recorder_tasks = quick ? 2000 : 20000;
  const int recorder_batches = quick ? 3 : 8;
  std::printf("SimulatedSource; %zu tasks x %d batches, best of 3 reps\n\n",
              recorder_tasks, recorder_batches);
  obs::EventRecorder& recorder = obs::EventRecorder::Global();
  double off_seconds = 1e300;
  double on_seconds = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    recorder.set_enabled(false);
    off_seconds = std::min(off_seconds,
                           MeasureCommitSeconds(recorder_tasks,
                                                recorder_batches));
    recorder.Reset();  // Stats below describe exactly one enabled run.
    recorder.set_enabled(true);
    on_seconds = std::min(on_seconds,
                          MeasureCommitSeconds(recorder_tasks,
                                               recorder_batches));
    recorder.set_enabled(false);
  }
  const obs::EventRecorder::Stats recorder_stats = recorder.stats();
  const double overhead_pct =
      100.0 * (on_seconds - off_seconds) /
      (off_seconds > 0 ? off_seconds : 1.0);
  TableWriter overhead({"recorder", "wall sec", "events emitted", "dropped"});
  overhead.AddRow({"off", std::to_string(off_seconds), "0", "0"});
  overhead.AddRow({"on", std::to_string(on_seconds),
                   std::to_string(recorder_stats.emitted),
                   std::to_string(recorder_stats.dropped)});
  std::printf("%s\n", overhead.ToText().c_str());
  std::printf("recorder overhead: %.1f%% (budget 5%%)\n", overhead_pct);

  if (std::FILE* file = std::fopen("BENCH_recorder.json", "w")) {
    std::fprintf(file,
                 "{\"hardware_threads\": %zu, "
                 "\"off_seconds\": %.6f, \"on_seconds\": %.6f, "
                 "\"overhead_pct\": %.2f, \"events_per_run\": %llu, "
                 "\"dropped_per_run\": %llu, \"tasks_per_batch\": %zu, "
                 "\"batches\": %d}\n",
                 par::HardwareThreads(), off_seconds, on_seconds,
                 overhead_pct,
                 (unsigned long long)recorder_stats.emitted,
                 (unsigned long long)recorder_stats.dropped, recorder_tasks,
                 recorder_batches);
    std::fclose(file);
    std::printf("wrote BENCH_recorder.json\n");
  }
  return inline_pf == executor_pf ? 0 : 1;
}
