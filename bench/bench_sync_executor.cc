// Sync-executor bench: two interleaved A/B comparisons (the first side
// alternates; medians and quartiles land in BENCH_sync_executor.json).
// Neither is gated; the bench fails only if its JSON cannot be written.
//   1. One Execute call on a 2,400-task batch against a lossy
//      SimulatedSource, beside the same batch's fetches alone.
//   2. The obs flight recorder off vs on along the commit path. Execute's
//      in-order pass makes the commit path short enough that the emits are
//      a visible share of it.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/table_writer.h"
#include "common/timer.h"
#include "obs/recorder.h"
#include "sync/executor.h"
#include "sync/source.h"

namespace {

using namespace freshen;

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

// Recorder-overhead probe: the same commit-heavy workload against the
// lossy SimulatedSource, whose fetches cost no wall time, so wall time is
// all executor work and the emit path has nowhere to hide. The global
// recorder's enabled flag is what freshenctl --trace-out flips.
double MeasureCommitSeconds(size_t tasks_per_batch, int batches) {
  sync::SimulatedSource source = LossySource();
  auto executor = sync::SyncExecutor::Create(&source, {}).value();
  WallTimer timer;
  for (int batch = 0; batch < batches; ++batch) {
    executor->Execute(MakeBatch(tasks_per_batch));
  }
  return timer.ElapsedSeconds();
}

}  // namespace

int main() {
  const bool quick = bench::QuickMode();
  const size_t execute_tasks = 2400;
  const int execute_pairs = quick ? 10 : 50;

  std::printf("== Execute wall time ==\n");
  std::printf("SimulatedSource, ~200us mean simulated fetch, 5%% errors; "
              "%zu-task batch, %d interleaved pairs, median [p25, p75]\n\n",
              execute_tasks, execute_pairs);
  sync::SimulatedSource execute_source = LossySource();
  auto execute_executor =
      sync::SyncExecutor::Create(&execute_source, {}).value();
  const std::vector<sync::SyncTask> batch = MakeBatch(execute_tasks);
  double sink = 0.0;
  const bench::PairSpread execute_ms = bench::RepeatPairs(
      execute_pairs,
      [&] {
        WallTimer timer;
        for (size_t i = 0; i < batch.size(); ++i) {
          sink += execute_source.Fetch({batch[i].element, i, 0})
                      .latency_seconds;
        }
        return timer.ElapsedMillis();
      },
      [&] {
        WallTimer timer;
        execute_executor->Execute(batch);
        return timer.ElapsedMillis();
      });
  if (sink < 0.0) std::printf("%g\n", sink);  // Keeps the fetches live.
  TableWriter execute({"tasks", "Execute ms", "fetches alone ms"});
  execute.AddRow({std::to_string(execute_tasks),
                  bench::FormatSpread(execute_ms.b, 3),
                  bench::FormatSpread(execute_ms.a, 3)});
  std::printf("%s\n", execute.ToText().c_str());

  std::printf("== Flight-recorder overhead ==\n");
  const size_t recorder_tasks = quick ? 2000 : 20000;
  const int recorder_batches = quick ? 3 : 8;
  std::printf("SimulatedSource; %zu tasks x %d batches, %d interleaved "
              "pairs\n\n",
              recorder_tasks, recorder_batches, bench::kRepeats);
  obs::EventRecorder& recorder = obs::EventRecorder::Global();
  const bench::PairSpread recorder_seconds = bench::RepeatPairs(
      bench::kRepeats,
      [&] {
        recorder.set_enabled(false);
        return MeasureCommitSeconds(recorder_tasks, recorder_batches);
      },
      [&] {
        recorder.Reset();  // Stats below describe exactly one enabled run.
        recorder.set_enabled(true);
        const double seconds =
            MeasureCommitSeconds(recorder_tasks, recorder_batches);
        recorder.set_enabled(false);
        return seconds;
      });
  const obs::EventRecorder::Stats recorder_stats = recorder.stats();
  TableWriter overhead({"recorder", "wall sec [p25, p75]", "events emitted",
                        "dropped"});
  overhead.AddRow(
      {"off", bench::FormatSpread(recorder_seconds.a, 6), "0", "0"});
  overhead.AddRow({"on", bench::FormatSpread(recorder_seconds.b, 6),
                   std::to_string(recorder_stats.emitted),
                   std::to_string(recorder_stats.dropped)});
  std::printf("%s\n", overhead.ToText().c_str());
  std::printf("recorder overhead: %s%% (not gated)\n",
              bench::FormatSpread(recorder_seconds.diff_pct, 1).c_str());

  const Status written = bench::WriteBenchJson(
      "BENCH_sync_executor.json", "sync_executor", bench::kRepeats,
      bench::JsonObject()
          .Raw("execute",
               bench::JsonObject()
                   .Num("tasks", execute_tasks)
                   .Num("pairs", execute_pairs)
                   .Spread("fetches_alone_ms", execute_ms.a)
                   .Spread("execute_ms", execute_ms.b)
                   .Spread("executor_over_fetches_ms", execute_ms.diff)
                   .Spread("executor_over_fetches_pct", execute_ms.diff_pct)
                   .str())
          .Raw("recorder",
               bench::JsonObject()
                   .Num("tasks_per_batch", recorder_tasks)
                   .Num("batches", recorder_batches)
                   .Spread("off_seconds", recorder_seconds.a)
                   .Spread("on_seconds", recorder_seconds.b)
                   .Spread("overhead_seconds", recorder_seconds.diff)
                   .Spread("overhead_pct", recorder_seconds.diff_pct)
                   .Num("events_per_run", recorder_stats.emitted)
                   .Num("dropped_per_run", recorder_stats.dropped)
                   .str()));
  return bench::GateReport().ExitCode(written);
}
