// Sync-executor bench: three interleaved A/B comparisons (the first side
// alternates; medians and quartiles land in BENCH_sync_executor.json):
//   1. One Execute call on a 2,400-task batch against a lossy
//      SimulatedSource, beside the same batch's fetches alone.
//   2. The online loop through a PerfectSource executor vs inline syncs. The
//      executor path must keep the inline perceived freshness bit for bit:
//      the bench's one gate.
//   3. The obs flight recorder off vs on along the commit path. Not gated:
//      Execute's in-order pass makes the commit path short enough that the
//      emits are a visible share of it. The committed full-size run on 4
//      hardware threads reads +7.0% [-2.7, +14.3]% (median [p25, p75]).
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/table_writer.h"
#include "common/timer.h"
#include "mirror/online_loop.h"
#include "obs/metrics.h"
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

// One period-loop run to completion on a fresh loop; returns wall seconds.
double TimeLoop(const ElementSet& truth, sync::SyncExecutor* executor,
                int periods, double* pf_sum) {
  obs::MetricsRegistry registry;
  OnlineFreshenLoop::Options options;
  options.accesses_per_period = 2000.0;
  options.seed = 1234;
  options.registry = &registry;
  options.executor = executor;
  OnlineFreshenLoop loop =
      OnlineFreshenLoop::Create(truth, /*bandwidth=*/80.0, options).value();
  *pf_sum = 0.0;
  WallTimer timer;
  for (int period = 0; period < periods; ++period) {
    *pf_sum += loop.RunPeriod().perceived_freshness;
  }
  return timer.ElapsedSeconds();
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

  std::printf("== PerfectSource fast path vs inline sync ==\n");
  std::printf("same loop seed, %d interleaved pairs; the executor path must "
              "keep the inline PF bit for bit\n\n",
              bench::kRepeats);
  ExperimentSpec spec = ExperimentSpec::IdealCase();
  spec.num_objects = quick ? 200 : 1000;
  const ElementSet truth = bench::MustCatalog(spec);
  const int periods = quick ? 10 : 40;
  double inline_pf = 0.0;
  double executor_pf = 0.0;
  bool pf_exact = true;
  const bench::PairSpread loop_seconds = bench::RepeatPairs(
      bench::kRepeats,
      [&] { return TimeLoop(truth, nullptr, periods, &inline_pf); },
      [&] {
        sync::PerfectSource perfect;
        auto executor = sync::SyncExecutor::Create(&perfect, {}).value();
        const double seconds =
            TimeLoop(truth, executor.get(), periods, &executor_pf);
        pf_exact &= executor_pf == inline_pf;
        return seconds;
      });
  // Pair 0 runs inline first, so every executor run compares against an
  // inline run of the same seed.
  TableWriter parity({"path", "periods", "wall sec [p25, p75]", "mean PF"});
  parity.AddRow({"inline", std::to_string(periods),
                 bench::FormatSpread(loop_seconds.a, 6),
                 std::to_string(inline_pf / periods)});
  parity.AddRow({"executor (perfect)", std::to_string(periods),
                 bench::FormatSpread(loop_seconds.b, 6),
                 std::to_string(executor_pf / periods)});
  std::printf("%s\n", parity.ToText().c_str());
  std::printf("PF parity: %s  (overhead: %s%%)\n",
              pf_exact ? "EXACT" : "MISMATCH",
              bench::FormatSpread(loop_seconds.diff_pct, 1).c_str());

  std::printf("\n== Flight-recorder overhead ==\n");
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

  bench::GateReport gates;
  gates.Check(pf_exact,
              StrFormat("PerfectSource executor PF %.17g != inline PF %.17g "
                        "over %d periods",
                        executor_pf, inline_pf, periods));
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
          .Raw("parity",
               bench::JsonObject()
                   .Num("objects", spec.num_objects)
                   .Num("periods", periods)
                   .Spread("inline_seconds", loop_seconds.a)
                   .Spread("executor_seconds", loop_seconds.b)
                   .Spread("executor_overhead_seconds", loop_seconds.diff)
                   .Spread("executor_overhead_pct", loop_seconds.diff_pct)
                   .Bool("pf_exact", pf_exact)
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
  return gates.ExitCode(written);
}
