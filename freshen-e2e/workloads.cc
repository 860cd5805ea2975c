#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "common/string_util.h"
#include "common/timer.h"
#include "core/planner.h"
#include "io/catalog_binary.h"
#include "io/catalog_io.h"
#include "load_client.h"
#include "model/metrics.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "serve/daemon.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "sync/executor.h"
#include "sync/source.h"

namespace freshen::bench {
namespace {

using obs::RegistrySnapshot;

// setup_s is the median of the pass's set-ups: at least kMinSetups, and more
// while they have taken less than kSetupSeconds in all, up to kMaxSetups.
// A set-up of ~12 ms (loop_events) is then sampled often enough for the
// scheduler's wake-up noise to average out; one of ~0.5 s is not repeated
// past three.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 25;
constexpr double kSetupSeconds = 1.0;
constexpr size_t kQueryConnections = 2;
// Queries in flight per connection while measuring capacity.
constexpr size_t kCapacityDepth = 32;
constexpr double kCapacitySeconds = 1.0;
// In-process calls per direct probe of the serve layer.
constexpr int kDirectCalls = 100000;
// One query in this many becomes a client span in a traced run.
constexpr uint32_t kTraceEvery = 64;
// Larger than any period's due syncs, so the executor never drops a task
// for backpressure: drops would depend on thread timing, and the loop's
// outputs would no longer repeat at a fixed seed.
constexpr size_t kExecutorQueue = 1 << 16;

// Why each exists is in BENCHMARK.json and README.md.
const std::vector<Workload> kWorkloads = {
    {"loop_events",
     "--objects 10000 --bandwidth 2500 --accesses 10000 --error-rate 0.05 "
     "--period-seconds 0",
     10000, 1.0, 2500.0, 10000.0, 0.05, 0.0, 5, 0.2, 5000.0, 10.0},
    {"loop_replan",
     "--catalog <N=500000 sigma=2> --bandwidth 50 --accesses 40 "
     "--error-rate 0.05 --period-seconds 0",
     500000, 2.0, 50.0, 40.0, 0.05, 0.0, 2, 0.53, 5000.0, 10.0},
    {"query_read",
     "--catalog <N=100000 sigma=2> --bandwidth 200 --accesses 200 "
     "--error-rate 0.05 --period-seconds 0.5",
     100000, 2.0, 200.0, 200.0, 0.05, 0.5, 2, 0.5, 100000.0, 10.0},
    {"query_churn",
     "--catalog <N=100000 sigma=2> --bandwidth 200 --accesses 200 "
     "--error-rate 0.05 --period-seconds 0.1",
     100000, 2.0, 200.0, 200.0, 0.05, 0.1, 2, 0.15, 25000.0, 20.0},
};

// A benchmark span (EmitSpan) over a scope.
class BenchSpan {
 public:
  explicit BenchSpan(const char* name)
      : name_(name), begin_(obs::RecorderNowSeconds()) {}
  ~BenchSpan() { EmitSpan(name_, "bench", begin_, obs::RecorderNowSeconds()); }
  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;

 private:
  const char* name_;
  double begin_;
};

// One freshend: the simulated origin, the sync executor, the daemon, its
// socket server and the benchmark's client. TearDown releases them in
// dependency order (the daemon's loop uses the executor, the server reads
// the daemon, the client talks to the server).
struct Stack {
  Stack() = default;
  ~Stack() { TearDown(); }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  void TearDown() {
    client.reset();
    server.reset();
    daemon.reset();
    executor.reset();
    source.reset();
  }

  std::unique_ptr<sync::SimulatedSource> source;
  std::unique_ptr<sync::SyncExecutor> executor;
  std::unique_ptr<serve::FreshendDaemon> daemon;
  std::unique_ptr<serve::LineServer> server;
  std::unique_ptr<LoadClient> client;
};

struct SetupTimes {
  std::vector<double> total;
  std::vector<double> load;
  std::vector<double> create;
  std::vector<double> initial_solve;
  std::vector<double> ready;
};

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

double Value(const RegistrySnapshot& snapshot, const std::string& name) {
  const obs::MetricSample* sample = snapshot.Find(name);
  return sample != nullptr ? sample->value : 0.0;
}

struct HistTotals {
  double sum = 0.0;
  double count = 0.0;
};

// Sum and count over the series of histogram `name` whose labels equal
// `labels`, or over all of its series when `labels` is empty.
HistTotals Hist(const RegistrySnapshot& snapshot, const std::string& name,
                const obs::Labels& labels = {}) {
  HistTotals totals;
  for (const obs::MetricSample& sample : snapshot.samples) {
    if (sample.name != name) continue;
    if (!labels.empty() && sample.labels != labels) continue;
    totals.sum += sample.sum;
    totals.count += static_cast<double>(sample.count);
  }
  return totals;
}

// What the registry gained between two snapshots.
class Delta {
 public:
  Delta(const RegistrySnapshot& before, const RegistrySnapshot& after)
      : before_(before), after_(after) {}

  double Count(const std::string& name) const {
    return Value(after_, name) - Value(before_, name);
  }

  HistTotals Hist(const std::string& name,
                  const obs::Labels& labels = {}) const {
    const HistTotals a = bench::Hist(after_, name, labels);
    const HistTotals b = bench::Hist(before_, name, labels);
    return {a.sum - b.sum, a.count - b.count};
  }

  // Seconds spent in the program's trace span at `path`.
  double SpanSeconds(const char* path) const {
    return Hist(obs::kSpanHistogramName, {{"span", path}}).sum;
  }

  // Mean of a histogram over the window (0 when nothing was recorded).
  double Mean(const std::string& name, const obs::Labels& labels = {}) const {
    const HistTotals totals = Hist(name, labels);
    return Ratio(totals.sum, totals.count);
  }

 private:
  const RegistrySnapshot& before_;
  const RegistrySnapshot& after_;
};

Status SetUp(const Workload& workload, const PassOptions& options,
             uint64_t max_periods, Stack& stack, SetupTimes& times) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  WallTimer timer;
  ElementSet truth;
  {
    BenchSpan span("load");
    FRESHEN_ASSIGN_OR_RETURN(truth, LoadCatalogBinary(options.catalog_path));
  }
  const double load = timer.ElapsedSeconds();

  const double solved_before =
      Hist(registry.Snapshot(), "freshen_solver_solve_seconds").sum;
  timer.Restart();
  {
    BenchSpan span("create");
    sync::SimulatedSource::Options source_options;
    source_options.error_rate = workload.error_rate;
    source_options.seed = options.seed ^ 0x647268ULL;
    FRESHEN_ASSIGN_OR_RETURN(sync::SimulatedSource source,
                             sync::SimulatedSource::Create(source_options));
    stack.source = std::make_unique<sync::SimulatedSource>(std::move(source));
    sync::SyncExecutor::Options executor_options;
    executor_options.queue_capacity = kExecutorQueue;
    executor_options.seed = options.seed ^ 0x73796eULL;
    FRESHEN_ASSIGN_OR_RETURN(
        stack.executor,
        sync::SyncExecutor::Create(stack.source.get(), executor_options));
    serve::FreshendDaemon::Options daemon_options;
    daemon_options.loop.accesses_per_period = workload.accesses_per_period;
    daemon_options.loop.seed = options.seed ^ 0x6f6c6fULL;
    daemon_options.loop.executor = stack.executor.get();
    daemon_options.period_seconds = workload.period_seconds;
    daemon_options.max_periods = max_periods;
    FRESHEN_ASSIGN_OR_RETURN(
        stack.daemon, serve::FreshendDaemon::Create(
                          std::move(truth), workload.bandwidth, daemon_options));
  }
  const double create = timer.ElapsedSeconds();
  // Ready means epoch 1 is published; anything else is a broken daemon.
  {
    const serve::SnapshotRef first = stack.daemon->AcquireSnapshot();
    if (!first || first->epoch() != 1) {
      return Status::Internal("daemon not ready at epoch 1 after Create");
    }
  }
  const double solved =
      Hist(registry.Snapshot(), "freshen_solver_solve_seconds").sum -
      solved_before;

  timer.Restart();
  {
    BenchSpan span("server_start");
    serve::LineServer::Options server_options;
    server_options.socket_path = options.socket_path;
    FRESHEN_ASSIGN_OR_RETURN(
        stack.server,
        serve::LineServer::Start(stack.daemon.get(), server_options));
    FRESHEN_ASSIGN_OR_RETURN(
        stack.client,
        LoadClient::Connect(options.socket_path, kQueryConnections,
                            options.keys, options.seed ^ 0x636c69ULL));
    FRESHEN_RETURN_IF_ERROR(stack.client->Ping());
  }
  const double ready = timer.ElapsedSeconds();

  times.total.push_back(load + create + ready);
  times.load.push_back(load);
  times.create.push_back(create);
  times.initial_solve.push_back(solved);
  times.ready.push_back(ready);
  return Status::OK();
}

// Median over one-second slices of the run of each slice's `q`-quantile
// latency (`at` is seconds into the run). Slices with fewer than 100
// answers (the ragged end) are skipped. A burst of host interference then
// moves one slice, not the result.
double SliceQuantileMedian(const std::vector<float>& at,
                           const std::vector<float>& latency, double q) {
  std::vector<std::vector<float>> slices;
  for (size_t i = 0; i < at.size(); ++i) {
    const size_t slice = static_cast<size_t>(at[i]);
    if (slices.size() <= slice) slices.resize(slice + 1);
    slices[slice].push_back(latency[i]);
  }
  std::vector<double> quantiles;
  for (std::vector<float>& slice : slices) {
    if (slice.size() >= 100) quantiles.push_back(Percentile(slice, q));
  }
  return Median(quantiles);
}

// Periods in the measured window for a run of `seconds`.
uint64_t MeasuredPeriods(const Workload& workload, double seconds,
                         bool quick) {
  const double periods = std::round(seconds / workload.nominal_period_seconds);
  return std::max<uint64_t>(2, static_cast<uint64_t>(quick ? periods / 5
                                                           : periods));
}

// Mean in-process cost of `call`, microseconds per call.
template <typename Call>
double MicrosPerCall(int calls, Call&& call) {
  WallTimer timer;
  for (int i = 0; i < calls; ++i) call(i);
  return timer.ElapsedSeconds() * 1e6 / calls;
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : kWorkloads) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

Workload Shrink(const Workload& workload) {
  Workload quick = workload;
  quick.num_objects /= 10;
  quick.bandwidth /= 10.0;
  quick.accesses_per_period = std::max(1.0, quick.accesses_per_period / 10.0);
  quick.period_seconds /= 5.0;
  quick.warmup_periods = 1;
  quick.query_rate /= 5.0;
  return quick;
}

Status RunPass(const Workload& workload, const PassOptions& options,
               RunResult* result) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::EventRecorder& recorder = obs::EventRecorder::Global();
  recorder.Reset();
  recorder.set_enabled(options.traced);

  const uint64_t total_periods =
      workload.warmup_periods +
      MeasuredPeriods(workload, options.seconds, options.quick);

  Stack stack;
  SetupTimes setup;
  double setup_seconds = 0.0;
  for (int i = 0; i < kMinSetups ||
                  (i < kMaxSetups && setup_seconds < kSetupSeconds);
       ++i) {
    if (i > 0) stack.TearDown();
    FRESHEN_RETURN_IF_ERROR(
        SetUp(workload, options, total_periods, stack, setup));
    setup_seconds += setup.total.back();
  }
  serve::FreshendDaemon& daemon = *stack.daemon;
  LoadClient& client = *stack.client;
  const obs::Gauge* retired_gauge =
      registry.GetGauge("freshen_serve_retired_pending");

  // Warm-up periods run without client load. The window opens at the first
  // poll that finds them done and closes when the loop stops at
  // max_periods. The poll may land a period late, so the window's period
  // count is read from the daemon, not assumed: PeriodsRun() is read on
  // both sides of the snapshot, and a period that ends in between makes
  // the snapshot be taken again.
  const RegistrySnapshot start = registry.Snapshot();
  FRESHEN_RETURN_IF_ERROR(daemon.Start());
  {
    BenchSpan span("warmup");
    while (daemon.running() && daemon.PeriodsRun() < workload.warmup_periods) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  RegistrySnapshot window_open;
  uint64_t opened = daemon.PeriodsRun();
  for (;;) {
    window_open = registry.Snapshot();
    const uint64_t again = daemon.PeriodsRun();
    if (again == opened) break;
    opened = again;
  }
  recorder.set_enabled(false);
  const double window_start = obs::RecorderNowSeconds();
  std::atomic<bool> stop{false};
  ClientReport open;
  std::thread generator([&] {
    open = client.RunOpenLoop(workload.query_rate, workload.scrape_hz,
                              options.traced ? kTraceEvery : 0, stop);
  });
  // Each measured period the 1 ms poll sees end on its own: when it ran,
  // its busy time (the growth of the "period" span, which the loop records
  // before it counts the period), and whether it ran traced. A traced run
  // records the odd measured periods only, so the tracing overhead compares
  // periods that ran side by side, through the same host conditions. Two
  // periods ending within one poll are left out of these samples (the
  // second ran with the recorder set for the first); the window totals
  // below still count them.
  struct PolledPeriod {
    double begin;
    double end;
    double busy_ms;
    bool traced;
  };
  std::vector<PolledPeriod> polled;
  const obs::Histogram* period_span = registry.GetHistogram(
      obs::kSpanHistogramName, obs::LatencySecondsBuckets(),
      {{"span", "period"}});
  double retired_max = 0.0;
  uint64_t seen = opened;
  double seen_sum =
      Hist(window_open, obs::kSpanHistogramName, {{"span", "period"}}).sum;
  double seen_at = window_start;
  bool tracing = false;
  for (bool running = true; running;) {
    running = daemon.running();
    retired_max = std::max(retired_max, retired_gauge->value());
    const uint64_t done = daemon.PeriodsRun();
    if (done != seen) {
      const double sum = period_span->sum();
      const double now = obs::RecorderNowSeconds();
      if (done == seen + 1) {
        polled.push_back({seen_at, now, (sum - seen_sum) * 1e3, tracing});
      }
      seen = done;
      seen_sum = sum;
      seen_at = now;
      tracing = options.traced && (done - opened) % 2 == 1;
      recorder.set_enabled(tracing);
    }
    if (running) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double window_end = obs::RecorderNowSeconds();
  const RegistrySnapshot window_close = registry.Snapshot();
  // The stack's high-water mark, before the capacity phase, the probes and
  // the summaries below allocate.
  const double rss_mb = PeakRssMb();
  stop.store(true, std::memory_order_release);
  generator.join();
  daemon.Stop();
  recorder.set_enabled(options.traced);
  EmitSpan("measure", "bench", window_start, window_end);

  // Socket capacity with the loop stopped: the median of four slices, each
  // keeping kCapacityDepth queries in flight on every query connection.
  ClientReport capacity;
  std::vector<double> capacity_rps;
  {
    BenchSpan span("capacity");
    for (int slice = 0; slice < 4; ++slice) {
      const ClientReport part = client.RunClosedLoop(
          kCapacityDepth, (options.quick ? 0.5 : kCapacitySeconds) / 4);
      capacity_rps.push_back(Ratio(static_cast<double>(part.answered_in_window),
                                   part.window_seconds));
      capacity.sent += part.sent;
      capacity.failed += part.failed;
      capacity.invalid += part.invalid;
      if (capacity.first_error.empty()) capacity.first_error = part.first_error;
    }
  }

  // In-process probes of the serve layer on the stopped daemon: the
  // protocol handler and the raw snapshot lookup, without the transport.
  Rng probe_rng(options.seed ^ 0x70726fULL);
  std::vector<uint32_t> probe_keys(kDirectCalls);
  std::vector<std::string> probe_lines(kDirectCalls);
  for (int i = 0; i < kDirectCalls; ++i) {
    probe_keys[i] = static_cast<uint32_t>(options.keys->Sample(probe_rng));
    probe_lines[i] = StrFormat("ISFRESH %u", probe_keys[i]);
  }
  size_t probe_failures = 0;
  double direct_handle_us = 0.0;
  double direct_lookup_us = 0.0;
  {
    BenchSpan span("direct_probes");
    direct_handle_us = MicrosPerCall(kDirectCalls, [&](int i) {
      if (serve::HandleRequestLine(daemon, probe_lines[i]).line.rfind(
              "{\"ok\":true", 0) != 0) {
        ++probe_failures;
      }
    });
    direct_lookup_us = MicrosPerCall(kDirectCalls, [&](int i) {
      if (!daemon.IsFresh(probe_keys[i]).ok()) ++probe_failures;
    });
  }

  // The perceived freshness the final plan delivers on the true catalog
  // (the expected share of accesses that find a fresh copy), and the best
  // any plan could deliver there under the same bandwidth: the plan the
  // controller's planner (default options, as in the daemon) makes when it
  // knows the catalog instead of learning it. Solved after the window, so
  // none of it is measured.
  const ElementSet& truth = daemon.loop().truth();
  const std::vector<double>& frequencies =
      daemon.loop().controller().frequencies();
  const double plan_pf = PerceivedFreshness(truth, frequencies);
  double oracle_pf = 0.0;
  {
    BenchSpan span("oracle_plan");
    FRESHEN_ASSIGN_OR_RETURN(
        const FreshenPlan oracle,
        FreshenPlanner(PlannerOptions()).Plan(truth, workload.bandwidth));
    oracle_pf = PerceivedFreshness(truth, oracle.frequencies);
  }

  // ---- End-to-end metrics -------------------------------------------------
  // Only what repeats within its bound across seeds and host phases is
  // gated: set-up time, plan quality and memory. The period and query
  // timings below swing 1.5-2x with the host's load (README.md,
  // Calibration) and are reported per layer.
  const Delta run(start, window_close);
  const Delta win(window_open, window_close);
  const double accesses = run.Count("freshen_mirror_accesses_total");
  const double fresh = run.Count("freshen_mirror_fresh_accesses_total");
  const double pf = Ratio(fresh, accesses);

  result->Set("setup_s", "s", Median(setup.total), setup.total);
  // The share of the attainable freshness the learned plan reaches. Unlike
  // plan_pf itself it does not follow the catalog a seed draws (the λ of
  // the few Zipf-top elements sets most of plan_pf on loop_replan), only
  // how well the loop estimates and plans.
  result->Set("plan_pf_ratio", "fraction", Ratio(plan_pf, oracle_pf));
  result->Set("rss_mb", "MB", rss_mb);

  // ---- Per-layer metrics --------------------------------------------------
  // Span times come from the measured window. Counters are taken over the
  // whole run, whose edges are exact (the loop is stopped at both), and
  // divided by every period it ran.
  const double periods_in_window =
      win.Hist(obs::kSpanHistogramName, {{"span", "period"}}).count;
  const double period_seconds = win.SpanSeconds("period");
  const double sync_seconds = win.SpanSeconds("period/sync_execute");
  const double replan_seconds = win.SpanSeconds("period/replan");
  const double publish_seconds = win.SpanSeconds("period/serve_publish");
  const double self_ms = Ratio(period_seconds - sync_seconds - replan_seconds -
                                   publish_seconds,
                               periods_in_window) *
                         1e3;
  const double periods = static_cast<double>(total_periods);
  const double events_per_period =
      (run.Count("freshen_mirror_syncs_total") + accesses) / periods;
  const double tasks = run.Count("freshen_sync_tasks_total");
  const double full_publishes = [&] {
    const auto count = [](const RegistrySnapshot& s) {
      const obs::MetricSample* sample =
          s.Find("freshen_serve_publishes_total", {{"kind", "full"}});
      return sample != nullptr ? sample->value : 0.0;
    };
    return count(window_close) - count(start);
  }();
  const double publishes = run.Hist("freshen_serve_publish_seconds").count;
  const auto handle_us = [&](const char* cmd) {
    return win.Mean("freshen_serve_command_seconds", {{"cmd", cmd}}) * 1e6;
  };
  const double query_handle_us = [&] {
    const HistTotals isfresh =
        win.Hist("freshen_serve_command_seconds", {{"cmd", "isfresh"}});
    const HistTotals age =
        win.Hist("freshen_serve_command_seconds", {{"cmd", "age"}});
    const HistTotals plan =
        win.Hist("freshen_serve_command_seconds", {{"cmd", "plan"}});
    return Ratio(isfresh.sum + age.sum + plan.sum,
                 isfresh.count + age.count + plan.count) *
           1e6;
  }();
  std::vector<float> latency = open.latency_us;
  std::vector<float> admin = open.admin_us;
  std::vector<float> rtt = open.rtt_us;
  std::vector<float> lag = open.lag_us;
  const double rtt_p50 = Percentile(rtt, 0.50);
  std::vector<double> period_ms;
  for (const PolledPeriod& period : polled) period_ms.push_back(period.busy_ms);

  result->Set("io.catalog_load_s", "s", Median(setup.load), setup.load);
  result->Set("serve.daemon_create_s", "s", Median(setup.create),
              setup.create);
  result->Set("opt.initial_solve_s", "s", Median(setup.initial_solve),
              setup.initial_solve);
  result->Set("serve.server_ready_s", "s", Median(setup.ready), setup.ready);
  result->Set("mirror.period_ms", "ms",
              Ratio(period_seconds, periods_in_window) * 1e3, period_ms);
  result->Set("mirror.period_self_ms", "ms", self_ms);
  result->Set("mirror.events_per_period", "count", events_per_period);
  result->Set("mirror.self_us_per_event", "us",
              Ratio(self_ms, events_per_period) * 1e3);
  result->Set("mirror.pf", "fraction", pf);
  result->Set("mirror.busy_frac", "fraction",
              Ratio(period_seconds, window_end - window_start));
  result->Set("sync.execute_ms", "ms",
              Ratio(sync_seconds, periods_in_window) * 1e3);
  result->Set("sync.tasks_per_period", "count", tasks / periods);
  result->Set("sync.attempts_per_task", "count",
              Ratio(run.Count("freshen_sync_attempts_total"), tasks));
  result->Set("sync.applied_frac", "fraction",
              Ratio(run.Count("freshen_sync_applied_total"), tasks));
  result->Set("adaptive.plan_pf", "fraction", plan_pf);
  result->Set("adaptive.replan_ms", "ms",
              win.Mean("freshen_adaptive_replan_seconds") * 1e3);
  result->Set("opt.solve_ms", "ms",
              win.Mean("freshen_solver_solve_seconds") * 1e3);
  result->Set("opt.solver_iterations", "count",
              win.Mean("freshen_solver_iterations"));
  result->Set("opt.par_efficiency", "fraction",
              Value(window_close, "freshen_par_last_region_efficiency"));
  result->Set("serve.publish_ms", "ms",
              win.Mean("freshen_serve_publish_seconds") * 1e3);
  result->Set("serve.publish_full_frac", "fraction",
              Ratio(full_publishes, publishes));
  result->Set("serve.retired_pending_max", "count", retired_max);
  result->Set("serve.handle_us.isfresh", "us", handle_us("isfresh"));
  result->Set("serve.handle_us.age", "us", handle_us("age"));
  result->Set("serve.handle_us.plan", "us", handle_us("plan"));
  result->Set("serve.handle_us.metrics", "us", handle_us("metrics"));
  result->Set("serve.admin_p50_us", "us", Percentile(admin, 0.50));
  result->Set("serve.capacity_rps", "req/s", Median(capacity_rps),
              capacity_rps);
  result->Set("serve.direct_handle_us", "us", direct_handle_us);
  result->Set("serve.direct_lookup_us", "us", direct_lookup_us);
  result->Set("serve.transport_us", "us", rtt_p50 - query_handle_us);
  result->Set("client.query_p50_us", "us", Percentile(latency, 0.50));
  result->Set("client.query_p99_us", "us",
              SliceQuantileMedian(open.query_at, open.latency_us, 0.99));
  result->Set("client.gen_lag_p99_us", "us", Percentile(lag, 0.99));
  result->Set("client.rtt_p50_us", "us", rtt_p50);

  // ---- Correctness ----------------------------------------------------------
  const uint64_t sent = open.sent + capacity.sent;
  result->AddOperations(sent, open.failed + capacity.failed);
  result->Check(open.invalid + capacity.invalid == 0,
                "malformed or mismatched responses: " +
                    (open.first_error.empty() ? capacity.first_error
                                              : open.first_error));
  result->Check(probe_failures == 0, "in-process probes failed");
  const double periods_run = run.Count("freshen_mirror_periods_total");
  result->Check(daemon.PeriodsRun() == total_periods &&
                    periods_run == static_cast<double>(total_periods),
                StrFormat("loop ran %llu periods (registry %.0f), wanted %llu",
                          static_cast<unsigned long long>(daemon.PeriodsRun()),
                          periods_run,
                          static_cast<unsigned long long>(total_periods)));
  result->Check(periods_in_window > 0.0 &&
                    periods_in_window ==
                        static_cast<double>(total_periods - opened),
                StrFormat("window held %.0f periods, wanted %llu",
                          periods_in_window,
                          static_cast<unsigned long long>(total_periods -
                                                          opened)));
  // Every period publishes exactly once on top of the initial epoch 1.
  result->Check(daemon.Stats().snapshot.epoch == total_periods + 1,
                "final epoch is not periods + 1");
  // The SLO monitor sums PeriodStats::accesses; the registry counts each
  // access as it happens. The two views must agree.
  result->Check(daemon.slo() != nullptr &&
                    static_cast<double>(daemon.slo()->Report().total_accesses) ==
                        accesses,
                "SLO access total disagrees with freshen_mirror_accesses");
  const double applied = run.Count("freshen_sync_applied_total");
  const double failed_syncs = run.Count("freshen_sync_failures_total");
  result->Check(applied == run.Count("freshen_mirror_syncs_total"),
                "executor applied syncs disagree with mirror syncs");
  result->Check(run.Count("freshen_sync_tasks_total") ==
                    applied + failed_syncs +
                        run.Count("freshen_sync_dropped_total") +
                        run.Count("freshen_sync_breaker_skipped_total"),
                "sync outcomes do not add up to tasks");
  result->Check(accesses > 0.0 && pf >= 0.0 && pf <= 1.0,
                "pf outside [0, 1]");
  // A learned plan cannot beat the best plan for the truth under the same
  // bandwidth; the slack covers the solver's rounding.
  result->Check(oracle_pf > 0.0 && plan_pf <= oracle_pf * (1.0 + 1e-6),
                StrFormat("plan_pf %.9g above the best plan's %.9g", plan_pf,
                          oracle_pf));

  // Golden values: pure functions of the seed and the period count.
  result->SetGolden("accesses", StrFormat("%.0f", accesses));
  result->SetGolden("fresh_accesses", StrFormat("%.0f", fresh));
  result->SetGolden("applied_syncs", StrFormat("%.0f", applied));
  result->SetGolden("failed_syncs", StrFormat("%.0f", failed_syncs));
  result->SetGolden(
      "frequencies_crc32",
      StrFormat("%08x", Crc32(frequencies.data(),
                              frequencies.size() * sizeof(double))));

  if (options.traced) {
    // Traced against untraced polled periods, and the queries sent in each.
    double sums[2] = {0.0, 0.0};
    double counts[2] = {0.0, 0.0};
    for (const PolledPeriod& period : polled) {
      sums[period.traced] += period.busy_ms;
      counts[period.traced] += 1.0;
    }
    std::vector<float> by_state[2];
    for (size_t i = 0; i < open.query_at.size(); ++i) {
      const double at = open.origin + open.query_at[i];
      const auto after = std::upper_bound(
          polled.begin(), polled.end(), at,
          [](double t, const PolledPeriod& period) { return t < period.begin; });
      if (after == polled.begin()) continue;
      const PolledPeriod& period = *std::prev(after);
      if (at < period.end) by_state[period.traced].push_back(open.latency_us[i]);
    }
    const auto overhead_pct = [](double traced, double plain) {
      return plain > 0.0 ? (traced / plain - 1.0) * 100.0 : 0.0;
    };
    result->Set("obs.trace_overhead_pct", "%",
                overhead_pct(Ratio(sums[1], counts[1]),
                             Ratio(sums[0], counts[0])));
    result->Set("obs.trace_overhead_query_pct", "%",
                overhead_pct(Percentile(by_state[1], 0.5),
                             Percentile(by_state[0], 0.5)));
    recorder.set_enabled(false);
    const obs::EventRecorder::Stats stats = recorder.stats();
    result->Set("obs.recorder_dropped", "count",
                static_cast<double>(stats.dropped));
    result->Check(stats.emitted == stats.recorded + stats.dropped,
                  "recorder emitted != recorded + dropped");
    FRESHEN_RETURN_IF_ERROR(WriteStringToFile(
        obs::FormatChromeTrace(recorder.Collect()), options.trace_path));
  }
  return Status::OK();
}

}  // namespace freshen::bench
