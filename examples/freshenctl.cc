// freshenctl — a command-line front end for libfreshen, so the library can
// be driven from shell pipelines and real operational data.
//
// Subcommands:
//   gen   --objects N [--theta T] [--mean-rate R] [--stddev S]
//         [--alignment aligned|reverse|shuffled] [--sizes uniform|pareto]
//         [--seed K] [--out FILE]
//       Generate a synthetic catalog CSV (paper-style workload).
//
//   plan  --catalog FILE --bandwidth B [--technique pf|gf|age]
//         [--partitions K] [--kmeans I] [--size-aware]
//         [--allocation fba|ffa] [--out FILE]
//       Compute a freshening plan for a catalog CSV; prints a summary and
//       optionally writes the per-element schedule CSV.
//
//   eval  --catalog FILE --bandwidth B [--simulate]
//       Compare PF vs GF plans for a catalog (analytic; --simulate adds the
//       discrete-event check).
//
//   metrics [--objects N] [--bandwidth B] [--periods P] [--accesses A]
//           [--theta T] [--seed K]
//       Run a closed-loop mirror (OnlineFreshenLoop) for P periods and dump
//       the metrics-registry snapshot (replan counters/latency, solver
//       iterations, sync/access/bandwidth counters, estimator-error gauges).
//
//   sync-drill [--objects N] [--bandwidth B] [--periods P] [--accesses A]
//              [--error-rate E] [--stall-rate S] [--latency-mean L]
//              [--queue Q] [--retries R] [--theta T] [--seed K]
//       Fault drill for the sync executor: run the same closed loop three
//       ways — inline syncs, a PerfectSource executor (parity check), and a
//       fault-injecting SimulatedSource executor — and print the per-period
//       degradation (failed/dropped/breaker-skipped syncs, wasted bandwidth,
//       freshness). --queue Q admits only the first Q due syncs of each
//       period into the faulted executor; the rest drop. The faulted run
//       reports into the global registry, so --metrics-out exports all
//       freshen_sync_* series.
//
//   trace [--objects N] [--bandwidth B] [--periods P] [--accesses A]
//         [--error-rate E] [--stall-rate S] [--latency-mean L] [--queue Q]
//         [--retries R] [--theta T] [--seed K] [--age-slo S]
//         [--top-k K] [--trace-out FILE] [--timeline-out FILE]
//       Flight-recorder showcase: run the closed loop against a
//       fault-injecting executor with the event recorder on and the
//       staleness timeline attached, then write a Chrome trace_event JSON
//       (open it at ui.perfetto.dev) and print the per-element staleness
//       offenders and the fresh-access SLO. Defaults shrink under
//       FRESHEN_QUICK=1. --trace-out defaults to freshen_trace.json here.
//
//   convert --in FILE --out FILE [--to csv|binary]
//       Convert a catalog between CSV and the FRSHCAT1 binary format
//       (io/catalog_binary.h). The input format is auto-detected; --to
//       defaults to the opposite of the input.
//
//   serve-drill [--objects N] [--bandwidth B] [--periods P] [--accesses A]
//               [--error-rate E] [--stall-rate S] [--socket PATH]
//               [--theta T] [--seed K]
//       End-to-end drill of the freshend serving stack, two acts. Act 1:
//       start a FreshendDaemon with a fault-injecting executor, serve the
//       line protocol on a UNIX socket, fire ISFRESH/AGE/PLAN/STATS plus the
//       admin verbs (METRICS/HEALTH/SLO/SLOWLOG) over the socket while the
//       loop churns, then drain gracefully and verify every pinned snapshot
//       was internally consistent. Act 2: a wall-paced daemon with a
//       deliberately wrong rate prior takes a scripted source outage; the
//       drill verifies over the socket that the drift detector flags the
//       plan's bad prior, and watches the freshness SLO walk ok -> alert ->
//       ok (live, over a WATCH stream). Non-zero exit if any act fails.
//
//   top   --socket PATH [--interval S] [--count N]
//       Live terminal view of a running freshend: subscribes to the admin
//       WATCH stream and renders one line per sample (periods, epoch,
//       queries, freshness, SLO state + burn rates, drift score) until the
//       stream ends (--count samples reached, daemon shutdown, or Ctrl-C).
//
// plan and eval accept --catalog-format csv|binary|auto (default auto:
// binary when the file carries the FRSHCAT1 magic, CSV otherwise).
//
// Any command accepts --metrics-out FILE and --metrics-format json|prom|csv:
// after the command runs, the registry snapshot is written to FILE (the
// `metrics` command prints to stdout when --metrics-out is omitted). Flags
// may be spelled --flag value or --flag=value; a flag the subcommand does
// not read (listed above for it, or shared as described here) exits 2 with
// "unknown flag: --name", also when another subcommand reads it.
//
// Any command also accepts --trace-out FILE (enables the global event
// recorder and writes the run's Chrome trace JSON there afterwards), and
// plan/eval/metrics/sync-drill/trace accept --timeline-out FILE (writes the
// staleness-attribution report; .json extension selects JSON, anything else
// the per-element CSV documented in EXPERIMENTS.md) with --age-slo S and
// --top-k K. plan and eval attribute staleness by simulating the planned
// schedule (--horizon H, --sim-accesses A and --seed K shape that run);
// metrics, sync-drill, and trace attribute the online loop itself.
//
// Example:
//   freshenctl gen --objects 1000 --theta 1.2 --out catalog.csv
//   freshenctl plan --catalog catalog.csv --bandwidth 500 --partitions 50
//       --kmeans 5 --out schedule.csv     (one command line)
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "common/table_writer.h"
#include "flags.h"
#include "freshen/freshen.h"
#include "io/catalog_binary.h"
#include "io/catalog_io.h"
#include "serve/daemon.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "obs/chrome_trace.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/timeline.h"

namespace {

using namespace freshen;

[[noreturn]] void Die(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  std::exit(1);
}

template <typename T>
T Unwrap(Result<T> result) {
  if (!result.ok()) Die(result.status());
  return std::move(result).value();
}

void SimulateTimeline(const ElementSet& catalog,
                      const std::vector<double>& frequencies,
                      const std::map<std::string, std::string>& flags,
                      const std::string& out);

// Loads a catalog honoring --catalog-format (csv | binary | auto).
ElementSet LoadCatalogFlagged(const std::map<std::string, std::string>& flags,
                              const std::string& path) {
  const std::string format = GetFlag(flags, "--catalog-format", "auto");
  if (format == "csv") return Unwrap(LoadCatalogCsv(path));
  if (format == "binary") return Unwrap(LoadCatalogBinary(path));
  if (format == "auto") {
    return LooksLikeBinaryCatalog(path) ? Unwrap(LoadCatalogBinary(path))
                                        : Unwrap(LoadCatalogCsv(path));
  }
  Die(Status::InvalidArgument("unknown --catalog-format " + format));
}

int RunGen(const std::map<std::string, std::string>& flags) {
  ExperimentSpec spec;
  spec.num_objects = GetInteger<uint32_t>(flags, "--objects", 500);
  spec.theta = GetDouble(flags, "--theta", 1.0);
  spec.mean_updates_per_object = GetDouble(flags, "--mean-rate", 2.0);
  spec.update_stddev = GetDouble(flags, "--stddev", 1.0);
  spec.seed = GetInteger<uint64_t>(flags, "--seed", 20030305);
  const std::string alignment = GetFlag(flags, "--alignment", "shuffled");
  if (alignment == "aligned") {
    spec.alignment = Alignment::kAligned;
  } else if (alignment == "reverse") {
    spec.alignment = Alignment::kReverse;
  } else if (alignment == "shuffled") {
    spec.alignment = Alignment::kShuffled;
  } else {
    Die(Status::InvalidArgument("unknown --alignment " + alignment));
  }
  const std::string sizes = GetFlag(flags, "--sizes", "uniform");
  if (sizes == "pareto") {
    spec.size_model = SizeModel::kPareto;
  } else if (sizes != "uniform") {
    Die(Status::InvalidArgument("unknown --sizes " + sizes));
  }

  const ElementSet catalog = Unwrap(GenerateCatalog(spec));
  const std::string out = GetFlag(flags, "--out", "");
  if (out.empty()) {
    std::fputs(CatalogToCsv(catalog).c_str(), stdout);
  } else {
    const Status status = SaveCatalogCsv(catalog, out);
    if (!status.ok()) Die(status);
    std::printf("wrote %zu elements to %s\n", catalog.size(), out.c_str());
  }
  return 0;
}

int RunPlan(const std::map<std::string, std::string>& flags) {
  const std::string path = GetFlag(flags, "--catalog", "");
  if (path.empty()) Die(Status::InvalidArgument("--catalog is required"));
  const double bandwidth = GetDouble(flags, "--bandwidth", 0.0);
  const ElementSet catalog = LoadCatalogFlagged(flags, path);

  const std::string technique = GetFlag(flags, "--technique", "pf");
  std::vector<double> frequencies;
  if (technique == "age") {
    // Age minimization runs outside the planner (different objective).
    CoreProblem problem = MakePerceivedProblem(
        catalog, bandwidth, flags.count("--size-aware") > 0);
    Allocation allocation = Unwrap(AgeWaterFillingSolver().Solve(problem));
    frequencies = std::move(allocation.frequencies);
  } else {
    PlannerOptions options;
    if (technique == "gf") {
      options.technique = Technique::kGeneral;
    } else if (technique != "pf") {
      Die(Status::InvalidArgument("unknown --technique " + technique));
    }
    const double partitions = GetDouble(flags, "--partitions", 0);
    if (partitions > 0) {
      options.mode = PlanMode::kPartitioned;
      options.num_partitions = static_cast<size_t>(partitions);
      options.kmeans_iterations = GetInteger<int>(flags, "--kmeans", 0);
    }
    options.size_aware = flags.count("--size-aware") > 0;
    if (GetFlag(flags, "--allocation", "fba") == "ffa") {
      options.allocation_policy = AllocationPolicy::kFixedFrequency;
    }
    FreshenPlan plan =
        Unwrap(FreshenPlanner(options).Plan(catalog, bandwidth));
    frequencies = std::move(plan.frequencies);
  }

  std::printf("catalog          : %s (%zu elements)\n", path.c_str(),
              catalog.size());
  std::printf("bandwidth        : %.6g per period\n", bandwidth);
  std::printf("technique        : %s\n", technique.c_str());
  std::printf("perceived fresh. : %.6f\n",
              PerceivedFreshness(catalog, frequencies));
  std::printf("general fresh.   : %.6f\n",
              GeneralFreshness(catalog, frequencies));
  const double age = PerceivedAge(catalog, frequencies);
  std::printf("perceived age    : %s\n",
              std::isfinite(age) ? FormatDouble(age, 6).c_str() : "inf");

  const std::string out = GetFlag(flags, "--out", "");
  if (!out.empty()) {
    const Status status =
        WriteStringToFile(PlanToCsv(catalog, frequencies), out);
    if (!status.ok()) Die(status);
    std::printf("schedule written : %s\n", out.c_str());
  }
  const std::string timeline_out = GetFlag(flags, "--timeline-out", "");
  if (!timeline_out.empty()) {
    SimulateTimeline(catalog, frequencies, flags, timeline_out);
  }
  return 0;
}

int RunEval(const std::map<std::string, std::string>& flags) {
  const std::string path = GetFlag(flags, "--catalog", "");
  if (path.empty()) Die(Status::InvalidArgument("--catalog is required"));
  const double bandwidth = GetDouble(flags, "--bandwidth", 0.0);
  const ElementSet catalog = LoadCatalogFlagged(flags, path);

  PlannerOptions gf_options;
  gf_options.technique = Technique::kGeneral;
  const FreshenPlan pf = Unwrap(FreshenPlanner({}).Plan(catalog, bandwidth));
  const FreshenPlan gf =
      Unwrap(FreshenPlanner(gf_options).Plan(catalog, bandwidth));
  std::printf("                     PF plan    GF plan\n");
  std::printf("perceived freshness  %8.4f   %8.4f\n", pf.perceived_freshness,
              gf.perceived_freshness);
  std::printf("general freshness    %8.4f   %8.4f\n", pf.general_freshness,
              gf.general_freshness);
  if (flags.count("--simulate") > 0) {
    SimulationConfig config;
    config.horizon_periods = 100.0;
    config.accesses_per_period = 5000.0;
    config.warmup_periods = 10.0;
    MirrorSimulator simulator(catalog, config);
    const SimulationResult pf_sim = Unwrap(simulator.Run(pf.frequencies));
    const SimulationResult gf_sim = Unwrap(simulator.Run(gf.frequencies));
    std::printf("simulated PF         %8.4f   %8.4f\n",
                pf_sim.empirical_perceived_freshness,
                gf_sim.empirical_perceived_freshness);
  }
  const std::string timeline_out = GetFlag(flags, "--timeline-out", "");
  if (!timeline_out.empty()) {
    // Attribute the PF plan's staleness (its own simulation run, so the
    // ledger covers exactly one schedule).
    SimulateTimeline(catalog, pf.frequencies, flags, timeline_out);
  }
  return 0;
}

// Renders the global registry in the requested format ("json", "prom", or
// "csv"; anything else dies).
std::string FormatSnapshot(const obs::RegistrySnapshot& snapshot,
                           const std::string& format) {
  if (format == "json") return obs::FormatJson(snapshot);
  if (format == "prom" || format == "prometheus") {
    return obs::FormatPrometheus(snapshot);
  }
  if (format == "csv") return obs::FormatCsv(snapshot);
  Die(Status::InvalidArgument("unknown --metrics-format " + format));
}

// Honors --metrics-out/--metrics-format after any command. When
// `to_stdout_by_default` is set (the metrics command) the snapshot goes to
// stdout when no path was given.
void MaybeDumpMetrics(const std::map<std::string, std::string>& flags,
                      bool to_stdout_by_default) {
  const std::string out = GetFlag(flags, "--metrics-out", "");
  if (out.empty() && !to_stdout_by_default) return;
  const obs::RegistrySnapshot snapshot =
      obs::MetricsRegistry::Global().Snapshot();
  const std::string format = GetFlag(flags, "--metrics-format", "json");
  const std::string text = FormatSnapshot(snapshot, format);
  if (out.empty()) {
    std::fputs(text.c_str(), stdout);
  } else {
    const Status status = WriteStringToFile(text, out);
    if (!status.ok()) Die(status);
    std::printf("metrics written  : %s (%zu series, %s)\n", out.c_str(),
                snapshot.samples.size(), format.c_str());
  }
}

bool QuickMode() { return std::getenv("FRESHEN_QUICK") != nullptr; }

// Writes the attribution report to `out`: .json selects the window/offender
// JSON document, anything else the per-element CSV (EXPERIMENTS.md schema).
void WriteTimelineReport(const obs::TimelineReport& report,
                         const std::string& out) {
  const bool json =
      out.size() >= 5 && out.compare(out.size() - 5, 5, ".json") == 0;
  const std::string text = json ? obs::FormatTimelineJson(report)
                                : obs::FormatTimelineCsv(report);
  const Status status = WriteStringToFile(text, out);
  if (!status.ok()) Die(status);
  std::printf("timeline written : %s (%zu elements, %zu windows, %s)\n",
              out.c_str(), report.elements.size(), report.periods.size(),
              json ? "json" : "csv");
}

// Prints the report's headline numbers and top-k offender table.
void PrintTimelineSummary(const obs::TimelineReport& report) {
  std::printf("weighted fresh.  : %.6f (timeline-measured)\n",
              report.overall.weighted_freshness);
  std::printf("fresh accesses   : %.4f of %llu\n", report.fresh_access_ratio,
              (unsigned long long)report.overall.accesses);
  std::printf("age SLO (<=%.3g) : %.4f\n", report.age_slo,
              report.slo_access_ratio);
  if (report.overall.offenders.empty()) return;
  TableWriter table({"element", "weight", "stale time", "fresh frac",
                     "score"});
  for (const obs::TimelineElementStats& e : report.overall.offenders) {
    table.AddRow({std::to_string(e.element), FormatDouble(e.weight, 5),
                  FormatDouble(e.stale_time, 4),
                  FormatDouble(e.fresh_fraction, 4),
                  FormatDouble(e.stale_score, 6)});
  }
  std::printf("staleness offenders (top %zu):\n%s",
              report.overall.offenders.size(), table.ToText().c_str());
}

// Simulates `frequencies` over `catalog` with an attached timeline and
// writes the attribution report — the plan/eval path to --timeline-out.
void SimulateTimeline(const ElementSet& catalog,
                      const std::vector<double>& frequencies,
                      const std::map<std::string, std::string>& flags,
                      const std::string& out) {
  const bool quick = QuickMode();
  SimulationConfig config;
  config.horizon_periods =
      GetDouble(flags, "--horizon", quick ? 20.0 : 100.0);
  config.warmup_periods = 0.1 * config.horizon_periods;
  config.accesses_per_period =
      GetDouble(flags, "--sim-accesses", quick ? 500.0 : 5000.0);
  config.seed = GetInteger<uint64_t>(flags, "--seed", 20030305);
  obs::StalenessTimeline::Options timeline_options;
  timeline_options.window_begin = config.warmup_periods;
  timeline_options.window_end = config.horizon_periods;
  timeline_options.age_slo = GetDouble(flags, "--age-slo", 0.25);
  timeline_options.top_k = GetInteger<size_t>(flags, "--top-k", 10);
  obs::StalenessTimeline timeline = Unwrap(obs::StalenessTimeline::Create(
      AccessProbs(catalog), timeline_options));
  config.timeline = &timeline;
  MirrorSimulator simulator(catalog, config);
  const SimulationResult sim = Unwrap(simulator.Run(frequencies));
  const obs::TimelineReport report = timeline.Finalize();
  std::printf("simulated PF     : %.6f (measured %.6f)\n",
              sim.empirical_perceived_freshness,
              sim.measured_weighted_freshness);
  PrintTimelineSummary(report);
  WriteTimelineReport(report, out);
}

int RunMetrics(const std::map<std::string, std::string>& flags) {
  ExperimentSpec spec;
  spec.num_objects = GetInteger<uint32_t>(flags, "--objects", 200);
  spec.theta = GetDouble(flags, "--theta", 1.0);
  spec.seed = GetInteger<uint64_t>(flags, "--seed", 20030305);
  const ElementSet truth = Unwrap(GenerateCatalog(spec));

  const double bandwidth = GetDouble(
      flags, "--bandwidth", 0.25 * static_cast<double>(spec.num_objects));
  const int periods = GetInteger<int>(flags, "--periods", 5);
  OnlineFreshenLoop::Options options;
  options.accesses_per_period = GetDouble(flags, "--accesses", 1000.0);
  options.seed = spec.seed ^ 0x6f6c6fULL;

  const std::string timeline_out = GetFlag(flags, "--timeline-out", "");
  std::unique_ptr<obs::StalenessTimeline> timeline;
  if (!timeline_out.empty()) {
    obs::StalenessTimeline::Options timeline_options;
    timeline_options.window_end = static_cast<double>(periods);
    timeline_options.age_slo = GetDouble(flags, "--age-slo", 0.25);
    timeline_options.top_k = GetInteger<size_t>(flags, "--top-k", 10);
    timeline = std::make_unique<obs::StalenessTimeline>(Unwrap(
        obs::StalenessTimeline::Create(AccessProbs(truth),
                                       timeline_options)));
    options.timeline = timeline.get();
  }
  auto loop = Unwrap(OnlineFreshenLoop::Create(truth, bandwidth, options));

  std::printf("objects   : %zu\n", truth.size());
  std::printf("bandwidth : %.6g per period\n", bandwidth);
  for (int period = 0; period < periods; ++period) {
    const PeriodStats stats = loop.RunPeriod();
    std::printf(
        "period %3d: accesses=%llu syncs=%llu freshness=%.4f bandwidth=%.4g"
        "%s\n",
        period, (unsigned long long)stats.accesses,
        (unsigned long long)stats.syncs, stats.perceived_freshness,
        stats.bandwidth_spent, stats.replanned ? " [replanned]" : "");
  }
  if (timeline != nullptr) {
    const obs::TimelineReport report = timeline->Finalize();
    PrintTimelineSummary(report);
    WriteTimelineReport(report, timeline_out);
  }
  return 0;
}

int RunSyncDrill(const std::map<std::string, std::string>& flags) {
  ExperimentSpec spec;
  spec.num_objects = GetInteger<uint32_t>(flags, "--objects", 200);
  spec.theta = GetDouble(flags, "--theta", 1.0);
  spec.seed = GetInteger<uint64_t>(flags, "--seed", 20030305);
  const ElementSet truth = Unwrap(GenerateCatalog(spec));

  const double bandwidth = GetDouble(
      flags, "--bandwidth", 0.25 * static_cast<double>(spec.num_objects));
  const int periods = GetInteger<int>(flags, "--periods", 8);
  const uint64_t loop_seed = spec.seed ^ 0x6f6c6fULL;

  const auto make_loop_options = [&](obs::MetricsRegistry* registry,
                                     sync::SyncExecutor* executor) {
    OnlineFreshenLoop::Options options;
    options.accesses_per_period = GetDouble(flags, "--accesses", 1000.0);
    options.seed = loop_seed;
    options.registry = registry;
    options.executor = executor;
    return options;
  };
  const auto make_executor_options = [&](obs::MetricsRegistry* registry) {
    sync::SyncExecutor::Options options;
    options.retry.max_attempts = GetInteger<uint32_t>(flags, "--retries", 2);
    options.seed = spec.seed ^ 0x73796eULL;
    options.registry = registry;
    return options;
  };

  // Pass 1: the inline baseline, in a private registry.
  obs::MetricsRegistry inline_registry;
  auto inline_loop = Unwrap(OnlineFreshenLoop::Create(
      truth, bandwidth, make_loop_options(&inline_registry, nullptr)));
  std::vector<PeriodStats> inline_periods;
  for (int period = 0; period < periods; ++period) {
    inline_periods.push_back(inline_loop.RunPeriod());
  }

  // Pass 2: the PerfectSource executor must reproduce pass 1 bit for bit.
  obs::MetricsRegistry perfect_registry;
  sync::PerfectSource perfect;
  auto perfect_executor = Unwrap(sync::SyncExecutor::Create(
      &perfect, make_executor_options(&perfect_registry)));
  auto perfect_loop = Unwrap(OnlineFreshenLoop::Create(
      truth, bandwidth,
      make_loop_options(&perfect_registry, perfect_executor.get())));
  bool parity = true;
  for (int period = 0; period < periods; ++period) {
    const PeriodStats stats = perfect_loop.RunPeriod();
    const PeriodStats& base = inline_periods[static_cast<size_t>(period)];
    parity = parity &&
             stats.perceived_freshness == base.perceived_freshness &&
             stats.mean_access_age == base.mean_access_age &&
             stats.accesses == base.accesses && stats.syncs == base.syncs &&
             stats.bandwidth_spent == base.bandwidth_spent;
  }

  // Pass 3: the fault drill, in the global registry so --metrics-out
  // exports every freshen_sync_* series.
  sync::SimulatedSource::Options source_options;
  source_options.error_rate = GetDouble(flags, "--error-rate", 0.3);
  source_options.stall_rate = GetDouble(flags, "--stall-rate", 0.05);
  source_options.mean_jitter_seconds =
      GetDouble(flags, "--latency-mean", 0.008);
  source_options.seed = spec.seed ^ 0x647268ULL;
  sync::SimulatedSource faulty = Unwrap(
      sync::SimulatedSource::Create(source_options));
  obs::MetricsRegistry& global = obs::MetricsRegistry::Global();
  // Only the faulted run takes the admission bound: the parity check
  // compares an executor that runs every task with the inline path.
  sync::SyncExecutor::Options faulted_executor_options =
      make_executor_options(&global);
  faulted_executor_options.queue_capacity = GetInteger<size_t>(
      flags, "--queue", faulted_executor_options.queue_capacity);
  auto faulted_executor = Unwrap(
      sync::SyncExecutor::Create(&faulty, faulted_executor_options));
  OnlineFreshenLoop::Options faulted_options =
      make_loop_options(&global, faulted_executor.get());
  const std::string timeline_out = GetFlag(flags, "--timeline-out", "");
  std::unique_ptr<obs::StalenessTimeline> timeline;
  if (!timeline_out.empty()) {
    obs::StalenessTimeline::Options timeline_options;
    timeline_options.window_end = static_cast<double>(periods);
    timeline_options.age_slo = GetDouble(flags, "--age-slo", 0.25);
    timeline_options.top_k = GetInteger<size_t>(flags, "--top-k", 10);
    timeline = std::make_unique<obs::StalenessTimeline>(Unwrap(
        obs::StalenessTimeline::Create(AccessProbs(truth),
                                       timeline_options)));
    faulted_options.timeline = timeline.get();
  }
  auto faulted_loop =
      Unwrap(OnlineFreshenLoop::Create(truth, bandwidth, faulted_options));

  std::printf("objects    : %zu\n", truth.size());
  std::printf("bandwidth  : %.6g per period\n", bandwidth);
  std::printf("faults     : error-rate=%.3g stall-rate=%.3g\n",
              source_options.error_rate, source_options.stall_rate);
  std::printf("parity check (PerfectSource vs inline): %s\n",
              parity ? "OK" : "MISMATCH");

  TableWriter table({"period", "PF clean", "PF faulted", "failed", "dropped",
                     "skipped", "wasted bw", "breaker"});
  uint64_t total_failed = 0;
  double total_wasted = 0.0;
  for (int period = 0; period < periods; ++period) {
    const PeriodStats stats = faulted_loop.RunPeriod();
    const PeriodStats& base = inline_periods[static_cast<size_t>(period)];
    total_failed += stats.failed_syncs;
    total_wasted += stats.wasted_bandwidth;
    table.AddRow({std::to_string(period), FormatDouble(base.perceived_freshness, 4),
                  FormatDouble(stats.perceived_freshness, 4),
                  std::to_string(stats.failed_syncs),
                  std::to_string(stats.dropped_syncs),
                  std::to_string(stats.breaker_skipped_syncs),
                  FormatDouble(stats.wasted_bandwidth, 2),
                  sync::BreakerStateName(
                      faulted_executor->breaker().state())});
  }
  std::printf("%s", table.ToText().c_str());
  std::printf("totals     : failed=%llu wasted-bandwidth=%.4g "
              "breaker-opens=%llu\n",
              (unsigned long long)total_failed, total_wasted,
              (unsigned long long)faulted_executor->breaker()
                  .open_transitions());
  if (timeline != nullptr) {
    const obs::TimelineReport report = timeline->Finalize();
    PrintTimelineSummary(report);
    WriteTimelineReport(report, timeline_out);
  }
  return parity ? 0 : 1;
}

int RunTrace(const std::map<std::string, std::string>& flags) {
  const bool quick = QuickMode();
  ExperimentSpec spec;
  spec.num_objects = GetInteger<uint32_t>(flags, "--objects", quick ? 64 : 200);
  spec.theta = GetDouble(flags, "--theta", 1.0);
  spec.seed = GetInteger<uint64_t>(flags, "--seed", 20030305);
  const ElementSet truth = Unwrap(GenerateCatalog(spec));

  const double bandwidth = GetDouble(
      flags, "--bandwidth", 0.25 * static_cast<double>(spec.num_objects));
  const int periods = GetInteger<int>(flags, "--periods", quick ? 3 : 8);

  // Fault-injecting executor in the global registry, same shape as the
  // sync-drill's pass 3 — the trace is most interesting when retries,
  // timeouts, and breaker transitions actually happen.
  sync::SimulatedSource::Options source_options;
  source_options.error_rate = GetDouble(flags, "--error-rate", 0.3);
  source_options.stall_rate = GetDouble(flags, "--stall-rate", 0.05);
  source_options.mean_jitter_seconds =
      GetDouble(flags, "--latency-mean", 0.008);
  source_options.seed = spec.seed ^ 0x647268ULL;
  sync::SimulatedSource faulty =
      Unwrap(sync::SimulatedSource::Create(source_options));
  obs::MetricsRegistry& global = obs::MetricsRegistry::Global();
  sync::SyncExecutor::Options executor_options;
  executor_options.queue_capacity =
      GetInteger<size_t>(flags, "--queue", executor_options.queue_capacity);
  executor_options.retry.max_attempts =
      GetInteger<uint32_t>(flags, "--retries", 2);
  executor_options.seed = spec.seed ^ 0x73796eULL;
  executor_options.registry = &global;
  auto executor =
      Unwrap(sync::SyncExecutor::Create(&faulty, executor_options));

  obs::StalenessTimeline::Options timeline_options;
  timeline_options.window_end = static_cast<double>(periods);
  timeline_options.age_slo = GetDouble(flags, "--age-slo", 0.25);
  timeline_options.top_k = GetInteger<size_t>(flags, "--top-k", 10);
  obs::StalenessTimeline timeline = Unwrap(obs::StalenessTimeline::Create(
      AccessProbs(truth), timeline_options));

  OnlineFreshenLoop::Options loop_options;
  loop_options.accesses_per_period =
      GetDouble(flags, "--accesses", quick ? 200.0 : 1000.0);
  loop_options.seed = spec.seed ^ 0x6f6c6fULL;
  loop_options.registry = &global;
  loop_options.executor = executor.get();
  loop_options.timeline = &timeline;
  auto loop = Unwrap(OnlineFreshenLoop::Create(truth, bandwidth,
                                               loop_options));

  std::printf("objects    : %zu\n", truth.size());
  std::printf("bandwidth  : %.6g per period\n", bandwidth);
  std::printf("periods    : %d\n", periods);
  for (int period = 0; period < periods; ++period) {
    loop.RunPeriod();
  }

  const obs::TimelineReport report = timeline.Finalize();
  PrintTimelineSummary(report);
  const std::string timeline_out = GetFlag(flags, "--timeline-out", "");
  if (!timeline_out.empty()) WriteTimelineReport(report, timeline_out);

  const obs::EventRecorder::Stats stats =
      obs::EventRecorder::Global().stats();
  std::printf("recorder   : emitted=%llu recorded=%llu dropped=%llu "
              "threads=%zu capacity=%zu\n",
              (unsigned long long)stats.emitted,
              (unsigned long long)stats.recorded,
              (unsigned long long)stats.dropped, stats.rings,
              stats.ring_capacity);
  return 0;
}

int RunConvert(const std::map<std::string, std::string>& flags) {
  const std::string in = GetFlag(flags, "--in", "");
  const std::string out = GetFlag(flags, "--out", "");
  if (in.empty() || out.empty()) {
    Die(Status::InvalidArgument("convert requires --in and --out"));
  }
  const bool in_binary = LooksLikeBinaryCatalog(in);
  const ElementSet catalog =
      in_binary ? Unwrap(LoadCatalogBinary(in)) : Unwrap(LoadCatalogCsv(in));
  const std::string to =
      GetFlag(flags, "--to", in_binary ? "csv" : "binary");
  Status status = Status::OK();
  if (to == "binary") {
    status = SaveCatalogBinary(catalog, out);
  } else if (to == "csv") {
    status = SaveCatalogCsv(catalog, out);
  } else {
    Die(Status::InvalidArgument("unknown --to " + to +
                                " (expected csv or binary)"));
  }
  if (!status.ok()) Die(status);
  std::printf("converted        : %s (%s) -> %s (%s), %zu elements\n",
              in.c_str(), in_binary ? "binary" : "csv", out.c_str(),
              to.c_str(), catalog.size());
  return 0;
}

// One line-protocol exchange over a connected socket: writes `request`
// (adding the newline) and reads one response line.
bool SocketExchange(int fd, const std::string& request,
                    std::string* response) {
  std::string out = request;
  out.push_back('\n');
  size_t written = 0;
  while (written < out.size()) {
    const ssize_t n = ::write(fd, out.data() + written, out.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<size_t>(n);
  }
  response->clear();
  char ch;
  for (;;) {
    const ssize_t n = ::read(fd, &ch, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    if (ch == '\n') return true;
    response->push_back(ch);
  }
}

// Reads one newline-terminated line (used for WATCH streams, where one
// request yields many response lines).
bool ReadSocketLine(int fd, std::string* line) {
  line->clear();
  char ch;
  for (;;) {
    const ssize_t n = ::read(fd, &ch, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    if (ch == '\n') return true;
    line->push_back(ch);
  }
}

// Connects to a freshend UNIX socket; returns the fd or dies.
int ConnectUnixSocket(const std::string& socket_path) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    Die(Status::InvalidArgument("socket path too long: " + socket_path));
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0 ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    Die(Status::Internal(StrFormat("connect(%s): %s", socket_path.c_str(),
                                   std::strerror(errno))));
  }
  return fd;
}

// Minimal field extraction from the daemon's one-line JSON responses —
// enough for display and drill assertions, not a JSON parser.
std::string JsonStringField(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const size_t start = line.find(needle);
  if (start == std::string::npos) return "";
  const size_t begin = start + needle.size();
  const size_t end = line.find('"', begin);
  if (end == std::string::npos) return "";
  return line.substr(begin, end - begin);
}

double JsonNumberField(const std::string& line, const std::string& key,
                       double fallback) {
  const std::string needle = "\"" + key + "\":";
  const size_t start = line.find(needle);
  if (start == std::string::npos) return fallback;
  const char* text = line.c_str() + start + needle.size();
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  return end == text ? fallback : value;
}

// serve-drill act 2: the telemetry plane under a scripted outage. A
// wall-paced daemon starts with a deliberately wrong change-rate prior and
// a replan cadence parked far out, so the plan keeps running on the prior;
// the drift detector must report it over the socket. Then the (healthy)
// source goes hard-down: the freshness SLO must walk ok -> alert, and back
// to ok once the outage clears — observed both in-process and live over a
// WATCH stream on a second connection.
bool RunTelemetryAct(const ElementSet& truth, uint64_t seed, bool quick,
                     const std::string& socket_path) {
  obs::MetricsRegistry registry;
  sync::SimulatedSource::Options source_options;
  source_options.base_latency_seconds = 0.0;
  source_options.mean_jitter_seconds = 0.0;
  source_options.error_rate = 1.0;  // hard-down while faults are enabled
  source_options.seed = seed ^ 0x6f7574ULL;
  sync::SimulatedSource source =
      Unwrap(sync::SimulatedSource::Create(source_options));
  source.SetFaultsEnabled(false);  // begin healthy
  sync::SyncExecutor::Options executor_options;
  executor_options.seed = seed ^ 0x657865ULL;
  executor_options.registry = &registry;
  auto executor =
      Unwrap(sync::SyncExecutor::Create(&source, executor_options));

  serve::FreshendDaemon::Options options;
  options.loop.accesses_per_period = quick ? 400.0 : 1000.0;
  options.loop.seed = seed ^ 0x746f70ULL;
  options.loop.registry = &registry;
  options.loop.executor = executor.get();
  // Wrong by ~200x against the generated catalog's mean rate, and the
  // scheduled replan will never arrive on its own.
  options.loop.controller.replan_every_periods = 1000.0;
  options.loop.controller.prior_change_rate = 0.01;
  options.registry = &registry;
  options.period_seconds = 0.02;  // wall pacing, so WATCH samples live
  options.slo.objective = 0.9;
  options.slo.good_is_age_slo = true;
  options.slo.age_slo = 1.0;
  options.slo.fast_window_periods = 2.0;
  options.slo.slow_window_periods = 6.0;
  options.slo.warn_burn_rate = 2.0;
  options.slo.page_burn_rate = 6.0;
  options.drift.min_evidence = 2.0;
  options.slowlog.threshold_seconds = 0.0;  // record every admin request
  // Bandwidth 2x the catalog: with syncs plentiful, "good" accesses are the
  // healthy norm and the outage is the only thing that can page.
  auto daemon = Unwrap(serve::FreshendDaemon::Create(
      truth, 2.0 * static_cast<double>(truth.size()), options));

  serve::LineServer::Options server_options;
  server_options.socket_path = socket_path;
  server_options.registry = &registry;
  auto server =
      Unwrap(serve::LineServer::Start(daemon.get(), server_options));
  if (const Status started = daemon->Start(); !started.ok()) Die(started);

  // Subscribe the live view before anything interesting happens.
  const int watch_fd = ConnectUnixSocket(socket_path);
  std::string response;
  if (!SocketExchange(watch_fd, "WATCH 0.01", &response) ||
      response.find("\"ok\":true") == std::string::npos) {
    Die(Status::Internal("WATCH subscription failed"));
  }
  std::mutex watch_mu;
  std::vector<std::string> watch_states;
  std::thread watcher([&] {
    std::string line;
    while (ReadSocketLine(watch_fd, &line)) {
      if (line.find("\"cmd\":\"watch_sample\"") != std::string::npos) {
        std::lock_guard<std::mutex> lock(watch_mu);
        watch_states.push_back(JsonStringField(line, "slo_state"));
      } else if (line.find("\"cmd\":\"watch_end\"") != std::string::npos) {
        break;
      }
    }
  });

  // Generous ceiling: the walk normally completes in well under a second.
  const auto wait_until = [](auto&& done) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (!done()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return true;
  };

  const int admin = ConnectUnixSocket(socket_path);
  bool act_ok = true;
  const auto expect = [&](const char* what, bool condition) {
    if (!condition) {
      std::printf("telemetry   : FAILED at %s\n", what);
      act_ok = false;
    }
  };

  // Healthy warmup: enough periods for the drift detector to score the
  // elements and the SLO windows to fill with good periods.
  expect("warmup", wait_until([&] { return daemon->PeriodsRun() >= 6; }));
  // SLO's drift object must flag the prior the plan still runs on: flagged
  // elements, an aggregate score of at least ln 2, and the worst offender
  // scored against 0.01.
  expect("SLO reports the drift from the 0.01 prior", wait_until([&] {
           SocketExchange(admin, "SLO", &response);
           return JsonNumberField(response, "flagged_elements", 0.0) > 0.0 &&
                  JsonNumberField(response, "aggregate_score", 0.0) >=
                      obs::DriftDetector::kFlagScore &&
                  JsonNumberField(response, "planned_rate", 0.0) == 0.01;
         }));
  expect("clean slo", wait_until([&] {
           return daemon->slo()->state() == obs::SloState::kOk;
         }));
  SocketExchange(admin, "SLO", &response);
  expect("SLO reports the ok state",
         response.find("\"state\":\"ok\"") != std::string::npos &&
             response.find("\"drift\"") != std::string::npos);

  // The watch stream's own view, for ordering assertions: has it sampled a
  // bad state yet, and a healthy state after that?
  const auto watch_walked = [&](bool want_recovered) {
    std::lock_guard<std::mutex> lock(watch_mu);
    bool bad = false;
    for (const std::string& state : watch_states) {
      if (state == "burning" || state == "alert") {
        if (!want_recovered) return true;
        bad = true;
      } else if (bad && state == "ok") {
        return true;
      }
    }
    return false;
  };

  // Outage: every sync fails, copies age out, the burn rate must page.
  source.SetFaultsEnabled(true);
  expect("alert during outage", wait_until([&] {
           return daemon->slo()->state() == obs::SloState::kAlert;
         }));
  SocketExchange(admin, "HEALTH", &response);
  expect("HEALTH sees the alert",
         JsonStringField(response, "slo_state") == "alert");
  expect("watch streamed the outage",
         wait_until([&] { return watch_walked(false); }));

  // Recovery: faults clear; the fast window forgives within a few periods.
  source.SetFaultsEnabled(false);
  expect("recovery to ok", wait_until([&] {
           return daemon->slo()->state() == obs::SloState::kOk;
         }));
  expect("watch streamed the recovery",
         wait_until([&] { return watch_walked(true); }));

  SocketExchange(admin, "SLOWLOG", &response);
  expect("SLOWLOG recorded the admin traffic",
         JsonNumberField(response, "recorded", 0.0) >= 1.0);

  // Any input on the watch connection ends the stream; only write here —
  // the watcher thread owns the read side until it sees watch_end.
  const char nudge[] = "PING\n";
  (void)!::write(watch_fd, nudge, sizeof(nudge) - 1);
  watcher.join();
  ::close(watch_fd);
  ::close(admin);
  server->Stop();
  daemon->Stop();

  // The live stream must have seen the whole walk: healthy, then
  // burning/alert, then healthy again.
  bool saw_clean = false;
  bool saw_bad = false;
  bool saw_recovered = false;
  for (const std::string& state : watch_states) {
    if (state == "burning" || state == "alert") {
      saw_bad = true;
    } else if (state == "ok") {
      (saw_bad ? saw_recovered : saw_clean) = true;
    }
  }
  expect("watch stream saw the walk", saw_clean && saw_bad && saw_recovered);

  const obs::DriftReport drift = daemon->drift()->Report();
  std::printf("slo walk    : ok -> alert -> ok over %zu live watch samples\n",
              watch_states.size());
  std::printf("drift       : %zu of %zu scored elements flagged, aggregate "
              "score=%.3f\n",
              drift.flagged_elements, drift.scored_elements,
              drift.aggregate_score);
  std::printf("telemetry   : %s\n", act_ok ? "PASS" : "FAIL");
  return act_ok;
}

int RunServeDrill(const std::map<std::string, std::string>& flags) {
  const bool quick = QuickMode();
  ExperimentSpec spec;
  spec.num_objects = GetInteger<uint32_t>(flags, "--objects", quick ? 64 : 200);
  spec.theta = GetDouble(flags, "--theta", 1.0);
  spec.seed = GetInteger<uint64_t>(flags, "--seed", 20030305);
  const ElementSet truth = Unwrap(GenerateCatalog(spec));
  const double bandwidth = GetDouble(
      flags, "--bandwidth", 0.25 * static_cast<double>(spec.num_objects));
  const uint64_t periods =
      GetInteger<uint64_t>(flags, "--periods", quick ? 4 : 8);

  // Faulty executor so the drill exercises the publication path under
  // failed/late syncs, same shape as sync-drill's pass 3.
  sync::SimulatedSource::Options source_options;
  source_options.error_rate = GetDouble(flags, "--error-rate", 0.3);
  source_options.stall_rate = GetDouble(flags, "--stall-rate", 0.05);
  source_options.seed = spec.seed ^ 0x647268ULL;
  sync::SimulatedSource faulty =
      Unwrap(sync::SimulatedSource::Create(source_options));
  obs::MetricsRegistry& global = obs::MetricsRegistry::Global();
  sync::SyncExecutor::Options executor_options;
  executor_options.seed = spec.seed ^ 0x73796eULL;
  executor_options.registry = &global;
  auto executor =
      Unwrap(sync::SyncExecutor::Create(&faulty, executor_options));

  serve::FreshendDaemon::Options options;
  options.loop.accesses_per_period =
      GetDouble(flags, "--accesses", quick ? 200.0 : 1000.0);
  options.loop.seed = spec.seed ^ 0x6f6c6fULL;
  options.loop.registry = &global;
  options.loop.executor = executor.get();
  options.max_periods = periods;
  options.registry = &global;
  auto daemon =
      Unwrap(serve::FreshendDaemon::Create(truth, bandwidth, options));

  const std::string socket_path =
      GetFlag(flags, "--socket",
              StrFormat("/tmp/freshend-drill-%d.sock",
                        static_cast<int>(::getpid())));
  serve::LineServer::Options server_options;
  server_options.socket_path = socket_path;
  server_options.registry = &global;
  auto server =
      Unwrap(serve::LineServer::Start(daemon.get(), server_options));
  if (const Status started = daemon->Start(); !started.ok()) Die(started);

  // Query over the socket while the loop churns: connect once, walk the
  // catalog with every verb, and verify each answer parses as ok. Each
  // round also exercises the whole admin plane (metrics export in both
  // formats, health, SLO, slow-query ring).
  const int client = ConnectUnixSocket(socket_path);
  uint64_t sent = 0;
  uint64_t ok = 0;
  std::string response;
  while (daemon->running()) {
    for (size_t id = 0; id < std::min<size_t>(truth.size(), 32); ++id) {
      for (const char* verb : {"ISFRESH", "AGE", "PLAN"}) {
        if (!SocketExchange(client,
                            StrFormat("%s %zu", verb, id), &response)) {
          Die(Status::Internal("connection dropped mid-drill"));
        }
        ++sent;
        if (response.find("\"ok\":true") != std::string::npos) ++ok;
      }
    }
    for (const char* admin : {"STATS", "METRICS json", "METRICS prom",
                              "HEALTH", "SLO", "SLOWLOG"}) {
      if (!SocketExchange(client, admin, &response)) {
        Die(Status::Internal(
            StrFormat("connection dropped on %s", admin)));
      }
      ++sent;
      if (response.find("\"ok\":true") != std::string::npos) ++ok;
    }
  }
  // Graceful drain: loop already stopped (max_periods); stop the transport,
  // then check the final snapshot's digests from the reader side.
  SocketExchange(client, "QUIT", &response);
  ::close(client);
  server->Stop();
  daemon->Stop();
  bool consistent = false;
  uint64_t final_epoch = 0;
  if (serve::SnapshotRef snapshot = daemon->AcquireSnapshot()) {
    consistent = snapshot->CheckConsistent();
    final_epoch = snapshot->epoch();
  }
  const serve::DaemonStats stats = daemon->Stats();
  std::printf("objects     : %zu\n", truth.size());
  std::printf("periods     : %llu\n",
              (unsigned long long)stats.periods);
  std::printf("epoch       : %llu (publications=%llu reclaimed=%llu)\n",
              (unsigned long long)final_epoch,
              (unsigned long long)stats.store.publications,
              (unsigned long long)stats.store.snapshots_reclaimed);
  std::printf("queries     : %llu sent over socket, %llu ok\n",
              (unsigned long long)sent, (unsigned long long)ok);
  std::printf("consistency : %s\n", consistent ? "OK" : "FAILED");
  const bool act1 = consistent && sent > 0 && ok == sent;
  const bool act2 =
      RunTelemetryAct(truth, spec.seed, quick, socket_path + ".telemetry");
  const bool passed = act1 && act2;
  std::printf("serve drill : %s\n", passed ? "PASS" : "FAIL");
  return passed ? 0 : 1;
}

// top: subscribe to a running freshend's WATCH stream and render a live,
// one-line-per-sample view of the serving plane.
int RunTop(const std::map<std::string, std::string>& flags) {
  const std::string socket_path = GetFlag(flags, "--socket", "");
  if (socket_path.empty()) {
    Die(Status::InvalidArgument("top requires --socket PATH"));
  }
  const double interval = GetDouble(flags, "--interval", 1.0);
  const uint64_t count = GetInteger<uint64_t>(flags, "--count", 0);

  const int fd = ConnectUnixSocket(socket_path);
  std::string line;
  const std::string subscribe =
      count > 0 ? StrFormat("WATCH %g %llu", interval,
                            (unsigned long long)count)
                : StrFormat("WATCH %g", interval);
  if (!SocketExchange(fd, subscribe, &line) ||
      line.find("\"ok\":true") == std::string::npos) {
    std::fprintf(stderr, "WATCH rejected: %s\n", line.c_str());
    ::close(fd);
    return 1;
  }
  std::printf("%-6s %8s %8s %10s %7s %9s %6s %6s %7s %6s\n", "seq",
              "uptime", "periods", "queries", "fresh", "slo", "fast",
              "slow", "budget", "drift");
  while (ReadSocketLine(fd, &line)) {
    if (line.find("\"cmd\":\"watch_end\"") != std::string::npos) {
      std::printf("stream ended: %s after %.0f samples\n",
                  JsonStringField(line, "reason").c_str(),
                  JsonNumberField(line, "samples", 0.0));
      break;
    }
    if (line.find("\"cmd\":\"watch_sample\"") == std::string::npos) continue;
    const std::string slo_state = JsonStringField(line, "slo_state");
    std::printf(
        "%-6.0f %7.1fs %8.0f %10.0f %6.1f%% %9s %6.2f %6.2f %6.0f%% %6.2f\n",
        JsonNumberField(line, "seq", 0.0),
        JsonNumberField(line, "uptime_seconds", 0.0),
        JsonNumberField(line, "periods", 0.0),
        JsonNumberField(line, "queries", 0.0),
        100.0 * JsonNumberField(line, "perceived_freshness", 0.0),
        slo_state.empty() ? "-" : slo_state.c_str(),
        JsonNumberField(line, "fast_burn", 0.0),
        JsonNumberField(line, "slow_burn", 0.0),
        100.0 * JsonNumberField(line, "budget_remaining", 1.0),
        JsonNumberField(line, "drift_score", 0.0));
    std::fflush(stdout);
  }
  ::close(fd);
  return 0;
}

// A subcommand and the flags it reads. A flag outside its lists is refused,
// so a flag meant for another subcommand is not silently ignored.
struct Subcommand {
  int (*run)(const FlagMap& flags);
  std::vector<std::string> flags;
  std::vector<std::string> bool_flags = {};
};

// Concatenates flag lists.
std::vector<std::string> Join(
    std::initializer_list<std::vector<std::string>> lists) {
  std::vector<std::string> joined;
  for (const std::vector<std::string>& list : lists) {
    joined.insert(joined.end(), list.begin(), list.end());
  }
  return joined;
}

// Every subcommand by name, with the flags it reads.
std::map<std::string, Subcommand> Subcommands() {
  // Read after every command (main, MaybeDumpMetrics).
  const std::vector<std::string> shared = {"--metrics-format", "--metrics-out",
                                           "--trace-out"};
  // The staleness report and its ranking (--timeline-out).
  const std::vector<std::string> timeline = {"--timeline-out", "--age-slo",
                                             "--top-k"};
  // plan/eval's timeline comes from a simulation of the plan.
  const std::vector<std::string> simulated_timeline =
      Join({timeline, {"--horizon", "--sim-accesses", "--seed"}});
  // The generated catalog and closed loop of metrics and the drills.
  const std::vector<std::string> loop = {"--objects", "--theta",   "--seed",
                                         "--bandwidth", "--periods",
                                         "--accesses"};
  // The fault-injecting executor of sync-drill and trace.
  const std::vector<std::string> faults = {"--error-rate", "--stall-rate",
                                           "--latency-mean", "--queue",
                                           "--retries"};
  return {
      {"gen",
       {RunGen,
        Join({shared,
              {"--objects", "--theta", "--mean-rate", "--stddev", "--seed",
               "--alignment", "--sizes", "--out"}})}},
      {"plan",
       {RunPlan,
        Join({shared, simulated_timeline,
              {"--catalog", "--catalog-format", "--bandwidth", "--technique",
               "--partitions", "--kmeans", "--allocation", "--out"}}),
        {"--size-aware"}}},
      {"eval",
       {RunEval,
        Join({shared, simulated_timeline,
              {"--catalog", "--catalog-format", "--bandwidth"}}),
        {"--simulate"}}},
      {"metrics", {RunMetrics, Join({shared, timeline, loop})}},
      {"sync-drill", {RunSyncDrill, Join({shared, timeline, loop, faults})}},
      {"trace", {RunTrace, Join({shared, timeline, loop, faults})}},
      {"convert", {RunConvert, Join({shared, {"--in", "--out", "--to"}})}},
      {"serve-drill",
       {RunServeDrill,
        Join({shared, loop, {"--error-rate", "--stall-rate", "--socket"}})}},
      {"top",
       {RunTop, Join({shared, {"--socket", "--interval", "--count"}})}},
  };
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: freshenctl <gen|plan|eval|metrics|sync-drill|trace"
                 "|convert|serve-drill|top> [--flags]\n"
                 "see the header of examples/freshenctl.cc for details\n");
    return 2;
  }
  const std::string command = argv[1];
  const std::map<std::string, Subcommand> subcommands = Subcommands();
  const auto subcommand = subcommands.find(command);
  if (subcommand == subcommands.end()) {
    std::fprintf(stderr, "unknown command: %s\n", command.c_str());
    return 2;
  }
  const auto flags = ParseFlags(argc, argv, 2, subcommand->second.flags,
                                subcommand->second.bool_flags);
  // The flight recorder is on whenever this run can dump a trace: the trace
  // command always writes one, any other command only with --trace-out.
  if (command == "trace" || flags.count("--trace-out") > 0) {
    obs::EventRecorder::Global().set_enabled(true);
  }
  const int rc = subcommand->second.run(flags);
  if (obs::EventRecorder::Global().enabled()) {
    // Publish recorder accounting before the metrics dump so the
    // freshen_obs_recorder_* gauges land in --metrics-out snapshots.
    obs::EventRecorder::Global().ExportMetrics(
        obs::MetricsRegistry::Global());
    const std::string trace_out =
        GetFlag(flags, "--trace-out",
                command == "trace" ? "freshen_trace.json" : "");
    if (!trace_out.empty()) {
      const std::vector<obs::Event> events =
          obs::EventRecorder::Global().Collect();
      const Status status =
          WriteStringToFile(obs::FormatChromeTrace(events), trace_out);
      if (!status.ok()) Die(status);
      std::printf("trace written    : %s (%zu events)\n", trace_out.c_str(),
                  events.size());
    }
  }
  MaybeDumpMetrics(flags, /*to_stdout_by_default=*/command == "metrics");
  return rc;
}
