// Telemetry-overhead benchmark: does the observability plane pay its rent?
//
// The SLO monitor and drift detector ride the online loop's hot path: every
// applied sync feeds the detector, every period close scores the whole
// catalog and evaluates the burn-rate state machine. The pitch is that this
// bookkeeping is free compared to the work the loop already does (syncs,
// accesses, periodic replans) — this bench makes that a gated number.
//
// Three measurements:
//   1. Baseline loop: OnlineFreshenLoop without slo/drift attached, mean
//      wall seconds per period over a measured window (after warmup).
//   2. Telemetry loop: the identical loop (same seed, same catalog) with an
//      SloMonitor and DriftDetector attached — the end-to-end delta is
//      reported, but it is differenced noise and is not gated.
//   3. Bookkeeping microbench: the telemetry calls a period actually makes
//      (K ObserveSync + DriftDetector::EndPeriod + SloMonitor::ObservePeriod,
//      K = the loop's observed syncs/period), timed in isolation as the
//      median of 10 batch means. This is the gated number: bookkeeping must
//      stay under 5% of the baseline period cost.
//
// Admin-read cost (SloMonitor::Report + DriftDetector::Report, what METRICS /
// SLO / WATCH handlers pay) is reported informationally.
//
// Results land in BENCH_slo.json.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "common/table_writer.h"
#include "common/timer.h"
#include "mirror/online_loop.h"
#include "model/element.h"
#include "obs/drift.h"
#include "obs/metrics.h"
#include "obs/slo.h"

namespace {

using namespace freshen;

struct SloBenchResult {
  size_t objects = 0;
  size_t periods = 0;
  double accesses_per_period = 0.0;
  double bandwidth = 0.0;
  double baseline_period_ms = 0.0;
  double telemetry_period_ms = 0.0;
  double end_to_end_overhead_pct = 0.0;
  double syncs_per_period = 0.0;
  double bookkeeping_ms = 0.0;
  double bookkeeping_pct = 0.0;
  double slo_report_us = 0.0;
  double drift_report_us = 0.0;
  bool pass = true;
};

constexpr double kGatePct = 5.0;

// A mildly skewed catalog: rates spread over two decades, popularity decays
// harmonically — enough structure that replans and sync schedules look like
// a real deployment rather than a uniform no-op.
ElementSet BenchCatalog(size_t n) {
  std::vector<double> rates(n);
  std::vector<double> probs(n);
  for (size_t i = 0; i < n; ++i) {
    rates[i] = 0.1 + 10.0 * static_cast<double>(i % 97) / 97.0;
    probs[i] = 1.0 / static_cast<double>(i + 1);
  }
  return MakeElementSet(rates, probs);
}

OnlineFreshenLoop MakeLoop(const ElementSet& truth, double bandwidth,
                           double accesses, obs::MetricsRegistry* registry,
                           obs::SloMonitor* slo, obs::DriftDetector* drift) {
  OnlineFreshenLoop::Options options;
  options.controller.replan_every_periods = 4.0;
  options.controller.prior_change_rate = 1.0;
  options.controller.registry = registry;
  options.accesses_per_period = accesses;
  options.seed = 1234;
  options.registry = registry;
  options.slo = slo;
  options.drift = drift;
  auto loop = OnlineFreshenLoop::Create(truth, bandwidth, options);
  if (!loop.ok()) {
    std::fprintf(stderr, "loop creation failed: %s\n",
                 loop.status().ToString().c_str());
    std::abort();
  }
  return std::move(loop).value();
}

// Runs warmup + measured periods; returns mean measured seconds per period
// and the mean syncs per period over the measured window.
void MeasureLoop(OnlineFreshenLoop& loop, size_t warmup, size_t measured,
                 double* period_seconds, double* syncs_per_period) {
  for (size_t i = 0; i < warmup; ++i) loop.RunPeriod();
  uint64_t syncs = 0;
  WallTimer timer;
  for (size_t i = 0; i < measured; ++i) syncs += loop.RunPeriod().syncs;
  *period_seconds = timer.ElapsedSeconds() / static_cast<double>(measured);
  *syncs_per_period = static_cast<double>(syncs) / static_cast<double>(measured);
}

obs::SloMonitor MustSlo(obs::MetricsRegistry* registry) {
  obs::SloMonitor::Options options;
  options.objective = 0.95;
  options.registry = registry;
  auto monitor = obs::SloMonitor::Create(options);
  if (!monitor.ok()) std::abort();
  return std::move(monitor).value();
}

obs::DriftDetector MustDrift(size_t n, obs::MetricsRegistry* registry) {
  obs::DriftDetector::Options options;
  options.num_elements = n;
  options.registry = registry;
  auto detector = obs::DriftDetector::Create(options);
  if (!detector.ok()) std::abort();
  return std::move(detector).value();
}

void WriteJson(const SloBenchResult& r, const char* path) {
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"slo\",\n"
               "  \"hardware_threads\": %zu,\n"
               "  \"quick\": %s,\n"
               "  \"objects\": %zu,\n"
               "  \"periods\": %zu,\n"
               "  \"accesses_per_period\": %g,\n"
               "  \"bandwidth\": %g,\n"
               "  \"baseline_period_ms\": %.6f,\n"
               "  \"telemetry_period_ms\": %.6f,\n"
               "  \"end_to_end_overhead_pct\": %.3f,\n"
               "  \"syncs_per_period\": %.1f,\n"
               "  \"bookkeeping_ms\": %.6f,\n"
               "  \"bookkeeping_pct_of_period\": %.3f,\n"
               "  \"slo_report_us\": %.3f,\n"
               "  \"drift_report_us\": %.3f,\n"
               "  \"gate_pct_limit\": %.1f,\n"
               "  \"pass\": %s\n"
               "}\n",
               par::HardwareThreads(), bench::QuickMode() ? "true" : "false",
               r.objects, r.periods, r.accesses_per_period, r.bandwidth,
               r.baseline_period_ms, r.telemetry_period_ms,
               r.end_to_end_overhead_pct, r.syncs_per_period, r.bookkeeping_ms,
               r.bookkeeping_pct, r.slo_report_us, r.drift_report_us,
               kGatePct, r.pass ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main() {
  const bool quick = bench::QuickMode();
  SloBenchResult r;
  r.objects = quick ? 2000 : 50000;
  r.periods = quick ? 24 : 48;
  const size_t warmup = quick ? 6 : 8;
  r.accesses_per_period = static_cast<double>(r.objects);
  r.bandwidth = static_cast<double>(r.objects) / 4.0;

  const ElementSet truth = BenchCatalog(r.objects);

  // 1. Baseline: no telemetry attached.
  {
    obs::MetricsRegistry registry;
    OnlineFreshenLoop loop = MakeLoop(truth, r.bandwidth,
                                      r.accesses_per_period, &registry,
                                      nullptr, nullptr);
    double unused_syncs = 0.0;
    double seconds = 0.0;
    MeasureLoop(loop, warmup, r.periods, &seconds, &unused_syncs);
    r.baseline_period_ms = seconds * 1e3;
  }

  // 2. Telemetry attached: same catalog, same seed.
  {
    obs::MetricsRegistry registry;
    obs::SloMonitor slo = MustSlo(&registry);
    obs::DriftDetector drift = MustDrift(r.objects, &registry);
    OnlineFreshenLoop loop = MakeLoop(truth, r.bandwidth,
                                      r.accesses_per_period, &registry, &slo,
                                      &drift);
    double seconds = 0.0;
    MeasureLoop(loop, warmup, r.periods, &seconds, &r.syncs_per_period);
    r.telemetry_period_ms = seconds * 1e3;
  }
  r.end_to_end_overhead_pct =
      r.baseline_period_ms > 0.0
          ? 100.0 * (r.telemetry_period_ms - r.baseline_period_ms) /
                r.baseline_period_ms
          : 0.0;

  // 3. Bookkeeping in isolation: exactly the calls one period makes, K
  // ObserveSync + one EndPeriod + one ObservePeriod, repeated enough times
  // that the per-period figure is stable. The figure is the median of
  // per-batch means: in quick mode the whole measurement takes ~2 ms, so a
  // single preemption (ctest runs jobs in parallel) would otherwise dominate
  // it.
  {
    obs::MetricsRegistry registry;
    obs::SloMonitor slo = MustSlo(&registry);
    obs::DriftDetector drift = MustDrift(r.objects, &registry);
    const std::vector<double> planned_rates = ChangeRates(truth);
    const size_t syncs =
        static_cast<size_t>(r.syncs_per_period > 0.0 ? r.syncs_per_period
                                                     : r.bandwidth);
    constexpr size_t kBatches = 10;
    const size_t reps_per_batch = quick ? 5 : 10;
    const uint64_t accesses =
        static_cast<uint64_t>(r.accesses_per_period);
    std::vector<double> batch_ms;
    size_t rep = 0;
    for (size_t batch = 0; batch < kBatches; ++batch) {
      WallTimer timer;
      for (size_t k = 0; k < reps_per_batch; ++k, ++rep) {
        for (size_t s = 0; s < syncs; ++s) {
          const size_t element = (rep * syncs + s * 7919) % r.objects;
          drift.ObserveSync(element, (s & 1) != 0, 0.25 + 0.5 * (s & 3));
        }
        const double now = static_cast<double>(rep + 1);
        drift.EndPeriod(now, planned_rates);
        slo.ObservePeriod(now, accesses, accesses - accesses / 20,
                          accesses - accesses / 40);
      }
      batch_ms.push_back(timer.ElapsedSeconds() * 1e3 /
                         static_cast<double>(reps_per_batch));
    }
    r.bookkeeping_ms = bench::Percentile(batch_ms, 0.5);

    // Admin-read cost: what one SLO / WATCH sample pays.
    constexpr size_t kReads = 200;
    WallTimer timer;
    for (size_t i = 0; i < kReads; ++i) {
      obs::SloReport report = slo.Report();
      (void)report.budget_remaining;
    }
    r.slo_report_us = timer.ElapsedSeconds() * 1e6 / kReads;
    timer.Restart();
    for (size_t i = 0; i < kReads; ++i) {
      obs::DriftReport report = drift.Report();
      (void)report.aggregate_score;
    }
    r.drift_report_us = timer.ElapsedSeconds() * 1e6 / kReads;
  }

  r.bookkeeping_pct = r.baseline_period_ms > 0.0
                          ? 100.0 * r.bookkeeping_ms / r.baseline_period_ms
                          : 0.0;
  if (r.bookkeeping_pct >= kGatePct) {
    std::fprintf(stderr,
                 "FAIL: telemetry bookkeeping %.4f ms/period is %.2f%% of "
                 "the %.4f ms baseline period (gate: < %.1f%%, load average "
                 "%.2f)\n",
                 r.bookkeeping_ms, r.bookkeeping_pct, r.baseline_period_ms,
                 kGatePct, bench::LoadAverage1m());
    r.pass = false;
  }

  TableWriter table({"objects", "periods", "baseline ms", "telemetry ms",
                     "e2e delta", "bookkeeping ms", "% of period",
                     "report us"});
  table.AddRow({StrFormat("%zu", r.objects), StrFormat("%zu", r.periods),
                StrFormat("%.4f", r.baseline_period_ms),
                StrFormat("%.4f", r.telemetry_period_ms),
                StrFormat("%+.2f%%", r.end_to_end_overhead_pct),
                StrFormat("%.4f", r.bookkeeping_ms),
                StrFormat("%.2f%%", r.bookkeeping_pct),
                StrFormat("%.1f/%.1f", r.slo_report_us, r.drift_report_us)});
  std::printf("%s\n", table.ToText().c_str());
  std::printf(
      "reading: the gated number is the isolated bookkeeping cost (K "
      "ObserveSync +\nEndPeriod + ObservePeriod, K = the loop's observed "
      "syncs/period) against the\nbaseline period cost; the end-to-end "
      "delta is differenced noise and is\nreported but not gated.\n");
  WriteJson(r, "BENCH_slo.json");
  return r.pass ? 0 : 1;
}
