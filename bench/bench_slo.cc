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
//      SloMonitor and DriftDetector attached. 1 and 2 run as k = 5
//      interleaved pairs on fresh loops; the per-pair end-to-end delta is
//      reported (median and quartiles) but not gated.
//   3. Bookkeeping microbench: the telemetry calls a period actually makes
//      (K ObserveSync + DriftDetector::EndPeriod + SloMonitor::ObservePeriod,
//      K = the loop's observed syncs/period), timed in isolation as the
//      median of 10 batch means. This is the gated number: bookkeeping must
//      stay under 5% of the baseline period cost (its median over the pairs).
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
#include "common/plan_classes.h"
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
  return OnlineFreshenLoop::Create(truth, bandwidth, options).value();
}

// Runs warmup + measured periods; returns mean measured milliseconds per
// period and sets the mean syncs per period over the measured window.
double MeasureLoopMs(OnlineFreshenLoop& loop, size_t warmup, size_t measured,
                     double* syncs_per_period) {
  for (size_t i = 0; i < warmup; ++i) loop.RunPeriod();
  uint64_t syncs = 0;
  WallTimer timer;
  for (size_t i = 0; i < measured; ++i) syncs += loop.RunPeriod().syncs;
  *syncs_per_period =
      static_cast<double>(syncs) / static_cast<double>(measured);
  return timer.ElapsedMillis() / static_cast<double>(measured);
}

obs::SloMonitor MustSlo(obs::MetricsRegistry* registry) {
  obs::SloMonitor::Options options;
  options.objective = 0.95;
  options.registry = registry;
  return obs::SloMonitor::Create(options).value();
}

obs::DriftDetector MustDrift(size_t n, obs::MetricsRegistry* registry) {
  obs::DriftDetector::Options options;
  options.num_elements = n;
  options.registry = registry;
  return obs::DriftDetector::Create(options).value();
}

}  // namespace

int main() {
  const bool quick = bench::QuickMode();
  const size_t objects = quick ? 2000 : 50000;
  const size_t periods = quick ? 24 : 48;
  const size_t warmup = quick ? 6 : 8;
  const double accesses_per_period = static_cast<double>(objects);
  const double bandwidth = static_cast<double>(objects) / 4.0;

  const ElementSet truth = BenchCatalog(objects);

  // 1-2. Baseline (no telemetry) vs telemetry attached, same catalog and
  // seed, each pair on fresh loops.
  double syncs_per_period = 0.0;
  const bench::PairSpread period_ms = bench::RepeatPairs(
      bench::kRepeats,
      [&] {
        obs::MetricsRegistry registry;
        OnlineFreshenLoop loop = MakeLoop(truth, bandwidth,
                                          accesses_per_period, &registry,
                                          nullptr, nullptr);
        double unused_syncs = 0.0;
        return MeasureLoopMs(loop, warmup, periods, &unused_syncs);
      },
      [&] {
        obs::MetricsRegistry registry;
        obs::SloMonitor slo = MustSlo(&registry);
        obs::DriftDetector drift = MustDrift(objects, &registry);
        OnlineFreshenLoop loop = MakeLoop(truth, bandwidth,
                                          accesses_per_period, &registry,
                                          &slo, &drift);
        return MeasureLoopMs(loop, warmup, periods, &syncs_per_period);
      });
  const double baseline_ms = period_ms.a.median;

  // 3. Bookkeeping in isolation: exactly the calls one period makes, K
  // ObserveSync + one EndPeriod + one ObservePeriod, repeated enough times
  // that the per-period figure is stable. The figure is the median of
  // per-batch means: in quick mode the whole measurement takes ~2 ms, so a
  // single preemption (ctest runs jobs in parallel) would otherwise dominate
  // it.
  obs::MetricsRegistry registry;
  obs::SloMonitor slo = MustSlo(&registry);
  obs::DriftDetector drift = MustDrift(objects, &registry);
  const IdentityClasses planned(std::vector<double>(truth.size(), 0.0),
                                ChangeRates(truth));
  const size_t syncs = static_cast<size_t>(
      syncs_per_period > 0.0 ? syncs_per_period : bandwidth);
  constexpr int kBatches = 10;
  const size_t reps_per_batch = quick ? 5 : 10;
  const uint64_t accesses = static_cast<uint64_t>(accesses_per_period);
  size_t rep = 0;
  const bench::Spread bookkeeping_ms = bench::Repeat(kBatches, [&] {
    WallTimer timer;
    for (size_t k = 0; k < reps_per_batch; ++k, ++rep) {
      for (size_t s = 0; s < syncs; ++s) {
        const size_t element = (rep * syncs + s * 7919) % objects;
        drift.ObserveSync(element, (s & 1) != 0, 0.25 + 0.5 * (s & 3));
      }
      const double now = static_cast<double>(rep + 1);
      drift.EndPeriod(now, planned.view());
      slo.ObservePeriod(now, accesses, accesses - accesses / 20,
                        accesses - accesses / 40);
    }
    return timer.ElapsedMillis() / static_cast<double>(reps_per_batch);
  });

  // Admin-read cost: what one SLO / WATCH sample pays, as the mean of a
  // batch of reads.
  const auto read_us = [](auto&& read) {
    constexpr size_t kReads = 200;
    return bench::Repeat(bench::kRepeats, [&] {
      WallTimer timer;
      for (size_t i = 0; i < kReads; ++i) read();
      return timer.ElapsedSeconds() * 1e6 / kReads;
    });
  };
  const bench::Spread slo_report_us =
      read_us([&] { (void)slo.Report().budget_remaining; });
  const bench::Spread drift_report_us =
      read_us([&] { (void)drift.Report().aggregate_score; });

  const double bookkeeping_pct =
      baseline_ms > 0.0 ? 100.0 * bookkeeping_ms.median / baseline_ms : 0.0;
  bench::GateReport gates;
  const bool pass = gates.CheckTiming(
      bookkeeping_pct < kGatePct,
      StrFormat("telemetry bookkeeping %.4f ms/period is %.2f%% of the "
                "%.4f ms baseline period (gate: < %.1f%%)",
                bookkeeping_ms.median, bookkeeping_pct, baseline_ms,
                kGatePct));

  TableWriter table({"objects", "periods", "baseline ms", "telemetry ms",
                     "e2e delta [p25, p75]", "bookkeeping ms", "% of period",
                     "report us"});
  table.AddRow({StrFormat("%zu", objects), StrFormat("%zu", periods),
                StrFormat("%.4f", baseline_ms),
                StrFormat("%.4f", period_ms.b.median),
                bench::FormatSpread(period_ms.diff_pct, 2) + "%",
                StrFormat("%.4f", bookkeeping_ms.median),
                StrFormat("%.2f%%", bookkeeping_pct),
                StrFormat("%.1f/%.1f", slo_report_us.median,
                          drift_report_us.median)});
  std::printf("%s\n", table.ToText().c_str());
  std::printf(
      "reading: medians over %d interleaved baseline/telemetry pairs. The "
      "gated number is\nthe isolated bookkeeping cost (K ObserveSync + "
      "EndPeriod + ObservePeriod, K = the\nloop's observed syncs/period) "
      "against the baseline period cost; the per-pair end-to-end\ndelta "
      "is reported but not gated.\n",
      bench::kRepeats);
  const Status written = bench::WriteBenchJson(
      "BENCH_slo.json", "slo", bench::kRepeats,
      bench::JsonObject()
          .Num("objects", objects)
          .Num("periods", periods)
          .Num("warmup_periods", warmup)
          .Num("accesses_per_period", accesses_per_period)
          .Num("bandwidth", bandwidth)
          .Spread("baseline_period_ms", period_ms.a)
          .Spread("telemetry_period_ms", period_ms.b)
          .Spread("end_to_end_overhead_ms", period_ms.diff)
          .Spread("end_to_end_overhead_pct", period_ms.diff_pct)
          .Num("syncs_per_period", syncs_per_period)
          .Num("bookkeeping_batches", kBatches)
          .Spread("bookkeeping_ms", bookkeeping_ms)
          .Num("bookkeeping_pct_of_period", bookkeeping_pct)
          .Spread("slo_report_us", slo_report_us)
          .Spread("drift_report_us", drift_report_us)
          .Num("gate_pct_limit", kGatePct)
          .Bool("pass", pass));
  return gates.ExitCode(written);
}
