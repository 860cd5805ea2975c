// Ablation A8 — interest drift, run on the live closed-loop mirror
// (src/mirror). The paper assumes "the contents of the mirror or the user
// interests might change" and that re-planning handles it; this bench
// measures exactly that. User interest rotates by a quarter of the catalog
// every 25 periods (so every phase is a genuinely new profile); three
// controllers run the same world:
//
//   static     : plans once from the initial (true) catalog, never adapts;
//   no-decay   : closed loop, learner keeps all history (decay 1.0);
//   decay 0.7  : closed loop, old interest fades per period.
//
// Reported: mean empirical perceived freshness per 25-period phase.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/table_writer.h"
#include "mirror/online_loop.h"
#include "sim/simulator.h"

namespace {

using namespace freshen;

constexpr int kPhases = 4;
constexpr int kPeriodsPerPhase = 25;

std::vector<double> RotatedProfile(const ElementSet& truth) {
  const size_t n = truth.size();
  const size_t shift = n / 4;
  std::vector<double> rotated(n);
  for (size_t i = 0; i < n; ++i) {
    rotated[(i + shift) % n] = truth[i].access_prob;
  }
  return rotated;
}

// Runs one controller configuration through the drifting world; returns the
// mean empirical PF per phase.
std::vector<double> RunLoop(const ElementSet& truth, double bandwidth,
                            double decay) {
  OnlineFreshenLoop::Options options;
  options.accesses_per_period = 3000.0;
  options.seed = 4242;
  options.controller.replan_every_periods = 1.0;
  options.controller.prior_change_rate = 2.0;
  options.controller.learner.decay = decay;
  auto loop = OnlineFreshenLoop::Create(truth, bandwidth, options).value();

  std::vector<double> phase_pf;
  for (int phase = 0; phase < kPhases; ++phase) {
    double total = 0.0;
    for (int period = 0; period < kPeriodsPerPhase; ++period) {
      total += loop.RunPeriod().perceived_freshness;
    }
    phase_pf.push_back(total / kPeriodsPerPhase);
    // Drift: interest rotates at every phase boundary.
    if (phase + 1 < kPhases) {
      const Status status =
          loop.world().SetTrueProfile(RotatedProfile(loop.truth()));
      if (!status.ok()) {
        std::fprintf(stderr, "%s\n", status.ToString().c_str());
        std::abort();
      }
    }
  }
  return phase_pf;
}

// The non-adaptive baseline: the initial oracle plan simulated against each
// phase's true profile.
std::vector<double> RunStatic(const ElementSet& truth, double bandwidth) {
  const FreshenPlan plan = bench::MustPlan({}, truth, bandwidth);
  std::vector<double> phase_pf;
  ElementSet world = truth;
  for (int phase = 0; phase < kPhases; ++phase) {
    SimulationConfig config;
    config.horizon_periods = kPeriodsPerPhase;
    config.accesses_per_period = 3000.0;
    config.warmup_periods = 2.0;
    config.seed = 77 + static_cast<uint64_t>(phase);
    phase_pf.push_back(MirrorSimulator(world, config)
                           .Run(plan.frequencies)
                           .value()
                           .empirical_perceived_freshness);
    // Rotate the world's profile for the next phase.
    const std::vector<double> rotated = RotatedProfile(world);
    for (size_t i = 0; i < world.size(); ++i) {
      world[i].access_prob = rotated[i];
    }
  }
  return phase_pf;
}

}  // namespace

int main() {
  std::printf("== Ablation A8: interest drift on the live mirror ==\n");
  ExperimentSpec spec = ExperimentSpec::IdealCase();
  spec.num_objects = 200;
  spec.syncs_per_period = 100.0;
  spec.theta = 1.3;
  spec.alignment = Alignment::kShuffled;
  const ElementSet truth = bench::MustCatalog(spec);
  std::printf(
      "N=%zu, B=%.0f, theta=1.3; interest rotates every %d periods\n\n",
      truth.size(), spec.syncs_per_period, kPeriodsPerPhase);

  const auto static_pf = RunStatic(truth, spec.syncs_per_period);
  const auto sticky_pf = RunLoop(truth, spec.syncs_per_period, 1.0);
  const auto decay_pf = RunLoop(truth, spec.syncs_per_period, 0.7);

  TableWriter table({"phase", "static plan", "adaptive (no decay)",
                     "adaptive (decay 0.7)"});
  for (int phase = 0; phase < kPhases; ++phase) {
    table.AddRow({StrFormat("%d", phase + 1),
                  FormatDouble(static_pf[phase], 4),
                  FormatDouble(sticky_pf[phase], 4),
                  FormatDouble(decay_pf[phase], 4)});
  }
  std::printf("%s\n", table.ToText().c_str());
  std::printf(
      "reading: the static plan is optimal in phase 1 and collapses once "
      "interest moves;\nthe closed-loop controllers re-converge every "
      "phase, the decaying learner fastest\n(stale history stops dragging "
      "its profile).\n");
  return 0;
}
