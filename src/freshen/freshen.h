// Umbrella header for libfreshen: everything a downstream application needs
// to plan, execute, and evaluate application-aware data freshening.
//
// Quick tour (see examples/quickstart.cc for runnable code):
//   1. Describe the mirror: an ElementSet of {change_rate, access_prob, size}
//      (build one by hand, from profiles via profile/…, or synthetically via
//      workload/generator.h).
//   2. Configure a FreshenPlanner (core/planner.h) — PF vs GF, exact vs
//      partitioned, size-aware or not — and call Plan().
//   3. Materialize the plan with SyncSchedule (schedule/schedule.h) or
//      evaluate it with MirrorSimulator (sim/simulator.h).
#ifndef FRESHEN_FRESHEN_FRESHEN_H_
#define FRESHEN_FRESHEN_FRESHEN_H_

#include "adaptive/adaptive_freshener.h"  // IWYU pragma: export
#include "common/result.h"        // IWYU pragma: export
#include "common/status.h"        // IWYU pragma: export
#include "core/planner.h"         // IWYU pragma: export
#include "estimate/change_estimator.h"  // IWYU pragma: export
#include "io/catalog_io.h"        // IWYU pragma: export
#include "mirror/mirror_state.h"  // IWYU pragma: export
#include "mirror/online_loop.h"   // IWYU pragma: export
#include "model/element.h"        // IWYU pragma: export
#include "model/freshness.h"      // IWYU pragma: export
#include "model/metrics.h"        // IWYU pragma: export
#include "obs/export.h"           // IWYU pragma: export
#include "obs/metrics.h"          // IWYU pragma: export
#include "obs/trace.h"            // IWYU pragma: export
#include "opt/age_water_filling.h"  // IWYU pragma: export
#include "opt/generic_nlp.h"      // IWYU pragma: export
#include "opt/grouped.h"          // IWYU pragma: export
#include "opt/kkt.h"              // IWYU pragma: export
#include "opt/problem.h"          // IWYU pragma: export
#include "opt/water_filling.h"    // IWYU pragma: export
#include "partition/allocation.h" // IWYU pragma: export
#include "partition/kmeans.h"     // IWYU pragma: export
#include "partition/partitioner.h"  // IWYU pragma: export
#include "profile/learner.h"      // IWYU pragma: export
#include "profile/profile.h"      // IWYU pragma: export
#include "rng/alias_table.h"      // IWYU pragma: export
#include "rng/distributions.h"    // IWYU pragma: export
#include "rng/rng.h"              // IWYU pragma: export
#include "rng/zipf.h"             // IWYU pragma: export
#include "schedule/schedule.h"    // IWYU pragma: export
#include "selection/selection.h"  // IWYU pragma: export
#include "sim/simulator.h"        // IWYU pragma: export
#include "sync/circuit_breaker.h"  // IWYU pragma: export
#include "sync/executor.h"        // IWYU pragma: export
#include "sync/retry.h"           // IWYU pragma: export
#include "sync/source.h"          // IWYU pragma: export
#include "workload/generator.h"   // IWYU pragma: export
#include "workload/spec.h"        // IWYU pragma: export

#endif  // FRESHEN_FRESHEN_FRESHEN_H_
