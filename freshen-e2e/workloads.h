// The benchmark's workloads and the pass that runs one of them against the
// real freshend stack: FreshendDaemon (loop, executor, SLO, drift) behind a
// LineServer, driven by the benchmark's own LoadClient.
//
// Every workload runs the whole stack: a fixed number of loop periods while
// the client sends queries at a fixed rate and scrapes METRICS, then a short
// closed-loop burst that measures the socket's capacity. The workloads
// differ in which layer carries the load, so each layer's work dominates
// one of them.
#ifndef FRESHEN_E2E_WORKLOADS_H_
#define FRESHEN_E2E_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "rng/alias_table.h"
#include "result_writer.h"

namespace freshen::bench {

struct Workload {
  const char* name;
  /// The freshend command line that runs the same loop and server.
  const char* freshend_flags;
  /// Catalog: N elements, gamma(2, sigma) change rates, Zipf(1.0) access
  /// profile, uniform sizes.
  size_t num_objects;
  double update_stddev;
  /// Loop: sync bandwidth and Poisson accesses per period, the simulated
  /// source's per-attempt error rate, and wall-clock pacing (0 = flat out).
  double bandwidth;
  double accesses_per_period;
  double error_rate;
  double period_seconds;
  /// Periods run before the measured window opens.
  uint64_t warmup_periods;
  /// Measured periods = --seconds / this, so a window lasts about
  /// --seconds on the 4-vCPU calibration host (README.md) when it is quiet.
  double nominal_period_seconds;
  /// Client: queries per second over two connections, and METRICS json
  /// scrapes per second on a third.
  double query_rate;
  double scrape_hz;
};

/// The named workload, or nullptr.
const Workload* FindWorkload(const std::string& name);

/// Quick mode (smoke tests): a tenth of the catalog and its load, a fifth
/// of the periods, a fifth of the query rate.
Workload Shrink(const Workload& workload);

struct PassOptions {
  uint64_t seed = 1;
  double seconds = 20.0;
  bool quick = false;
  /// Turns the flight recorder on for the set-ups, the warm-up and the odd
  /// measured periods, and writes it to `trace_path`.
  bool traced = false;
  std::string catalog_path;
  std::string socket_path;
  std::string trace_path;
  /// The catalog's access profile: the client draws query keys from it.
  const AliasTable* keys = nullptr;
};

/// Runs one pass: sets the stack up several times (setup_s is the median),
/// runs warm-up and measured periods under client load, measures socket
/// capacity, probes the serve layer in process, and records every metric,
/// check, operation count and golden value into `result`. A non-OK status
/// means the stack could not run at all.
Status RunPass(const Workload& workload, const PassOptions& options,
               RunResult* result);

}  // namespace freshen::bench

#endif  // FRESHEN_E2E_WORKLOADS_H_
