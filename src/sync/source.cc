#include "sync/source.h"

#include <cmath>

#include "common/string_util.h"
#include "rng/distributions.h"
#include "rng/rng.h"

namespace freshen {
namespace sync {
namespace {

// Mixes the source seed with the attempt identity into an independent RNG:
// outcomes depend only on (seed, seq, attempt).
Rng AttemptRng(uint64_t seed, const FetchRequest& request) {
  SplitMix64 mixer(seed ^ (request.seq * 0x9e3779b97f4a7c15ULL));
  mixer.Next();
  return Rng(mixer.Next() ^ (static_cast<uint64_t>(request.attempt) + 1));
}

}  // namespace

FetchResult PerfectSource::Fetch(const FetchRequest&) {
  return {Status::OK(), 0.0};
}

Result<SimulatedSource> SimulatedSource::Create(Options options) {
  const struct {
    const char* name;
    double value;
  } rates[] = {{"error_rate", options.error_rate},
               {"stall_rate", options.stall_rate}};
  for (const auto& rate : rates) {
    if (!(rate.value >= 0.0 && rate.value <= 1.0)) {
      return Status::InvalidArgument(
          StrFormat("%s must be in [0, 1]", rate.name));
    }
  }
  if (options.error_rate + options.stall_rate > 1.0) {
    return Status::InvalidArgument("error_rate + stall_rate must be <= 1");
  }
  const struct {
    const char* name;
    double value;
  } latencies[] = {{"base_latency_seconds", options.base_latency_seconds},
                   {"mean_jitter_seconds", options.mean_jitter_seconds},
                   {"stall_latency_seconds", options.stall_latency_seconds},
                   {"outage_interval_seconds", options.outage_interval_seconds},
                   {"outage_duration_seconds", options.outage_duration_seconds}};
  for (const auto& latency : latencies) {
    if (!(latency.value >= 0.0) || !std::isfinite(latency.value)) {
      return Status::InvalidArgument(
          StrFormat("%s must be finite and >= 0", latency.name));
    }
  }
  if (options.outage_interval_seconds > 0.0 &&
      options.outage_duration_seconds > options.outage_interval_seconds) {
    return Status::InvalidArgument(
        "outage_duration_seconds must be <= outage_interval_seconds");
  }
  return SimulatedSource(options);
}

FetchResult SimulatedSource::Fetch(const FetchRequest& request) {
  Rng rng = AttemptRng(options_.seed, request);
  double latency = options_.base_latency_seconds;
  if (options_.mean_jitter_seconds > 0.0) {
    latency += SampleExponential(rng, 1.0 / options_.mean_jitter_seconds);
  }
  if (!faults_enabled()) {
    return {Status::OK(), latency};
  }
  // Burst outage: hard-down window, fails fast (connection refused).
  if (options_.outage_interval_seconds > 0.0 &&
      std::fmod(request.scheduled_seconds, options_.outage_interval_seconds) <
          options_.outage_duration_seconds) {
    return {Status::Unavailable("source outage"),
            options_.base_latency_seconds};
  }
  const double roll = rng.NextDouble();
  if (roll < options_.error_rate) {
    return {Status::Unavailable("injected fetch error"), latency};
  }
  if (roll < options_.error_rate + options_.stall_rate) {
    return {Status::OK(), options_.stall_latency_seconds};
  }
  return {Status::OK(), latency};
}

}  // namespace sync
}  // namespace freshen
