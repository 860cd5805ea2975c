// Shared helpers for the figure/table benches: catalog construction from
// specs and planner shorthands, plus the one harness every BENCH_*.json
// producer uses: repeated and interleaved A/B timings summarised as median
// and quartiles, one JSON writer, and one gate reporter.
#ifndef FRESHEN_BENCH_BENCH_UTIL_H_
#define FRESHEN_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/quick_mode.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/planner.h"
#include "io/catalog_io.h"
#include "model/element.h"
#include "obs/build_info.h"
#include "obs/export.h"
#include "workload/generator.h"
#include "workload/spec.h"

namespace freshen::bench {

/// FRESHEN_QUICK (common/quick_mode.h): big-case benches shrink their
/// workloads ~50x so the whole suite runs in seconds. Full-size runs are
/// the default.
using ::freshen::QuickMode;

/// The 1-minute load average read from /proc/loadavg (-1 when unreadable).
inline double LoadAverage1m() {
  std::FILE* file = std::fopen("/proc/loadavg", "r");
  if (file == nullptr) return -1.0;
  double load = -1.0;
  if (std::fscanf(file, "%lf", &load) != 1) load = -1.0;
  std::fclose(file);
  return load;
}

/// The q-quantile of `samples` (nearest rank; 0 when empty).
inline double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t k = std::min(
      samples.size() - 1,
      static_cast<size_t>(q * static_cast<double>(samples.size() - 1) + 0.5));
  return samples[k];
}

/// Repeats per timed quantity, and pairs per A/B comparison.
constexpr int kRepeats = 5;

/// Median and quartiles of repeated samples (nearest rank, as Percentile).
struct Spread {
  double median = 0.0;
  double p25 = 0.0;
  double p75 = 0.0;
};

inline Spread SpreadOf(const std::vector<double>& samples) {
  return {Percentile(samples, 0.5), Percentile(samples, 0.25),
          Percentile(samples, 0.75)};
}

/// Calls `sample` k times and summarises what it returns: a quantity the
/// callback measured itself (say, seconds per period after a warm-up).
template <typename Sample>
Spread Repeat(int k, Sample&& sample) {
  std::vector<double> values;
  for (int i = 0; i < k; ++i) values.push_back(sample());
  return SpreadOf(values);
}

/// Wall seconds of `fn`, repeated k times.
template <typename Fn>
Spread TimeSeconds(int k, Fn&& fn) {
  return Repeat(k, [&fn] {
    WallTimer timer;
    fn();
    return timer.ElapsedSeconds();
  });
}

/// An A/B comparison: each side's spread, and the spread of the per-pair
/// difference b - a, absolute and as a percentage of a.
struct PairSpread {
  Spread a;
  Spread b;
  Spread diff;
  Spread diff_pct;
};

/// k interleaved A/B pairs; even pairs run A first, odd pairs B first, so a
/// drift in machine state (clock, cache, a neighbour's load) hits both sides.
template <typename SampleA, typename SampleB>
PairSpread RepeatPairs(int k, SampleA&& sample_a, SampleB&& sample_b) {
  std::vector<double> a(k), b(k), diff(k), diff_pct(k);
  for (int i = 0; i < k; ++i) {
    if (i % 2 == 0) a[i] = sample_a();
    b[i] = sample_b();
    if (i % 2 == 1) a[i] = sample_a();
    diff[i] = b[i] - a[i];
    diff_pct[i] = a[i] > 0.0 ? 100.0 * diff[i] / a[i] : 0.0;
  }
  return {SpreadOf(a), SpreadOf(b), SpreadOf(diff), SpreadOf(diff_pct)};
}

/// Builds one JSON object member by member, in call order.
class JsonObject {
 public:
  /// Ten significant digits: counts below 10^10 print exactly.
  JsonObject& Num(const char* key, double value) {
    return Raw(key, StrFormat("%.10g", value));
  }
  JsonObject& Bool(const char* key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  JsonObject& Str(const char* key, const std::string& value) {
    return Raw(key, StrFormat("\"%s\"", obs::JsonEscape(value).c_str()));
  }
  JsonObject& Spread(const char* key, const bench::Spread& s) {
    return Raw(key,
               StrFormat("{\"median\": %.10g, \"p25\": %.10g, \"p75\": %.10g}",
                         s.median, s.p25, s.p75));
  }
  /// `json` must already be valid JSON (a nested object or array).
  JsonObject& Raw(const char* key, const std::string& json) {
    members_.push_back(StrFormat("\"%s\": ", key) + json);
    return *this;
  }
  /// The object on one line, or with one member per line when `indent`.
  std::string str(bool indent = false) const {
    std::string out = indent ? "{\n  " : "{";
    for (size_t i = 0; i < members_.size(); ++i) {
      if (i > 0) out += indent ? ",\n  " : ", ";
      out += members_[i];
    }
    return out + (indent ? "\n}\n" : "}");
  }

 private:
  friend Status WriteBenchJson(const std::string&, const char*, int,
                               const JsonObject&);
  std::vector<std::string> members_;
};

/// A JSON array of rendered elements, one per line.
inline std::string JsonArray(const std::vector<std::string>& elements) {
  std::string out = "[";
  for (size_t i = 0; i < elements.size(); ++i) {
    out += (i == 0 ? "\n    " : ",\n    ") + elements[i];
  }
  return out + "\n  ]";
}

/// Writes a producer's evidence file: the bench name, hardware_threads, the
/// build info, quick and the repeat count k, then `fields`, one member per
/// line.
inline Status WriteBenchJson(const std::string& path, const char* bench,
                             int k, const JsonObject& fields) {
  JsonObject json;
  json.Str("bench", bench)
      .Num("hardware_threads", par::HardwareThreads())
      .Raw("build", obs::BuildInfoJson())
      .Bool("quick", QuickMode())
      .Num("k", k);
  json.members_.insert(json.members_.end(), fields.members_.begin(),
                       fields.members_.end());
  const Status written = WriteStringToFile(json.str(/*indent=*/true), path);
  if (written.ok()) std::printf("wrote %s\n", path.c_str());
  return written;
}

/// "median [p25, p75]" with `digits` decimals, for printed tables.
inline std::string FormatSpread(const Spread& s, int digits) {
  return StrFormat("%.*f [%.*f, %.*f]", digits, s.median, digits, s.p25,
                   digits, s.p75);
}

/// Collects a producer's gate verdicts. A failed gate prints one
/// `FAIL: ...` line with the 1-minute load average: timing thresholds assume
/// free cores, and a failure on a loaded machine should say so.
class GateReport {
 public:
  /// Records a correctness gate and returns `passed`; a failure prints
  /// `message` and fails the producer in every build.
  bool Check(bool passed, const std::string& message) {
    if (!passed) {
      std::fprintf(stderr, "FAIL: %s (load average %.2f)\n", message.c_str(),
                   LoadAverage1m());
    }
    failed_ |= !passed;
    return passed;
  }

  /// Records a timing gate and returns `passed`. Hard like Check, except in
  /// a sanitizer build (FRESHEN_SANITIZED_BUILD), whose instrumentation
  /// alone can move a timing past its threshold: there a failure prints a
  /// `TIMING (not enforced in a sanitizer build): ...` line and does not
  /// fail the producer.
  bool CheckTiming(bool passed, const std::string& message) {
#ifdef FRESHEN_SANITIZED_BUILD
    if (!passed) {
      std::fprintf(stderr,
                   "TIMING (not enforced in a sanitizer build): %s (load "
                   "average %.2f)\n",
                   message.c_str(), LoadAverage1m());
    }
    return passed;
#else
    return Check(passed, message);
#endif
  }

  /// The process exit code: 1 when a gate failed or the evidence file could
  /// not be written (`written` names the path), else 0.
  int ExitCode(const Status& written) const {
    if (!written.ok()) {
      std::fprintf(stderr, "FAIL: evidence file not written: %s\n",
                   written.ToString().c_str());
    }
    return failed_ || !written.ok() ? 1 : 0;
  }

 private:
  bool failed_ = false;
};

/// Table 3's big case, shrunk when QuickMode().
inline ExperimentSpec BigCaseSpec() {
  ExperimentSpec spec = ExperimentSpec::BigCase();
  if (QuickMode()) {
    spec.num_objects /= 50;       // 10,000 objects.
    spec.syncs_per_period /= 50;  // Bandwidth scales with N.
  }
  return spec;
}

/// Aborts naming `what` and the status unless `status` is OK.
inline void MustOk(const Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
  std::abort();
}

/// Builds the catalog for a spec, aborting on invalid specs (benches use
/// hard-coded known-good parameters).
inline ElementSet MustCatalog(const ExperimentSpec& spec) {
  auto catalog = GenerateCatalog(spec);
  MustOk(catalog.status(), "catalog generation");
  return std::move(catalog).value();
}

/// Plans and returns the plan, aborting on failure.
inline FreshenPlan MustPlan(const PlannerOptions& options,
                            const ElementSet& elements, double bandwidth) {
  auto plan = FreshenPlanner(options).Plan(elements, bandwidth);
  MustOk(plan.status(), "planning");
  return std::move(plan).value();
}

/// Perceived freshness of the optimal (exact) PF plan — the "best_case"
/// reference line in Figures 5 and 7.
inline double BestCasePf(const ElementSet& elements, double bandwidth) {
  PlannerOptions options;
  options.technique = Technique::kPerceived;
  options.mode = PlanMode::kExact;
  return MustPlan(options, elements, bandwidth).perceived_freshness;
}

/// The four §3.1 partitioning techniques in the order the figures list them.
inline const std::vector<PartitionKey>& FigurePartitionKeys() {
  static const std::vector<PartitionKey> keys = {
      PartitionKey::kPerceivedFreshness,
      PartitionKey::kAccessProb,
      PartitionKey::kChangeRate,
      PartitionKey::kProbOverLambda,
  };
  return keys;
}

}  // namespace freshen::bench

#endif  // FRESHEN_BENCH_BENCH_UTIL_H_
