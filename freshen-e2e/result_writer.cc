#include "result_writer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>
#include <utility>

#include "common/simd.h"
#include "common/string_util.h"
#include "obs/build_info.h"
#include "obs/export.h"

namespace freshen::bench {
namespace {

std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  return StrFormat("%.17g", value);
}

std::string Quoted(const std::string& text) {
  std::string out(1, '"');
  out += obs::JsonEscape(text);
  out += '"';
  return out;
}

}  // namespace

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double PeakRssMb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::atof(line + 6);
      break;
    }
  }
  std::fclose(status);
  return kb / 1024.0;
}

RunResult::RunResult(std::string workload, uint64_t seed, bool quick,
                     bool traced)
    : workload_(std::move(workload)),
      seed_(seed),
      quick_(quick),
      traced_(traced) {}

void RunResult::Set(const std::string& name, const std::string& unit,
                    double value, std::vector<double> samples) {
  metrics_.push_back({name, unit, value, std::move(samples)});
}

void RunResult::AddOperations(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void RunResult::Check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

void RunResult::SetGolden(const std::string& name, const std::string& value) {
  golden_.emplace_back(name, value);
}

std::string RunResult::ToJson() const {
  const obs::BuildInfo& build = obs::GetBuildInfo();
  std::string out = StrFormat(
      "{\"workload\":%s,\"seed\":%llu,\"quick\":%s,\"traced\":%s,"
      "\"context\":{\"hardware_threads\":%u,\"simd_backend\":%s,"
      "\"build_type\":%s,\"build_flags\":%s,\"compiler\":%s,\"version\":%s},"
      "\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"failures\":[",
      Quoted(workload_).c_str(), static_cast<unsigned long long>(seed_),
      quick_ ? "true" : "false", traced_ ? "true" : "false",
      std::thread::hardware_concurrency(), Quoted(simd::BackendName()).c_str(),
      Quoted(build.build_type).c_str(), Quoted(build.flags).c_str(),
      Quoted(build.compiler).c_str(), Quoted(build.version).c_str(),
      correct() ? "true" : "false", static_cast<unsigned long long>(attempted_),
      static_cast<unsigned long long>(failed_));
  for (size_t i = 0; i < failures_.size(); ++i) {
    if (i > 0) out += ',';
    out += Quoted(failures_[i]);
  }
  out += "],\"golden\":{";
  for (size_t i = 0; i < golden_.size(); ++i) {
    if (i > 0) out += ',';
    out += Quoted(golden_[i].first) + ":" + Quoted(golden_[i].second);
  }
  out += "},\"metrics\":{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& metric = metrics_[i];
    if (i > 0) out += ',';
    out += StrFormat("%s:{\"value\":%s,\"unit\":%s",
                     Quoted(metric.name).c_str(), Number(metric.value).c_str(),
                     Quoted(metric.unit).c_str());
    if (!metric.samples.empty()) {
      out += ",\"samples\":[";
      for (size_t s = 0; s < metric.samples.size(); ++s) {
        if (s > 0) out += ',';
        out += Number(metric.samples[s]);
      }
      out += ']';
    }
    out += '}';
  }
  out += "}}";
  return out;
}

}  // namespace freshen::bench
