// The result writer of the end-to-end benchmark: one run's context (build,
// hardware, seed), its metrics with their units and in-run samples, its
// operation counts, and its correctness verdict, written as one JSON object.
// run.py turns that object into the benchmark's result line and aggregates
// repeats across runs.
#ifndef FRESHEN_E2E_RESULT_WRITER_H_
#define FRESHEN_E2E_RESULT_WRITER_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace freshen::bench {

/// The median of `samples` (any order); 0 for an empty vector.
double Median(std::vector<double> samples);

/// The `q`-quantile (0 <= q <= 1) by nearest rank. Reorders `samples`.
/// Returns 0 for an empty vector.
template <typename T>
double Percentile(std::vector<T>& samples, double q) {
  if (samples.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  const size_t index = std::min(samples.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

/// Peak resident set size of this process (VmHWM), in MB.
double PeakRssMb();

/// One run of one workload.
class RunResult {
 public:
  RunResult(std::string workload, uint64_t seed, bool quick, bool traced);

  /// Records a metric. `samples`, when given, are the in-run measurements
  /// the value summarizes; they are written out as they are.
  void Set(const std::string& name, const std::string& unit, double value,
           std::vector<double> samples = {});

  /// Adds to the run's operation counts.
  void AddOperations(uint64_t attempted, uint64_t failed);

  /// Records a correctness check; a false `ok` makes the run incorrect.
  void Check(bool ok, const std::string& what);

  /// Records one output value that must repeat exactly at a fixed seed.
  void SetGolden(const std::string& name, const std::string& value);

  bool correct() const { return failures_.empty(); }

  /// The whole run as one single-line JSON object.
  std::string ToJson() const;

 private:
  struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
    std::vector<double> samples;
  };

  std::string workload_;
  uint64_t seed_;
  bool quick_;
  bool traced_;
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> golden_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace freshen::bench

#endif  // FRESHEN_E2E_RESULT_WRITER_H_
