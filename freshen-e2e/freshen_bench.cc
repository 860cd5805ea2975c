// freshen_bench — one run of one workload of the freshen-e2e benchmark.
//
//   freshen_bench --workload loop_events --seed 1 --seconds 15 --trace 0
//                 --out-dir .bench_build/freshen-e2e/out [--quick 1]
//
// Generates the workload's catalog from the seed and writes it as a FRSHCAT1
// file (the measured stack only loads it), then runs one pass against a
// fresh freshend stack. A traced run (--trace 1) records the flight recorder
// through the set-ups and every other measured period, writes it to
// <out-dir>/<workload>.trace.json, and writes its metrics to
// <out-dir>/<workload>.layers.json.
//
// Progress goes to stderr. stdout gets one JSON object with every metric,
// correctness check, operation count and golden value; run.py builds this
// binary and turns that object into the benchmark's result line. Exit code
// 0 means every check passed, 1 a failed check or a stack that could not
// run, 2 bad flags.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>

#include "common/string_util.h"
#include "io/catalog_binary.h"
#include "io/catalog_io.h"
#include "model/element.h"
#include "result_writer.h"
#include "rng/alias_table.h"
#include "workload/generator.h"
#include "workload/spec.h"
#include "workloads.h"

namespace {

using namespace freshen;
using namespace freshen::bench;

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "freshen_bench: %s\n"
               "usage: freshen_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 --out-dir DIR [--quick 0|1]\n",
               problem.c_str());
  std::exit(2);
}

[[noreturn]] void Die(const Status& status) {
  std::fprintf(stderr, "freshen_bench: %s\n", status.ToString().c_str());
  std::exit(1);
}

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) Usage("unexpected argument " + arg);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      flags[arg.substr(2)] = argv[++i];
    } else {
      Usage("flag " + arg + " needs a value");
    }
  }
  for (const auto& [name, value] : flags) {
    if (name != "workload" && name != "seed" && name != "seconds" &&
        name != "trace" && name != "out-dir" && name != "quick") {
      Usage("unknown flag --" + name);
    }
  }
  return flags;
}

std::string Required(const std::map<std::string, std::string>& flags,
                     const std::string& name) {
  const auto it = flags.find(name);
  if (it == flags.end() || it->second.empty()) Usage("--" + name + " is required");
  return it->second;
}

bool Boolean(const std::map<std::string, std::string>& flags,
             const std::string& name) {
  const auto it = flags.find(name);
  if (it == flags.end()) return false;
  if (it->second != "0" && it->second != "1") Usage("--" + name + " is 0 or 1");
  return it->second == "1";
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = ParseFlags(argc, argv);
  const std::string name = Required(flags, "workload");
  const Workload* found = FindWorkload(name);
  if (found == nullptr) Usage("unknown workload " + name);
  char* end = nullptr;
  const std::string seed_text = Required(flags, "seed");
  const uint64_t seed = std::strtoull(seed_text.c_str(), &end, 10);
  if (*end != '\0') Usage("--seed must be an integer");
  const std::string seconds_text = Required(flags, "seconds");
  const double seconds = std::strtod(seconds_text.c_str(), &end);
  if (*end != '\0' || !(seconds > 0.0)) Usage("--seconds must be positive");
  if (flags.count("trace") == 0) Usage("--trace is required");
  const bool traced = Boolean(flags, "trace");
  const bool quick = Boolean(flags, "quick");
  const std::string out_dir = Required(flags, "out-dir");
  const Workload workload = quick ? Shrink(*found) : *found;

  PassOptions options;
  options.seed = seed;
  options.seconds = seconds;
  options.quick = quick;
  options.traced = traced;
  options.catalog_path =
      StrFormat("%s/%s-%llu.frshcat", out_dir.c_str(), name.c_str(),
                static_cast<unsigned long long>(seed));
  options.socket_path =
      StrFormat("%s/%s-%d.sock", out_dir.c_str(), name.c_str(),
                static_cast<int>(::getpid()));
  options.trace_path = out_dir + "/" + name + ".trace.json";
  // The generated catalog only lives long enough to be written out and to
  // give the client its key distribution; the stack loads the file.
  std::unique_ptr<AliasTable> keys;
  {
    ExperimentSpec spec;
    spec.num_objects = workload.num_objects;
    spec.update_stddev = workload.update_stddev;
    spec.theta = 1.0;
    spec.seed = seed;
    auto catalog = GenerateCatalog(spec);
    if (!catalog.ok()) Die(catalog.status());
    const Status saved = SaveCatalogBinary(*catalog, options.catalog_path);
    if (!saved.ok()) Die(saved);
    keys = std::make_unique<AliasTable>(AccessProbs(*catalog));
  }
  options.keys = keys.get();
  std::fprintf(stderr,
               "freshen_bench: %s seed=%llu seconds=%g trace=%d quick=%d "
               "(freshend %s)\n",
               name.c_str(), static_cast<unsigned long long>(seed), seconds,
               traced ? 1 : 0, quick ? 1 : 0, workload.freshend_flags);

  RunResult result(name, seed, quick, traced);
  const Status status = RunPass(workload, options, &result);
  std::remove(options.catalog_path.c_str());
  if (!status.ok()) Die(status);

  const std::string json = result.ToJson();
  if (traced) {
    const Status written =
        WriteStringToFile(json + "\n", out_dir + "/" + name + ".layers.json");
    if (!written.ok()) Die(written);
  }
  std::printf("%s\n", json.c_str());
  return result.correct() ? 0 : 1;
}
