// freshend — the resident freshening daemon. Hosts the closed mirror loop
// (OnlineFreshenLoop) on a background thread and serves freshness queries
// over a local UNIX socket speaking the newline protocol from
// src/serve/protocol.h:
//
//   freshend --socket /tmp/freshend.sock --objects 10000 --bandwidth 2500
//   ... elsewhere ...
//   printf 'ISFRESH 42\nSTATS\nQUIT\n' | nc -U /tmp/freshend.sock
//
// Flags:
//   --socket PATH         socket to serve on (default /tmp/freshend.sock)
//   --catalog FILE        load the catalog (FRSHCAT1 binary when the file
//                         carries its magic, CSV otherwise) instead of
//                         generating one
//   --objects N           synthetic catalog size when --catalog is absent
//   --theta T             synthetic catalog Zipf skew
//   --bandwidth B         sync bandwidth per period (default objects / 4)
//   --periods P           stop after P loop periods (0 = run until signal)
//   --period-seconds S    pace the loop to S wall seconds per period
//   --accesses A          simulated accesses per period
//   --threshold F         IsFresh probability threshold (default 0.5)
//   --error-rate E        sync fault injection in [0, 1] (0: every fetch
//                         succeeds, through the loop's own PerfectSource
//                         executor)
//   --seed K              randomness seed
//   --metrics-out FILE    write the final metrics snapshot (JSON) on exit
//   --slo-objective F     freshness SLO: target good-access fraction
//   --age-slo S           age threshold (periods) scoring accesses as good
//   --slo-age-mode 0|1    1: "good" means within --age-slo; 0: strictly
//                         fresh (default)
//   --slowlog-threshold S SLOWLOG records requests handled slower than S
//   --slowlog-capacity N  SLOWLOG ring size
//
// Any other flag exits 2 with "unknown flag: --name".
//
// The admin plane (METRICS/HEALTH/SLO/SLOWLOG/WATCH) is always served;
// `freshenctl top --socket PATH` renders the WATCH stream live.
//
// SIGTERM/SIGINT trigger a graceful drain: the loop finishes its period and
// publishes its final snapshot, the server stops accepting, in-flight
// connections finish, the socket file is removed, and the process exits 0.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include <unistd.h>

#include "common/string_util.h"
#include "flags.h"
#include "freshen/freshen.h"
#include "io/catalog_binary.h"
#include "io/catalog_io.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "serve/daemon.h"
#include "serve/server.h"

namespace {

using namespace freshen;

// Signal flag: the handler only sets this; the main thread does the drain.
volatile std::sig_atomic_t g_shutdown_requested = 0;

void HandleSignal(int) { g_shutdown_requested = 1; }

[[noreturn]] void Die(const Status& status) {
  std::fprintf(stderr, "freshend: %s\n", status.ToString().c_str());
  std::exit(1);
}

template <typename T>
T Unwrap(Result<T> result) {
  if (!result.ok()) Die(result.status());
  return std::move(result).value();
}

ElementSet LoadOrGenerateCatalog(const FlagMap& flags) {
  const std::string path = GetFlag(flags, "--catalog", "");
  if (!path.empty()) {
    return Unwrap(LoadCatalog(path));
  }
  ExperimentSpec spec;
  spec.num_objects = GetInteger<uint32_t>(flags, "--objects", 1000);
  spec.theta = GetDouble(flags, "--theta", 1.0);
  spec.seed = GetInteger<uint64_t>(flags, "--seed", 20030305);
  return Unwrap(GenerateCatalog(spec));
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = ParseFlags(
      argc, argv, 1,
      {"--socket", "--catalog", "--objects", "--theta", "--bandwidth",
       "--periods", "--period-seconds", "--accesses", "--threshold",
       "--error-rate", "--seed", "--metrics-out", "--slo-objective",
       "--age-slo", "--slo-age-mode", "--slowlog-threshold",
       "--slowlog-capacity"});
  const ElementSet truth = LoadOrGenerateCatalog(flags);
  const double bandwidth = GetDouble(
      flags, "--bandwidth", 0.25 * static_cast<double>(truth.size()));
  const uint64_t seed = GetInteger<uint64_t>(flags, "--seed", 20030305);

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();

  // Optional fault-injecting executor, for drills against a flaky source.
  // Without one the loop syncs through its own PerfectSource executor.
  std::unique_ptr<sync::SimulatedSource> faulty;
  std::unique_ptr<sync::SyncExecutor> executor;
  const double error_rate = GetDouble(flags, "--error-rate", 0.0);
  if (!(error_rate >= 0.0 && error_rate <= 1.0)) {
    DieBadFlag("--error-rate", flags.at("--error-rate"), "a number in [0, 1]");
  }
  if (error_rate > 0.0) {
    sync::SimulatedSource::Options source_options;
    source_options.error_rate = error_rate;
    source_options.seed = seed ^ 0x647268ULL;
    faulty = std::make_unique<sync::SimulatedSource>(
        Unwrap(sync::SimulatedSource::Create(source_options)));
    sync::SyncExecutor::Options executor_options;
    executor_options.seed = seed ^ 0x73796eULL;
    executor_options.registry = &registry;
    executor =
        Unwrap(sync::SyncExecutor::Create(faulty.get(), executor_options));
  }

  serve::FreshendDaemon::Options options;
  options.loop.accesses_per_period = GetDouble(flags, "--accesses", 1000.0);
  options.loop.seed = seed ^ 0x6f6c6fULL;
  options.loop.registry = &registry;
  options.loop.executor = executor.get();
  options.freshness_threshold = GetDouble(flags, "--threshold", 0.5);
  options.period_seconds = GetDouble(flags, "--period-seconds", 0.05);
  options.max_periods = GetInteger<uint64_t>(flags, "--periods", 0);
  options.registry = &registry;
  options.slo.objective =
      GetDouble(flags, "--slo-objective", options.slo.objective);
  options.slo.age_slo = GetDouble(flags, "--age-slo", options.slo.age_slo);
  const double age_mode = GetDouble(flags, "--slo-age-mode",
                                    options.slo.good_is_age_slo ? 1.0 : 0.0);
  if (age_mode != 0.0 && age_mode != 1.0) {
    DieBadFlag("--slo-age-mode", flags.at("--slo-age-mode"), "0 or 1");
  }
  options.slo.good_is_age_slo = age_mode == 1.0;
  options.slowlog.threshold_seconds = GetDouble(
      flags, "--slowlog-threshold", options.slowlog.threshold_seconds);
  options.slowlog.capacity = GetInteger<size_t>(
      flags, "--slowlog-capacity", options.slowlog.capacity);
  auto daemon =
      Unwrap(serve::FreshendDaemon::Create(truth, bandwidth, options));

  serve::LineServer::Options server_options;
  server_options.socket_path =
      GetFlag(flags, "--socket", "/tmp/freshend.sock");
  server_options.registry = &registry;
  auto server =
      Unwrap(serve::LineServer::Start(daemon.get(), server_options));

  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGPIPE, SIG_IGN);  // Client disconnects must not kill us.

  if (const Status started = daemon->Start(); !started.ok()) Die(started);
  std::printf("freshend: serving %zu elements on %s (pid %d)\n",
              truth.size(), server->socket_path().c_str(),
              static_cast<int>(::getpid()));
  std::fflush(stdout);

  // Run until a signal arrives or the loop finishes its --periods budget.
  while (g_shutdown_requested == 0 && daemon->running()) {
    ::usleep(50 * 1000);
  }

  // Graceful drain: finish the period and final publication, stop the
  // transport (in-flight requests complete), then report.
  std::printf("freshend: draining...\n");
  daemon->Stop();
  server->Stop();
  const serve::DaemonStats stats = daemon->Stats();
  const serve::ServerStats transport = server->stats();
  std::printf(
      "freshend: drained after %llu periods (epoch %llu, %llu queries, "
      "%llu connections, %llu refused)\n",
      (unsigned long long)stats.periods,
      (unsigned long long)stats.snapshot.epoch,
      (unsigned long long)stats.queries,
      (unsigned long long)transport.accepted,
      (unsigned long long)transport.rejected);

  const std::string metrics_out = GetFlag(flags, "--metrics-out", "");
  if (!metrics_out.empty()) {
    const Status written = WriteStringToFile(
        obs::FormatJson(registry.Snapshot()), metrics_out);
    if (!written.ok()) Die(written);
    std::printf("freshend: metrics written to %s\n", metrics_out.c_str());
  }
  return 0;
}
