#include "serve/protocol.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <vector>

#include "common/string_util.h"
#include "common/timer.h"
#include "obs/build_info.h"
#include "obs/drift.h"
#include "obs/export.h"
#include "obs/recorder.h"
#include "obs/slo.h"
#include "serve/slowlog.h"

namespace freshen {
namespace serve {
namespace {

std::string_view Trim(std::string_view text) {
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.front()))) {
    text.remove_prefix(1);
  }
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  return text;
}

std::string Lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(
      static_cast<unsigned char>(c)));
  return out;
}

// JSON has no NaN/Infinity literals; clamp them to null.
std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  return StrFormat("%.17g", value);
}

ProtocolResponse Error(const std::string& message) {
  ProtocolResponse response;
  response.line =
      "{\"ok\":false,\"error\":\"" + obs::JsonEscape(message) + "\"}";
  return response;
}

ProtocolResponse FromStatus(const Status& status) {
  return Error(status.ToString());
}

// Parses the single <id> argument of ISFRESH/AGE/PLAN.
bool ParseId(std::string_view arg, size_t* id) {
  arg = Trim(arg);
  if (arg.empty()) return false;
  uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(arg.data(), arg.data() + arg.size(), value);
  if (ec != std::errc() || ptr != arg.data() + arg.size()) return false;
  *id = static_cast<size_t>(value);
  return true;
}

bool ParseDouble(std::string_view arg, double* value) {
  arg = Trim(arg);
  if (arg.empty()) return false;
  // from_chars<double> is reliable on the GCC this project targets.
  const auto [ptr, ec] =
      std::from_chars(arg.data(), arg.data() + arg.size(), *value);
  return ec == std::errc() && ptr == arg.data() + arg.size();
}

// Splits args on whitespace into at most 2 tokens.
std::vector<std::string_view> SplitArgs(std::string_view args) {
  std::vector<std::string_view> tokens;
  size_t pos = 0;
  while (pos < args.size()) {
    while (pos < args.size() &&
           std::isspace(static_cast<unsigned char>(args[pos]))) {
      ++pos;
    }
    size_t end = pos;
    while (end < args.size() &&
           !std::isspace(static_cast<unsigned char>(args[end]))) {
      ++end;
    }
    if (end > pos) tokens.push_back(args.substr(pos, end - pos));
    pos = end;
  }
  return tokens;
}

std::string WindowJson(const obs::SloWindowView& window) {
  return StrFormat(
      "{\"window_periods\":%s,\"periods\":%llu,\"accesses\":%llu,"
      "\"good\":%llu,\"bad_ratio\":%s,\"burn_rate\":%s}",
      JsonNumber(window.length_periods).c_str(),
      static_cast<unsigned long long>(window.periods),
      static_cast<unsigned long long>(window.accesses),
      static_cast<unsigned long long>(window.good),
      JsonNumber(window.bad_ratio).c_str(),
      JsonNumber(window.burn_rate).c_str());
}

// The drift detector's report as a JSON object.
std::string DriftJson(const FreshendDaemon& daemon) {
  const obs::DriftReport report = daemon.drift()->Report();
  std::string top = "[";
  for (size_t i = 0; i < report.top.size(); ++i) {
    if (i > 0) top += ',';
    const obs::DriftOffender& offender = report.top[i];
    top += StrFormat(
        "{\"element\":%zu,\"planned_rate\":%s,\"observed_rate\":%s,"
        "\"score\":%s,\"evidence\":%s}",
        offender.element, JsonNumber(offender.planned_rate).c_str(),
        JsonNumber(offender.observed_rate).c_str(),
        JsonNumber(offender.score).c_str(),
        JsonNumber(offender.evidence).c_str());
  }
  top += ']';
  return StrFormat(
      "{\"aggregate_score\":%s,\"max_score\":%s,\"scored_elements\":%zu,"
      "\"flagged_elements\":%zu,\"top\":%s}",
      JsonNumber(report.aggregate_score).c_str(),
      JsonNumber(report.max_score).c_str(), report.scored_elements,
      report.flagged_elements, top.c_str());
}

ProtocolResponse HandleMetrics(const FreshendDaemon& daemon,
                               std::string_view args) {
  const std::string format =
      args.empty() ? std::string("json") : Lower(Trim(args));
  const obs::RegistrySnapshot snapshot = daemon.registry().Snapshot();
  ProtocolResponse response;
  if (format == "json") {
    // FormatJson is pretty-printed with "\n  " separators; dropping the
    // newlines yields the same document on one line.
    std::string payload = obs::FormatJson(snapshot);
    payload.erase(std::remove(payload.begin(), payload.end(), '\n'),
                  payload.end());
    response.line = StrFormat(
        "{\"ok\":true,\"cmd\":\"metrics\",\"format\":\"json\","
        "\"series\":%zu,\"payload\":%s}",
        snapshot.samples.size(), payload.c_str());
    return response;
  }
  if (format == "prom") {
    response.line = StrFormat(
        "{\"ok\":true,\"cmd\":\"metrics\",\"format\":\"prom\","
        "\"series\":%zu,\"payload\":\"%s\"}",
        snapshot.samples.size(),
        obs::JsonEscape(obs::FormatPrometheus(snapshot)).c_str());
    return response;
  }
  return Error("usage: metrics [json|prom]");
}

ProtocolResponse HandleHealth(const FreshendDaemon& daemon) {
  const DaemonStats stats = daemon.Stats();
  obs::MetricsRegistry& registry = daemon.registry();
  // The server shares the daemon's registry, so its saturation counters
  // are readable here (GetCounter registers-at-zero when no server runs).
  const double rejected =
      registry.GetCounter("freshen_serve_rejected_total")->value();
  const double overflow =
      registry.GetCounter("freshen_serve_overflow_total")->value();
  const obs::EventRecorder::Stats recorder =
      obs::EventRecorder::Global().stats();

  const obs::SloState slo_state = daemon.slo()->state();
  const char* status = "ok";
  if (slo_state == obs::SloState::kAlert) {
    status = "critical";
  } else if (slo_state == obs::SloState::kBurning || rejected > 0.0 ||
             overflow > 0.0) {
    status = "degraded";
  }

  ProtocolResponse response;
  response.line = StrFormat(
      "{\"ok\":true,\"cmd\":\"health\",\"status\":\"%s\","
      "\"running\":%s,\"uptime_seconds\":%s,\"periods\":%llu,"
      "\"epoch\":%llu,\"slo_state\":\"%s\","
      "\"rejected_connections\":%s,\"overflow_disconnects\":%s,"
      "\"recorder_emitted\":%llu,\"recorder_recorded\":%llu,"
      "\"recorder_dropped\":%llu,\"slow_queries\":%llu}",
      status, stats.running ? "true" : "false",
      JsonNumber(daemon.UptimeSeconds()).c_str(),
      static_cast<unsigned long long>(stats.periods),
      static_cast<unsigned long long>(stats.snapshot.epoch),
      obs::SloStateName(slo_state), JsonNumber(rejected).c_str(),
      JsonNumber(overflow).c_str(),
      static_cast<unsigned long long>(recorder.emitted),
      static_cast<unsigned long long>(recorder.recorded),
      static_cast<unsigned long long>(recorder.dropped),
      static_cast<unsigned long long>(daemon.slow_log()->total_recorded()));
  return response;
}

ProtocolResponse HandleSlo(const FreshendDaemon& daemon) {
  const obs::SloReport report = daemon.slo()->Report();
  ProtocolResponse response;
  response.line = StrFormat(
      "{\"ok\":true,\"cmd\":\"slo\",\"state\":\"%s\",\"objective\":%s,"
      "\"error_budget\":%s,\"good_is_age_slo\":%s,\"age_slo\":%s,"
      "\"transitions\":%llu,\"last_transition_time\":%s,\"now\":%s,"
      "\"fast\":%s,\"slow\":%s,\"total_accesses\":%llu,"
      "\"total_good\":%llu,\"overall_good_ratio\":%s,"
      "\"budget_remaining\":%s,\"drift\":%s}",
      obs::SloStateName(report.state), JsonNumber(report.objective).c_str(),
      JsonNumber(report.error_budget).c_str(),
      report.good_is_age_slo ? "true" : "false",
      JsonNumber(report.age_slo).c_str(),
      static_cast<unsigned long long>(report.transitions),
      JsonNumber(report.last_transition_time).c_str(),
      JsonNumber(report.now).c_str(), WindowJson(report.fast).c_str(),
      WindowJson(report.slow).c_str(),
      static_cast<unsigned long long>(report.total_accesses),
      static_cast<unsigned long long>(report.total_good),
      JsonNumber(report.overall_good_ratio).c_str(),
      JsonNumber(report.budget_remaining).c_str(),
      DriftJson(daemon).c_str());
  return response;
}

ProtocolResponse HandleSlowlog(const FreshendDaemon& daemon) {
  const SlowQueryLog& log = *daemon.slow_log();
  const std::vector<SlowQueryEntry> entries = log.Entries();
  std::string body = "[";
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) body += ',';
    body += StrFormat(
        "{\"id\":%llu,\"command\":\"%s\",\"request\":\"%s\","
        "\"seconds\":%s,\"recorded_at\":%s}",
        static_cast<unsigned long long>(entries[i].id),
        obs::JsonEscape(entries[i].command).c_str(),
        obs::JsonEscape(entries[i].request).c_str(),
        JsonNumber(entries[i].seconds).c_str(),
        JsonNumber(entries[i].recorded_at).c_str());
  }
  body += ']';
  ProtocolResponse response;
  response.line = StrFormat(
      "{\"ok\":true,\"cmd\":\"slowlog\",\"threshold_seconds\":%s,"
      "\"capacity\":%zu,\"recorded\":%llu,\"entries\":%s}",
      JsonNumber(log.threshold_seconds()).c_str(), log.capacity(),
      static_cast<unsigned long long>(log.total_recorded()), body.c_str());
  return response;
}

ProtocolResponse HandleWatch(std::string_view args) {
  const std::vector<std::string_view> tokens = SplitArgs(args);
  if (tokens.empty() || tokens.size() > 2) {
    return Error("usage: watch <interval-seconds> [count]");
  }
  double interval = 0.0;
  if (!ParseDouble(tokens[0], &interval) || !std::isfinite(interval) ||
      interval < 0.001 || interval > 3600.0) {
    return Error("watch interval must be in [0.001, 3600] seconds");
  }
  uint64_t count = 0;
  if (tokens.size() == 2) {
    size_t parsed = 0;
    if (!ParseId(tokens[1], &parsed) || parsed > 1000000) {
      return Error("watch count must be an integer in [0, 1000000]");
    }
    count = parsed;
  }
  ProtocolResponse response;
  response.watch_interval_seconds = interval;
  response.watch_count = count;
  response.line = StrFormat(
      "{\"ok\":true,\"cmd\":\"watch\",\"interval_seconds\":%s,"
      "\"count\":%llu}",
      JsonNumber(interval).c_str(),
      static_cast<unsigned long long>(count));
  return response;
}

ProtocolResponse Dispatch(const FreshendDaemon& daemon,
                          const std::string& verb, std::string_view args) {
  if (verb == "ping") {
    return ProtocolResponse{"{\"ok\":true,\"cmd\":\"ping\"}"};
  }
  if (verb == "quit") {
    ProtocolResponse response;
    response.line = "{\"ok\":true,\"cmd\":\"quit\"}";
    response.close = true;
    return response;
  }
  if (verb == "stats") {
    const DaemonStats stats = daemon.Stats();
    ProtocolResponse response;
    response.line = StrFormat(
        "{\"ok\":true,\"cmd\":\"stats\",\"epoch\":%llu,"
        "\"plan_version\":%llu,\"published_at\":%s,"
        "\"num_elements\":%zu,\"num_shards\":%zu,"
        "\"shards_rebuilt\":%zu,\"shards_recycled\":%zu,"
        "\"plan_bandwidth\":%s,"
        "\"periods\":%llu,\"queries\":%llu,"
        "\"publications\":%llu,\"snapshots_retired\":%llu,"
        "\"snapshots_reclaimed\":%llu,\"retired_pending\":%zu,"
        "\"pinned_readers\":%zu,\"running\":%s,"
        "\"uptime_seconds\":%s,\"build\":%s}",
        static_cast<unsigned long long>(stats.snapshot.epoch),
        static_cast<unsigned long long>(stats.snapshot.plan_version),
        JsonNumber(stats.snapshot.published_at).c_str(),
        stats.snapshot.num_elements, stats.snapshot.num_shards,
        stats.snapshot.shards_rebuilt, stats.snapshot.shards_recycled,
        JsonNumber(stats.snapshot.plan_bandwidth).c_str(),
        static_cast<unsigned long long>(stats.periods),
        static_cast<unsigned long long>(stats.queries),
        static_cast<unsigned long long>(stats.store.publications),
        static_cast<unsigned long long>(stats.store.snapshots_retired),
        static_cast<unsigned long long>(stats.store.snapshots_reclaimed),
        stats.store.retired_pending, stats.pinned_readers,
        stats.running ? "true" : "false",
        JsonNumber(daemon.UptimeSeconds()).c_str(),
        obs::BuildInfoJson().c_str());
    return response;
  }
  if (verb == "metrics") return HandleMetrics(daemon, args);
  if (verb == "health") return HandleHealth(daemon);
  if (verb == "slo") return HandleSlo(daemon);
  if (verb == "slowlog") return HandleSlowlog(daemon);
  if (verb == "watch") return HandleWatch(args);

  // The remaining verbs all take exactly one element id.
  size_t id = 0;
  if (verb == "isfresh" || verb == "age" || verb == "plan") {
    if (!ParseId(args, &id)) {
      return Error("usage: " + verb + " <element-id>");
    }
  }

  if (verb == "isfresh") {
    auto verdict = daemon.IsFresh(id);
    if (!verdict.ok()) return FromStatus(verdict.status());
    ProtocolResponse response;
    response.line = StrFormat(
        "{\"ok\":true,\"cmd\":\"isfresh\",\"id\":%zu,\"epoch\":%llu,"
        "\"fresh\":%s,\"p_fresh\":%s,\"elapsed\":%s}",
        id, static_cast<unsigned long long>(verdict->epoch),
        verdict->fresh ? "true" : "false",
        JsonNumber(verdict->fresh_probability).c_str(),
        JsonNumber(verdict->elapsed).c_str());
    return response;
  }
  if (verb == "age") {
    auto estimate = daemon.ExpectedAge(id);
    if (!estimate.ok()) return FromStatus(estimate.status());
    ProtocolResponse response;
    response.line = StrFormat(
        "{\"ok\":true,\"cmd\":\"age\",\"id\":%zu,\"epoch\":%llu,"
        "\"expected_age\":%s,\"elapsed\":%s}",
        id, static_cast<unsigned long long>(estimate->epoch),
        JsonNumber(estimate->expected_age).c_str(),
        JsonNumber(estimate->elapsed).c_str());
    return response;
  }
  if (verb == "plan") {
    auto entry = daemon.GetPlan(id);
    if (!entry.ok()) return FromStatus(entry.status());
    ProtocolResponse response;
    response.line = StrFormat(
        "{\"ok\":true,\"cmd\":\"plan\",\"id\":%zu,\"epoch\":%llu,"
        "\"frequency\":%s,\"interval\":%s,\"bandwidth_share\":%s}",
        id, static_cast<unsigned long long>(entry->epoch),
        JsonNumber(entry->frequency).c_str(),
        JsonNumber(entry->interval).c_str(),
        JsonNumber(entry->bandwidth_share).c_str());
    return response;
  }
  return Error("unknown command: " + verb +
               " (expected isfresh/age/plan/stats/metrics/health/slo/"
               "slowlog/watch/ping/quit)");
}

// Only known verbs become histogram labels; anything a client invents is
// pooled under "unknown" so abusive input cannot grow the registry.
const char* CommandLabel(const std::string& verb) {
  static constexpr const char* kVerbs[] = {
      "ping", "quit",  "stats",   "metrics", "health", "slo",
      "slowlog", "watch", "isfresh", "age",     "plan"};
  for (const char* known : kVerbs) {
    if (verb == known) return known;
  }
  return "unknown";
}

}  // namespace

ProtocolResponse HandleRequestLine(const FreshendDaemon& daemon,
                                   std::string_view line) {
  const std::string_view trimmed = Trim(line);
  if (trimmed.empty()) return Error("empty request");
  if (trimmed.size() > 256) return Error("request too long");

  const size_t space = trimmed.find(' ');
  const std::string verb = Lower(trimmed.substr(0, space));
  const std::string_view args =
      space == std::string_view::npos ? std::string_view()
                                      : trimmed.substr(space + 1);

  WallTimer timer;
  ProtocolResponse response = Dispatch(daemon, verb, args);
  const double elapsed = timer.ElapsedSeconds();
  const char* label = CommandLabel(verb);
  daemon.registry()
      .GetHistogram("freshen_serve_command_seconds",
                    obs::LatencySecondsBuckets(), {{"cmd", label}})
      ->Record(elapsed);
  daemon.slow_log()->Record(trimmed, label, elapsed, daemon.UptimeSeconds());
  return response;
}

std::string FormatWatchSample(const FreshendDaemon& daemon, uint64_t seq) {
  const DaemonStats stats = daemon.Stats();
  const double freshness =
      daemon.registry()
          .GetGauge("freshen_mirror_perceived_freshness")
          ->value();
  const obs::SloReport slo = daemon.slo()->Report();
  const obs::DriftReport drift = daemon.drift()->Report();
  return StrFormat(
      "{\"ok\":true,\"cmd\":\"watch_sample\",\"seq\":%llu,"
      "\"uptime_seconds\":%s,\"epoch\":%llu,\"periods\":%llu,"
      "\"queries\":%llu,\"running\":%s,\"perceived_freshness\":%s,"
      "\"slo_state\":\"%s\",\"fast_burn\":%s,\"slow_burn\":%s,"
      "\"budget_remaining\":%s,\"drift_score\":%s,\"drift_flagged\":%zu}",
      static_cast<unsigned long long>(seq),
      JsonNumber(daemon.UptimeSeconds()).c_str(),
      static_cast<unsigned long long>(stats.snapshot.epoch),
      static_cast<unsigned long long>(stats.periods),
      static_cast<unsigned long long>(stats.queries),
      stats.running ? "true" : "false", JsonNumber(freshness).c_str(),
      obs::SloStateName(slo.state), JsonNumber(slo.fast.burn_rate).c_str(),
      JsonNumber(slo.slow.burn_rate).c_str(),
      JsonNumber(slo.budget_remaining).c_str(),
      JsonNumber(drift.aggregate_score).c_str(), drift.flagged_elements);
}

}  // namespace serve
}  // namespace freshen
