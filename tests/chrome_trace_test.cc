// Tests for the Chrome trace_event exporter and the determinism contract of
// virtual-time events: a seeded faulted closed-loop run (the sync-drill
// scenario) must produce a parseable trace with matched B/E pairs and
// per-thread monotone timestamps, the merged virtual-event dump must repeat
// byte for byte at a fixed seed, and be byte-identical across simulator
// thread counts. Runs under `ctest -L tsan` in sanitizer builds (the
// recorder is fed from the loop and sharded simulator workers concurrently).
#include <cctype>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mirror/online_loop.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "sim/simulator.h"
#include "sync/executor.h"
#include "sync/source.h"
#include "workload/generator.h"

namespace freshen {
namespace {

using obs::Event;
using obs::EventClock;
using obs::EventPhase;
using obs::EventRecorder;

// ---------------------------------------------------------------------------
// Minimal JSON parser — just enough to validate trace_event output. Parses
// objects, arrays, strings (with escapes), numbers, true/false/null.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue* Get(const std::string& key) const {
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    const bool ok = ParseValue(out);
    SkipWs();
    return ok && pos_ == text_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseValue(JsonValue* out) {
    SkipWs();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->string);
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out->kind = JsonValue::Kind::kBool;
      pos_ += 5;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return true;
    }
    return ParseNumber(out);
  }

  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    if (!Consume('{')) return false;
    if (Consume('}')) return true;
    while (true) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) return false;
      if (!Consume(':')) return false;
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object.emplace(std::move(key), std::move(value));
      if (Consume(',')) continue;
      return Consume('}');
    }
  }

  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    if (!Consume('[')) return false;
    if (Consume(']')) return true;
    while (true) {
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->array.push_back(std::move(value));
      if (Consume(',')) continue;
      return Consume(']');
    }
  }

  bool ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char escaped = text_[pos_++];
        switch (escaped) {
          case 'n':
            c = '\n';
            break;
          case 't':
            c = '\t';
            break;
          case '"':
          case '\\':
          case '/':
            c = escaped;
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return false;
            c = static_cast<char>(
                std::strtol(text_.substr(pos_, 4).c_str(), nullptr, 16));
            pos_ += 4;
            break;
          }
          default:
            return false;
        }
      }
      out->push_back(c);
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // Closing quote.
    return true;
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out->kind = JsonValue::Kind::kNumber;
    out->number = std::atof(text_.substr(start, pos_ - start).c_str());
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// A seeded faulted closed-loop run (the sync-drill scenario) feeding the
// global recorder. Returns the collected events.
std::vector<Event> RunDrillScenario() {
  EventRecorder& recorder = EventRecorder::Global();
  recorder.Reset();
  recorder.set_enabled(true);

  ExperimentSpec spec;
  spec.num_objects = 64;
  spec.theta = 1.0;
  spec.seed = 20030305;
  auto truth = GenerateCatalog(spec);
  EXPECT_TRUE(truth.ok());

  sync::SimulatedSource::Options source_options;
  source_options.error_rate = 0.3;
  source_options.stall_rate = 0.05;
  source_options.mean_jitter_seconds = 0.008;
  source_options.seed = 99;
  auto source = sync::SimulatedSource::Create(source_options);
  EXPECT_TRUE(source.ok());

  obs::MetricsRegistry registry;
  sync::SyncExecutor::Options executor_options;
  executor_options.retry.max_attempts = 2;
  executor_options.seed = 7;
  executor_options.registry = &registry;
  auto executor = sync::SyncExecutor::Create(&source.value(),
                                             executor_options);
  EXPECT_TRUE(executor.ok());

  OnlineFreshenLoop::Options loop_options;
  loop_options.accesses_per_period = 200.0;
  loop_options.seed = 41;
  loop_options.registry = &registry;
  loop_options.executor = executor.value().get();
  auto loop = OnlineFreshenLoop::Create(*truth, 16.0, loop_options);
  EXPECT_TRUE(loop.ok());
  for (int period = 0; period < 4; ++period) loop->RunPeriod();

  std::vector<Event> events = recorder.Collect();
  recorder.set_enabled(false);
  return events;
}

TEST(ChromeTraceTest, DrillTraceParsesWithPairedSpansAndMonotoneClocks) {
  const std::vector<Event> events = RunDrillScenario();
  ASSERT_FALSE(events.empty());
  const std::string json = obs::FormatChromeTrace(events);

  JsonValue root;
  ASSERT_TRUE(JsonParser(json).Parse(&root)) << json.substr(0, 400);
  ASSERT_EQ(root.kind, JsonValue::Kind::kObject);
  const JsonValue* trace_events = root.Get("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  ASSERT_EQ(trace_events->kind, JsonValue::Kind::kArray);
  EXPECT_GT(trace_events->array.size(), events.size());  // + metadata.

  // Per-(pid, tid): B/E names pair like parentheses and timestamps never go
  // backwards in file order.
  std::map<std::pair<double, double>, std::vector<std::string>> open_spans;
  std::map<std::pair<double, double>, double> last_ts;
  size_t spans = 0;
  for (const JsonValue& event : trace_events->array) {
    ASSERT_EQ(event.kind, JsonValue::Kind::kObject);
    const JsonValue* name = event.Get("name");
    const JsonValue* ph = event.Get("ph");
    const JsonValue* pid = event.Get("pid");
    ASSERT_NE(name, nullptr);
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(pid, nullptr);
    if (ph->string == "M") continue;  // Metadata carries no ts.
    const JsonValue* tid = event.Get("tid");
    const JsonValue* ts = event.Get("ts");
    ASSERT_NE(tid, nullptr);
    ASSERT_NE(ts, nullptr);
    const std::pair<double, double> track{pid->number, tid->number};
    auto it = last_ts.find(track);
    if (it != last_ts.end()) {
      EXPECT_LE(it->second, ts->number)
          << "clock went backwards on pid=" << track.first
          << " tid=" << track.second;
    }
    last_ts[track] = ts->number;
    if (ph->string == "B") {
      open_spans[track].push_back(name->string);
      ++spans;
    } else if (ph->string == "E") {
      ASSERT_FALSE(open_spans[track].empty())
          << "E without B: " << name->string;
      EXPECT_EQ(open_spans[track].back(), name->string);
      open_spans[track].pop_back();
    } else {
      EXPECT_EQ(ph->string, "i");
    }
  }
  EXPECT_GT(spans, 0u);
  for (const auto& [track, stack] : open_spans) {
    EXPECT_TRUE(stack.empty()) << "unclosed span on tid=" << track.second;
  }
}

TEST(ChromeTraceTest, VirtualEventsRepeatAtAFixedSeed) {
  const std::string text = obs::FormatVirtualEventsText(RunDrillScenario());
  EXPECT_FALSE(text.empty());
  EXPECT_EQ(text, obs::FormatVirtualEventsText(RunDrillScenario()));
}

TEST(ChromeTraceTest, SimulatorShardEventsAreThreadCountInvariant) {
  ExperimentSpec spec;
  spec.num_objects = 512;
  spec.theta = 1.1;
  spec.seed = 31337;
  auto catalog = GenerateCatalog(spec);
  ASSERT_TRUE(catalog.ok());
  std::vector<double> frequencies(catalog->size(), 0.5);

  EventRecorder& recorder = EventRecorder::Global();
  const auto run = [&](size_t threads) {
    recorder.Reset();
    recorder.set_enabled(true);
    SimulationConfig config;
    config.horizon_periods = 10.0;
    config.warmup_periods = 1.0;
    config.accesses_per_period = 200.0;
    config.seed = 5;
    config.threads = threads;
    MirrorSimulator simulator(*catalog, config);
    EXPECT_TRUE(simulator.Run(frequencies).ok());
    const std::string text = obs::FormatVirtualEventsText(recorder.Collect());
    recorder.set_enabled(false);
    return text;
  };
  const std::string text_one = run(1);
  const std::string text_eight = run(8);
  EXPECT_FALSE(text_one.empty());
  EXPECT_NE(text_one.find("sim/sim_shard"), std::string::npos);
  EXPECT_EQ(text_one, text_eight);
}

TEST(ChromeTraceTest, FormatEscapesAndLabelsTracks) {
  std::vector<Event> events;
  Event event;
  event.name = "quote\"name";
  event.category = "cat";
  event.clock = EventClock::kVirtual;
  event.track = obs::kTrackSimShardBase + 2;
  event.ts = 1.5;
  event.phase = EventPhase::kInstant;
  events.push_back(event);
  const std::string json = obs::FormatChromeTrace(events);
  JsonValue root;
  ASSERT_TRUE(JsonParser(json).Parse(&root));
  // The escaped name survives the round trip, and the virtual track got a
  // human-readable thread_name metadata entry.
  bool found_name = false;
  bool found_track = false;
  for (const JsonValue& entry : root.Get("traceEvents")->array) {
    const JsonValue* name = entry.Get("name");
    if (name != nullptr && name->string == "quote\"name") found_name = true;
    if (name != nullptr && name->string == "thread_name") {
      const JsonValue* args = entry.Get("args");
      ASSERT_NE(args, nullptr);
      const JsonValue* value = args->Get("name");
      ASSERT_NE(value, nullptr);
      EXPECT_EQ(value->string, "sim-shard-2");
      found_track = true;
    }
  }
  EXPECT_TRUE(found_name);
  EXPECT_TRUE(found_track);
}

}  // namespace
}  // namespace freshen
