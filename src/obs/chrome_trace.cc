#include "obs/chrome_trace.h"

#include <algorithm>
#include <set>
#include <string_view>
#include <utility>

#include "common/string_util.h"
#include "obs/export.h"

namespace freshen {
namespace obs {
namespace {

// pid 1 = wall clock, pid 2 = virtual time (period units shown as seconds).
constexpr int kWallPid = 1;
constexpr int kVirtualPid = 2;

int EventPid(const Event& event) {
  return event.clock == EventClock::kWall ? kWallPid : kVirtualPid;
}

// Phases sort B < i < E at equal timestamps so instants nest inside the
// span that contains them and zero-length spans stay properly paired.
int PhaseRank(EventPhase phase) {
  switch (phase) {
    case EventPhase::kBegin:
      return 0;
    case EventPhase::kInstant:
      return 1;
    case EventPhase::kEnd:
      return 2;
  }
  return 3;
}

std::string FormatArgs(const Event& event) {
  std::string out = "{";
  if (event.arg0_name != nullptr) {
    out += '"';
    out += JsonEscape(event.arg0_name);
    out += "\":";
    out += StrFormat("%.9g", event.arg0);
  }
  if (event.arg1_name != nullptr) {
    if (event.arg0_name != nullptr) out += ",";
    out += '"';
    out += JsonEscape(event.arg1_name);
    out += "\":";
    out += StrFormat("%.9g", event.arg1);
  }
  out += "}";
  return out;
}

void AppendMetadata(std::string& out, const char* name, int pid,
                    uint64_t tid, bool with_tid, const std::string& value) {
  out += " {\"name\":\"";
  out += name;
  out += StrFormat("\",\"ph\":\"M\",\"pid\":%d", pid);
  if (with_tid) out += StrFormat(",\"tid\":%llu", (unsigned long long)tid);
  out += ",\"args\":{\"name\":\"" + JsonEscape(value) + "\"}},\n";
}

std::string VirtualTrackName(uint64_t track) {
  if (track == kTrackOnlineLoop) return "online-loop";
  if (track == kTrackSyncCommit) return "sync-commit";
  if (track >= kTrackSimShardBase) {
    return StrFormat("sim-shard-%llu",
                     (unsigned long long)(track - kTrackSimShardBase));
  }
  return StrFormat("track-%llu", (unsigned long long)track);
}

std::string EventLine(const Event& event) {
  std::string line = event.clock == EventClock::kWall ? "wall" : "virt";
  line += StrFormat(" track=%llu ts=%.9g ",
                    (unsigned long long)event.track, event.ts);
  line += EventPhaseName(event.phase);
  line += " ";
  line += event.category;
  line += "/";
  line += event.name;
  if (event.arg0_name != nullptr) {
    line += StrFormat(" %s=%.9g", event.arg0_name, event.arg0);
  }
  if (event.arg1_name != nullptr) {
    line += StrFormat(" %s=%.9g", event.arg1_name, event.arg1);
  }
  line += "\n";
  return line;
}

}  // namespace

std::string FormatChromeTrace(const std::vector<Event>& events) {
  // Stable sort keeps each thread's emission order at equal (pid, tid, ts),
  // which is what keeps B/E pairs properly nested.
  std::vector<const Event*> order;
  order.reserve(events.size());
  for (const Event& event : events) order.push_back(&event);
  std::stable_sort(order.begin(), order.end(),
                   [](const Event* a, const Event* b) {
                     const int pa = EventPid(*a);
                     const int pb = EventPid(*b);
                     if (pa != pb) return pa < pb;
                     if (a->track != b->track) return a->track < b->track;
                     return a->ts < b->ts;
                   });

  std::string out = "{\"traceEvents\":[\n";
  AppendMetadata(out, "process_name", kWallPid, 0, false,
                 "freshen wall clock");
  AppendMetadata(out, "process_name", kVirtualPid, 0, false,
                 "freshen virtual time (period units)");
  std::set<uint64_t> virtual_tracks;
  for (const Event& event : events) {
    if (event.clock == EventClock::kVirtual) {
      virtual_tracks.insert(event.track);
    }
  }
  for (uint64_t track : virtual_tracks) {
    AppendMetadata(out, "thread_name", kVirtualPid, track, true,
                   VirtualTrackName(track));
  }

  for (size_t i = 0; i < order.size(); ++i) {
    const Event& event = *order[i];
    out += " {\"name\":\"" + JsonEscape(event.name) + "\",\"cat\":\"" +
           JsonEscape(event.category) + "\",\"ph\":\"" +
           EventPhaseName(event.phase) + "\",";
    // trace_event timestamps are microseconds.
    out += StrFormat("\"ts\":%.3f,\"pid\":%d,\"tid\":%llu,", event.ts * 1e6,
                     EventPid(event), (unsigned long long)event.track);
    if (event.phase == EventPhase::kInstant) out += "\"s\":\"t\",";
    out += "\"args\":" + FormatArgs(event) + "}";
    if (i + 1 < order.size()) out += ",";
    out += "\n";
  }
  out += "]}\n";
  return out;
}

std::string FormatVirtualEventsText(const std::vector<Event>& events) {
  std::vector<Event> virtual_events;
  for (const Event& event : events) {
    if (event.clock == EventClock::kVirtual) virtual_events.push_back(event);
  }
  // Total order on deterministic fields only — never on ring or emission
  // order, which depend on thread scheduling.
  std::sort(virtual_events.begin(), virtual_events.end(),
            [](const Event& a, const Event& b) {
              if (a.track != b.track) return a.track < b.track;
              if (a.ts != b.ts) return a.ts < b.ts;
              const int ra = PhaseRank(a.phase);
              const int rb = PhaseRank(b.phase);
              if (ra != rb) return ra < rb;
              const int name_cmp = std::string_view(a.name).compare(b.name);
              if (name_cmp != 0) return name_cmp < 0;
              if (a.arg0 != b.arg0) return a.arg0 < b.arg0;
              return a.arg1 < b.arg1;
            });
  std::string out;
  for (const Event& event : virtual_events) out += EventLine(event);
  return out;
}

}  // namespace obs
}  // namespace freshen
