// Chrome trace_event export for the flight recorder — any freshen run can
// be opened in Perfetto (ui.perfetto.dev) or chrome://tracing. Wall-clock
// events land in pid 1 ("freshen wall clock", one tid per emitting thread);
// virtual-time events land in pid 2 ("freshen virtual time", one tid per
// logical track) with period units rendered as seconds.
//
// A text form backs the tests: FormatVirtualEventsText keeps only the
// virtual-clock events, sorted on a total deterministic key. Virtual events
// are pure functions of the seed, so this dump is byte-identical across
// thread counts — the reproducibility contract freshenctl trace and
// chrome_trace_test pin.
#ifndef FRESHEN_OBS_CHROME_TRACE_H_
#define FRESHEN_OBS_CHROME_TRACE_H_

#include <string>
#include <vector>

#include "obs/recorder.h"

namespace freshen {
namespace obs {

/// Formats events as a Chrome trace_event JSON document
/// ({"traceEvents":[...]}) with one event object per line, plus process /
/// thread name metadata. Events are stably sorted by (pid, tid, ts), which
/// preserves each thread's emission order at equal timestamps so B/E pairs
/// stay properly nested.
std::string FormatChromeTrace(const std::vector<Event>& events);

/// Only the virtual-clock events, one line each — "virt track=<t> ts=<s>
/// <B|E|i> <cat>/<name> [arg=value ...]" — sorted by (track, ts, phase,
/// name, args): a total order on deterministic fields, so two same-seed runs
/// produce byte-identical output at any thread count.
std::string FormatVirtualEventsText(const std::vector<Event>& events);

}  // namespace obs
}  // namespace freshen

#endif  // FRESHEN_OBS_CHROME_TRACE_H_
