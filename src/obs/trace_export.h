// Chrome trace-event / Perfetto JSON export for obs::TraceEvent streams and
// a flat per-phase CSV view of the scheduler spans.
//
// The timeline maps pid=rank and tid=dense thread id, with "process_name"
// metadata per rank, so ui.perfetto.dev (or chrome://tracing) renders a
// 4-rank in-situ run as four labelled process lanes.  Spans are "X"
// complete events (begin+duration — matched by construction), instants are
// "i", and a send→recv pair shows as "s"/"f" flow arrows joined by id.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace smart::obs {

/// Writes `events` as a Chrome trace-event JSON document
/// ({"traceEvents":[...]}) — loadable in Perfetto and chrome://tracing.
/// A nonzero `dropped_events` (TraceCollector ring-buffer losses at
/// snapshot time) is recorded as a "smart_dropped_events" metadata record
/// so consumers — read_chrome_trace included — know the file is lossy.
void write_chrome_trace(std::ostream& os, const std::vector<TraceEvent>& events,
                        std::size_t dropped_events = 0);

/// write_chrome_trace to a file; returns false if the file cannot be opened.
bool write_chrome_trace_file(const std::string& path, const std::vector<TraceEvent>& events,
                             std::size_t dropped_events = 0);

/// Writes the scheduler-phase spans of `events` (complete events of category
/// "sched") as CSV with the header phase,thread,begin_s,end_s,duration_s:
/// one row per span, in `events` order, with times in seconds since the
/// collector origin and thread the process-wide dense id.  Phase names are
/// quoted per RFC 4180 when they contain a comma, quote, CR or LF, so every
/// row parses back into five fields.
void write_phase_csv(std::ostream& os, const std::vector<TraceEvent>& events);

/// A Chrome trace-event document read back into TraceEvent form.
struct ChromeTrace {
  std::vector<TraceEvent> events;
  std::size_t dropped_events = 0;  ///< from the "smart_dropped_events" metadata record
};

/// Parses a Chrome trace-event JSON document (the write_chrome_trace shape:
/// a {"traceEvents":[...]} object or a bare event array).  Tolerant of
/// foreign events: unknown phases and non-integer args are skipped, so
/// files touched by other tools still load.  Returns false and sets
/// `error` (when non-null) on malformed JSON.
bool read_chrome_trace(std::string_view json, ChromeTrace& out, std::string* error = nullptr);

/// read_chrome_trace over a file's contents; false if the file cannot be
/// read or does not parse.
bool read_chrome_trace_file(const std::string& path, ChromeTrace& out,
                            std::string* error = nullptr);

}  // namespace smart::obs
