// Rank-0 gather of trace buffers.
//
// Header-only on purpose: it needs simmpi::Communicator, but smart_simmpi
// itself links smart_obs (the send/recv instrumentation), so the
// Communicator-dependent piece lives here rather than in the library.
//
// The gather is collective over the communicator and degrades instead of
// hanging: the root receives every peer's payload with recv_timeout, so a
// rank that died mid-run (simmpi fault injection) is reported in `missing`
// and the merged timeline still gets written from the survivors.  Metrics
// need no gather: ranks are threads of one process, so
// MetricsRegistry::global() already holds every rank's.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "obs/trace_export.h"
#include "simmpi/communicator.h"
#include "simmpi/fault.h"

namespace smart::obs {

/// A positive user-space tag well clear of the runtime's (core/intransit
/// uses 400..404; simmpi internals are negative).
constexpr int kTraceGatherTag = 24601;

/// Collective: every rank ships its slice of the process-global trace to
/// rank 0, which merges (timestamp order) and writes a Chrome-trace JSON
/// file.  Returns true on the root if the file was written; peers return
/// true unconditionally.  Dead/silent peers are recorded into `missing`
/// (root only) after `timeout_seconds` and do not block the export.
inline bool gather_trace_to_rank0(simmpi::Communicator& comm, const std::string& path,
                                  double timeout_seconds = 5.0,
                                  std::vector<int>* missing = nullptr) {
  TraceCollector& tc = TraceCollector::instance();
  if (comm.rank() != 0) {
    Buffer buf;
    Writer w(buf);
    serialize_events(w, tc.snapshot_events(comm.world_rank(), /*include_unattributed=*/false));
    comm.send(0, kTraceGatherTag, std::move(buf));
    return true;
  }

  // Root keeps its own slice plus events from threads outside any launch
  // (e.g. a main thread that traced setup work).
  std::vector<TraceEvent> merged =
      tc.snapshot_events(comm.world_rank(), /*include_unattributed=*/true);
  for (int peer = 1; peer < comm.size(); ++peer) {
    try {
      const Buffer buf = comm.recv_timeout(peer, kTraceGatherTag, timeout_seconds);
      Reader r(buf);
      std::vector<TraceEvent> events = deserialize_events(r);
      merged.insert(merged.end(), std::make_move_iterator(events.begin()),
                    std::make_move_iterator(events.end()));
    } catch (const simmpi::PeerUnreachable&) {
      if (missing != nullptr) missing->push_back(peer);
    }
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.ts_us < b.ts_us; });
  // Ranks are threads of this process, so the process-global drop counter
  // covers every lane that fed the merge.
  return write_chrome_trace_file(path, merged, tc.dropped_events());
}

}  // namespace smart::obs
