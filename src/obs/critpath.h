// Causal critical-path extraction over merged cross-rank traces.
//
// A run's trace (obs/trace.h) carries enough to rebuild the virtual-time
// causal DAG after the fact:
//
//   * program order along a rank: every send/recv span on the rank's main
//     thread carries the virtual clock it left the communicator at
//     (dep_vt_ns / vt0_ns+vt1_ns), "rank.begin"/"rank.end" instants pin
//     the endpoints, and fault.delay instants mark injected clock charges;
//   * span nesting within a thread: scheduler-phase and codec spans frame
//     the wall-clock windows local work happened in, which is how local
//     virtual time is sub-attributed to categories;
//   * flow_start -> flow_end edges across ranks: a receive whose clock
//     jumped forward (vt1 > vt0) was arrival-constrained, and its flow
//     edge names the send — and therefore the rank and departure time —
//     it was waiting on.
//
// extract() walks that DAG backward from the makespan-defining rank.end
// event: local intervals stay on the current rank, arrival-constrained
// receives jump through their flow edge to the sender's departure stamp.
// The result is a list of segments that tile [0, makespan] exactly, so
// category attributions sum to the critical-path length by construction
// (the acceptance bar tests/test_critpath.cpp asserts).
//
// Degraded traces degrade the reconstruction, never abort it: a missing
// flow start (dead sender, ring-wrapped buffer) turns the jump into
// recv-wait time on the receiver, and every such fallback lands in
// CritPathResult::warnings.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace smart::obs {

/// Where a critical-path microsecond went.
enum class CritCategory : std::uint8_t {
  kCompute,     ///< map/accumulate/other on-rank work (default for local time)
  kSerialize,   ///< map codec spans (cat "codec")
  kNetwork,     ///< arrival_vtime - departure vtime along a followed flow edge
  kRecvWait,    ///< receiver constrained but the sender is unknown (degraded)
  kCheckpoint,  ///< checkpoint IO spans
  kRecovery,    ///< FT combination retries / degraded recovery rounds
  kFaultDelay,  ///< injected kDelay fault charges
};

/// Stable lowercase identifier ("compute", "recv_wait", ...) used in both
/// the report and the attribution JSON.
const char* to_string(CritCategory c);

constexpr std::size_t kNumCritCategories = 7;

/// One contiguous virtual-time interval of the critical path.  Segments
/// are ascending and tile [0, makespan_us]: each vt_end_us equals the next
/// segment's vt_begin_us.
struct CritSegment {
  int rank = -1;   ///< rank whose clock the interval ran on (sender for network)
  int peer = -1;   ///< network segments: the receiving rank; else -1
  double vt_begin_us = 0.0;
  double vt_end_us = 0.0;
  CritCategory category = CritCategory::kCompute;
  std::string phase;        ///< enclosing scheduler phase span ("" = none)
  std::int64_t round = -1;  ///< combination round stamp (-1 = none)

  double duration_us() const { return vt_end_us - vt_begin_us; }
};

struct CritPathResult {
  double makespan_us = 0.0;  ///< reconstructed virtual makespan
  int makespan_rank = -1;    ///< rank whose final event defines it
  std::vector<CritSegment> segments;
  std::size_t dropped_events = 0;      ///< ring-buffer losses reported with the trace
  std::vector<std::string> warnings;   ///< degraded-reconstruction notes

  /// Sum of segment durations — equals makespan_us up to rounding.
  double path_length_us() const;
};

/// Builds the causal DAG from a merged trace (TraceCollector snapshot or a
/// re-read Chrome JSON file; see read_chrome_trace) and extracts the
/// virtual-time critical path.  `dropped_events` is the collector's loss
/// count at snapshot time (surfaces in the result and its warnings).
CritPathResult extract_critical_path(const std::vector<TraceEvent>& events,
                                     std::size_t dropped_events = 0);

}  // namespace smart::obs
