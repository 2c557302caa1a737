// Per-run and cumulative execution statistics exposed by the scheduler.
// The benchmark harnesses read these to report the quantities the paper's
// figures plot (phase times, serialized traffic, peak reduction-object
// counts for the window-analytics optimization).
#pragma once

#include <cstddef>
#include <ostream>

namespace smart {

/// Every RunStats field, in declaration order — the single source for the
/// JSON/CSV dumpers below, so a new stat added here shows up in every
/// harness's output automatically.
#define SMART_RUN_STATS_FOR_EACH_FIELD(X)                                           \
  X(runs)                                                                           \
  X(chunks_processed)                                                               \
  X(elements_processed)                                                             \
  X(elements_skipped)                                                               \
  X(peak_reduction_objects)                                                         \
  X(peak_reduction_bytes)                                                           \
  X(early_emissions)                                                                \
  X(bytes_serialized)                                                               \
  X(global_combinations)                                                            \
  X(map_serializes)                                                                 \
  X(map_deserializes)                                                               \
  X(map_merges)                                                                     \
  X(wire_bytes)                                                                     \
  X(codec_seconds)                                                                  \
  X(combine_retries)                                                                \
  X(ranks_lost)                                                                     \
  X(auto_checkpoints)                                                               \
  X(reduction_seconds)                                                              \
  X(combination_seconds)                                                            \
  X(global_seconds)                                                                 \
  X(copy_seconds)                                                                   \
  X(worker_skew)                                                                    \
  X(master_seed)

struct RunStats {
  // Work accounting.
  std::size_t runs = 0;
  std::size_t chunks_processed = 0;
  std::size_t elements_processed = 0;
  std::size_t elements_skipped = 0;  ///< trailing elements not filling a chunk

  // Reduction-object accounting (Figure 11's axis).
  std::size_t peak_reduction_objects = 0;  ///< max live objects across all maps at any sample
  std::size_t peak_reduction_bytes = 0;
  std::size_t early_emissions = 0;  ///< objects emitted by trigger()

  // Combination accounting.
  std::size_t bytes_serialized = 0;      ///< bytes this rank encoded for global combination
  std::size_t global_combinations = 0;   ///< cross-rank combination rounds executed

  // Codec accounting for the single-pass global combination: a rank must
  // pay at most one full-map serialize and one full-map deserialize per
  // round; everything else streams into the live map (map_merges counts
  // the peer entries absorbed).
  std::size_t map_serializes = 0;    ///< full-map serialize_map passes
  std::size_t map_deserializes = 0;  ///< full-map deserialize_map passes
  std::size_t map_merges = 0;        ///< peer entries merged into the live map
  std::size_t wire_bytes = 0;        ///< payload bytes this rank shipped during combination
  double codec_seconds = 0.0;        ///< time spent encoding/decoding combination maps

  // Fault-tolerance accounting (RecoveryPolicy; see core/scheduler.h).
  std::size_t combine_retries = 0;   ///< global-combination attempts retried after PeerUnreachable
  std::size_t ranks_lost = 0;        ///< dead peers excluded from degraded combination
  std::size_t auto_checkpoints = 0;  ///< periodic checkpoints written by the recovery policy

  // Phase times, CPU-measured on the owning rank thread / workers.
  double reduction_seconds = 0.0;     ///< critical path (max worker busy) summed over iterations
  double combination_seconds = 0.0;   ///< local combination
  double global_seconds = 0.0;        ///< serialize + exchange + merge + bcast
  double copy_seconds = 0.0;          ///< input copy (copy_input mode / space sharing feed)

  // Load balance of the contiguous splits: max-over-mean worker busy time
  // of the worst reduction phase seen.  1.0 = perfectly balanced;
  // num_threads = one worker did all the work.  Mirrored as the
  // sched.worker_skew metrics gauge.
  double worker_skew = 0.0;

  // Reproducibility: the effective master seed of the run (CLI --seed /
  // Scheduler::set_master_seed), echoed in every dump so a RUNSTATS line
  // is self-describing about how to re-run it.  0 = unseeded.
  std::size_t master_seed = 0;

  void reset() { *this = RunStats{}; }

  // --- uniform reporting (replaces per-bench hand-rolled printing) --------

  /// One flat JSON object, field names matching the members above.
  void dump_json(std::ostream& os) const {
    os << '{';
    const char* sep = "";
#define SMART_RUN_STATS_JSON_FIELD(f) \
  os << sep << "\"" #f "\": " << f;   \
  sep = ", ";
    SMART_RUN_STATS_FOR_EACH_FIELD(SMART_RUN_STATS_JSON_FIELD)
#undef SMART_RUN_STATS_JSON_FIELD
    os << '}';
  }

  /// Column names for dump_csv_row, comma-separated, with trailing newline.
  static void csv_header(std::ostream& os) {
    const char* sep = "";
#define SMART_RUN_STATS_CSV_NAME(f) \
  os << sep << #f;                  \
  sep = ",";
    SMART_RUN_STATS_FOR_EACH_FIELD(SMART_RUN_STATS_CSV_NAME)
#undef SMART_RUN_STATS_CSV_NAME
    os << '\n';
  }

  /// One CSV row in csv_header order, with trailing newline.
  void dump_csv_row(std::ostream& os) const {
    const char* sep = "";
#define SMART_RUN_STATS_CSV_FIELD(f) \
  os << sep << f;                    \
  sep = ",";
    SMART_RUN_STATS_FOR_EACH_FIELD(SMART_RUN_STATS_CSV_FIELD)
#undef SMART_RUN_STATS_CSV_FIELD
    os << '\n';
  }
};

}  // namespace smart
