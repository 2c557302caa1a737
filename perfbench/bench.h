// Shared pieces of the end-to-end benchmark binary: the run configuration,
// the in-memory span log the traced run fills, and the raw measurements a
// workload hands back to main() for serialization.  All summary math
// (medians, percentiles, ratios, self times) lives in perfbench/summary.py;
// this side only measures.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Config {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

/// Seconds on the steady clock since the first call in this process.
double now();

/// One closed interval of one layer on one thread.  `parent` indexes the
/// enclosing span in the same lane (-1 for a root); `step` is the timed
/// step the span belongs to (-1 outside the timed loop).
struct Span {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  std::int64_t step = -1;
};

/// Spans of one thread (a rank thread or a space-sharing analytics thread),
/// kept in memory and written out when the run ends.  Exactly one thread
/// appends to a lane.  Recording is off unless `on` is set for the step.
struct Lane {
  int rank = 0;
  std::string role;
  bool on = false;
  std::int64_t step = -1;
  std::vector<Span> spans;

  /// Opens a span whose end is filled in by close(); -1 when off.
  int open(const char* name, double start, int parent = -1) {
    if (!on) return -1;
    spans.push_back({name, start, start, parent, step});
    return static_cast<int>(spans.size()) - 1;
  }
  void close(int idx, double end) {
    if (idx >= 0) spans[static_cast<std::size_t>(idx)].end = end;
  }
  void record(const char* name, double start, double end, int parent) {
    if (on) spans.push_back({name, start, end, parent, step});
  }
};

/// Output checks against the references: error_rate = failed / attempted.
struct Checks {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string first_failure;

  void add(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (first_failure.empty()) first_failure = what;
    }
  }
  void merge(const Checks& other) {
    attempted += other.attempted;
    failed += other.failed;
    if (first_failure.empty()) first_failure = other.first_failure;
  }
};

/// Raw measurements of one run.  Per-step sample vectors are rank 0's
/// timed steps, in step order; counters are totals over the timed region.
struct Result {
  std::string input;                  ///< human-readable input description
  int ranks = 0;
  int threads_per_rank = 0;
  std::size_t warmup_steps = 0;
  std::size_t steps = 0;              ///< timed steps
  std::size_t bytes_per_step = 0;     ///< simulation-output bytes analyzed per step, all ranks
  std::size_t per_rank_working_set = 0;

  std::vector<double> setup_s;        ///< one per repeated set-up
  std::vector<double> step_s;         ///< end-to-end step wall (rank 0)
  std::vector<int> traced;            ///< 1 where the step carried spans
  /// Wall each step adds to the timed region: its own wall in time
  /// sharing; in space sharing, from the end of the previous step's
  /// analysis (the first: from its sim start) to the end of its own.
  std::vector<double> interval_s;
  double vmakespan_s = 0.0;           ///< virtual makespan of the timed steps

  /// Paired lowlevel_ratio samples: the Smart analytics call and the
  /// hand-written call on the same input.
  std::vector<double> smart_call_s;
  std::vector<double> baseline_call_s;

  std::map<std::string, std::vector<double>> samples;  ///< per-step layer samples
  std::map<std::string, double> counters;              ///< per-layer totals

  Checks checks;
  std::vector<Lane> lanes;            ///< spans, traced runs only
};

Result run_kmeans_d64(const Config& cfg);
Result run_lulesh_median_space(const Config& cfg);

}  // namespace perfbench
