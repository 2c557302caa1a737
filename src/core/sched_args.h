// Scheduler construction arguments (paper Table 1, function 1) and the
// run options that select between the variants the evaluation compares.
#pragma once

#include <cstddef>
#include <string>

namespace smart {

/// The paper's SchedArgs(num_threads, chunk_size, extra_data, num_iters).
struct SchedArgs {
  SchedArgs(int num_threads_in, std::size_t chunk_size_in,
            const void* extra_data_in = nullptr, int num_iters_in = 1)
      : num_threads(num_threads_in),
        chunk_size(chunk_size_in),
        extra_data(extra_data_in),
        num_iters(num_iters_in) {}

  int num_threads;         ///< analytics threads per process (= simulation threads in time sharing)
  std::size_t chunk_size;  ///< elements per unit chunk (feature-vector length)
  const void* extra_data;  ///< app-specific seed input (e.g. initial centroids)
  int num_iters;           ///< iterations per run() call (iterative analytics)
};

/// Knobs for the design-variant comparisons in the paper's evaluation.
/// Defaults are the paper's recommended configuration.
struct RunOptions {
  /// Copy the input block into an internal buffer before processing.
  /// Smart's time-sharing mode reads the simulation slab through a bare
  /// pointer instead (zero copy); enabling this reproduces the comparison
  /// implementation of Figure 9.
  bool copy_input = false;

  /// Honor RedObj::trigger() for early emission (Algorithm 2).  Disabling
  /// reproduces the no-trigger comparison of Figure 11.
  bool enable_trigger = true;

  /// Keep the combination map across run() calls: each run's result is
  /// merged into the accumulated map instead of replacing it.  Off by
  /// default — a run() processes one time-step independently, matching
  /// the paper's per-time-step launch (Listing 1).
  bool accumulate_across_runs = false;

  /// The batched reduction path: each run of consecutive chunks that
  /// share a key goes through one accumulate_batch call — hoisting the map
  /// lookup and the virtual dispatch out of the per-chunk loop and letting
  /// the numeric apps' kernels vectorize.  run() keys up to this many
  /// consecutive full chunks in one gen_keys_batch call and finds the runs
  /// of equal keys among them.  run2() on an app that declares key ranges
  /// (Scheduler::gen_key_ranges) asks for this many chunks' ranges at a
  /// time and walks each split key by key, so a window object is looked up
  /// once, whatever the batch size; run2() on an app with only gen_keys
  /// stays chunk-at-a-time.  0 or 1 disables batching (the chunk-at-a-time
  /// path) for both.  Results are bit-identical either
  /// way: every object receives its chunks in the same order, default
  /// batch implementations replay the scalar path, and the app kernels
  /// preserve scalar accumulation order (see DESIGN.md §4.8).
  std::size_t batch_chunks = 64;

  /// Cells in the space-sharing circular buffer (paper Figure 4).
  std::size_t buffer_cells = 4;
};

/// Fault-tolerance knobs for long-lived in-situ runs (Scheduler::
/// set_recovery_policy).  With a positive peer timeout, every blocking
/// receive of the global-combination round is bounded: a dead or silent
/// peer surfaces as simmpi::PeerUnreachable, the round rolls back and
/// retries with exponential backoff, and once retries are exhausted the
/// survivors rebuild the combination tree over the reduced rank set
/// (RunStats::combine_retries / ranks_lost record both).  Orthogonally,
/// the scheduler writes an atomic checkpoint of its combination map every
/// N runs, so a restarted job resumes from the last completed step.
struct RecoveryPolicy {
  /// Write `checkpoint_path` after every N-th run() (0 = off).
  int checkpoint_every_runs = 0;
  std::string checkpoint_path;

  /// Bound on any single combination receive; 0 disables fault tolerance
  /// entirely (legacy block-forever combination, bit-exact behavior).
  double peer_timeout_seconds = 0.0;

  /// Full-round retries after a PeerUnreachable before degrading to the
  /// surviving rank set.  Retries recover transient message loss; they
  /// cannot resurrect a dead rank.
  int combine_retries = 2;

  /// First retry backoff; doubles per subsequent retry.
  double retry_backoff_seconds = 0.005;

  bool fault_tolerant_combination() const { return peer_timeout_seconds > 0.0; }
};

}  // namespace smart
