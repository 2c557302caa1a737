// Scheduler<In, Out>: the Smart runtime (paper Sections 3 and 4).
//
// One scheduler instance lives on each simulation process (simmpi rank) and
// is launched from the SPMD region — the paper's *hybrid programming view*:
// the caller sees its own data partition, everything below this API runs in
// a sequential programming view.
//
// Execution of one run() call (Algorithm 1):
//   1. combination map is (re)seeded by process_extra_data;
//   2. per iteration: the seeded map is *distributed* — cloned into each
//      worker's reduction map (skipped outright when the map is empty) —
//      then every worker walks its split of the block chunk by chunk:
//      gen_key(s) -> accumulate in place on the keyed reduction object.
//      No key-value pair is emitted, so there is no shuffle and the
//      mapping phase needs no extra memory.  The trailing in_len %
//      chunk_size elements are processed as a short final chunk (its
//      Chunk::length carries the true count) unless the app declared
//      require_full_chunks();
//   3. local combination merges worker maps (merge); global combination
//      merges rank maps across simmpi via core/map_combiner: each rank
//      serializes its map at most once and deserializes the global result
//      at most once per round — interior reduction-tree nodes absorb peer
//      payloads straight into their live map (absorb_serialized_map)
//      instead of paying a deserialize+merge+serialize round-trip per hop.
//      Every rank ends the round holding the identical global map, so
//      iterative apps see global state.
//      RunStats::{map_serializes, map_deserializes, map_merges,
//      codec_seconds, wire_bytes} expose the single-pass invariant;
//      post_combine then updates objects (e.g. centroid = sum/size);
//   4. surviving reduction objects are convert()ed into the output array.
//
// Early emission (Algorithm 2): right after accumulate, RedObj::trigger()
// may emit the object straight into the output and drop it from the map,
// bounding live objects by the window size instead of the input size.
// Every emission goes through one hook, emit(), which converts the object
// and drops it or (the window apps) empties it for reuse.
// Batched run2() on an app that declares key ranges skips the map for
// triggered windows altogether: a key the worker's map does not hold
// accumulates into one per-worker scratch object, which emit() hands back
// for the next window, and only a window that has not triggered by the end
// of its run enters the map — one cut by a split boundary, or every window
// when the trigger is off.
//
// Iterative-context contract: process_extra_data and post_combine must
// leave every field that merge() accumulates at its merge identity
// (k-means' update() resetting sum/size is the canonical example).  The
// runtime distributes those seeded objects to all workers and merges the
// worker maps back, so non-identity accumulator state at a hand-back point
// would be multiply counted.
//
// Modes:
//   * time sharing  — run(in, in_len, out, out_len): reads the simulation
//     slab through the caller's pointer, zero copy (RunOptions::copy_input
//     reproduces the paper's extra-copy comparison);
//   * space sharing — feed(in, in_len) copies the step into a circular
//     buffer cell (blocking when full) and run(out, out_len) pops and
//     analyzes one step; sim and analytics run as concurrent tasks on
//     disjoint worker groups (paper Listing 2 / Figure 4);
//   * offline       — identical analytics code called on data loaded from
//     disk; the paper's point that in-situ and offline code coincide.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/memory_tracker.h"
#include "common/timing.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "core/checkpoint_io.h"
#include "core/chunk.h"
#include "core/map_combiner.h"
#include "core/red_obj.h"
#include "core/run_stats.h"
#include "core/sched_args.h"
#include "simmpi/world.h"
#include "threading/circular_buffer.h"
#include "threading/thread_pool.h"

namespace smart {

namespace detail {
/// Key currently being accumulated; lets position-aware apps (kernel
/// density estimation) recover the window center inside accumulate().
inline thread_local int t_current_key = 0;
}  // namespace detail

template <class In, class Out>
class Scheduler {
 public:
  explicit Scheduler(const SchedArgs& args, RunOptions opts = {})
      : args_(args),
        opts_(opts),
        pool_(std::make_unique<ThreadPool>(args.num_threads)),
        reduction_maps_(static_cast<std::size_t>(args.num_threads)),
        feed_buffer_(std::make_unique<CircularBuffer<FeedCell>>(opts.buffer_cells)) {
    if (args.chunk_size == 0) {
      throw std::invalid_argument("Scheduler: chunk_size must be positive");
    }
    if (args.num_iters <= 0) {
      throw std::invalid_argument("Scheduler: num_iters must be positive");
    }
  }

  virtual ~Scheduler() { release_tracked_objects(); }

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Enable/disable the global (cross-rank) combination; enabled by
  /// default.  Turned off for analytics whose output is per-partition
  /// (window-based preprocessing, MapReduce pipelines — paper Section 3.1).
  void set_global_combination(bool flag) { global_combination_ = flag; }
  bool global_combination() const { return global_combination_; }

  /// Arms fault tolerance (see RecoveryPolicy in core/sched_args.h): timed
  /// combination receives with retry + backoff, degradation to the
  /// surviving rank set once retries are exhausted, and periodic atomic
  /// checkpoints of the combination map.  The default policy (all zeros)
  /// keeps the legacy block-forever combination bit-exactly.
  void set_recovery_policy(RecoveryPolicy policy) { recovery_ = std::move(policy); }
  const RecoveryPolicy& recovery_policy() const { return recovery_; }

  /// Ranks the degraded combination currently spans (empty until a peer
  /// death has been detected — i.e. while every rank participates).
  const std::vector<int>& surviving_ranks() const { return survivors_; }

  const RunOptions& options() const { return opts_; }

  const CombinationMap& get_combination_map() const { return combination_map_; }

  /// Drops all accumulated state (including the accumulate_across_runs
  /// carry), e.g. between independent experiments on one scheduler.
  void reset_combination_map() {
    combination_map_.clear();
    carry_map_.clear();
    sync_tracked_objects();
  }

  // --- time-sharing entry points (paper Table 1, functions 5 and 6) -------
  void run(const In* in, std::size_t in_len, Out* out, std::size_t out_len) {
    execute(in, in_len, out, out_len, /*multi_key=*/false);
  }
  void run2(const In* in, std::size_t in_len, Out* out, std::size_t out_len) {
    execute(in, in_len, out, out_len, /*multi_key=*/true);
  }

  // --- space-sharing entry points (functions 7 - 9) -----------------------
  /// Copies one time-step's output into a circular-buffer cell; blocks
  /// while all cells are in use (paper Figure 4's producer side).
  void feed(const In* in, std::size_t in_len) {
    obs::TraceSpan phase("feed_copy", "sched",
                         {{"bytes", static_cast<std::int64_t>(in_len * sizeof(In))}});
    ThreadCpuTimer timer;
    FeedCell cell;
    cell.data.assign(in, in + in_len);
    cell.charge = std::make_unique<ScopedMemCharge>(MemCategory::kInputCopy, in_len * sizeof(In));
    feed_buffer().push(std::move(cell));
    stats_.copy_seconds += timer.seconds();
  }

  /// Signals the end of the simulation stream; pending cells stay poppable.
  void close_feed() { feed_buffer().close(); }

  /// Pops and analyzes one fed time-step; false once the stream is closed
  /// and drained.
  bool run(Out* out, std::size_t out_len) { return run_fed(out, out_len, /*multi_key=*/false); }
  bool run2(Out* out, std::size_t out_len) { return run_fed(out, out_len, /*multi_key=*/true); }

  // --- custom combination topologies (in-transit / hybrid processing) -----
  /// Serialized snapshot of the current combination map.  Together with
  /// absorb() this lets callers build combination topologies other than
  /// the built-in world-wide allreduce — e.g. shipping per-step partial
  /// results to dedicated staging ranks (paper Section 6's in-transit and
  /// hybrid modes; see core/intransit.h).
  Buffer snapshot() const {
    Buffer buf = BufferPool::acquire(0);
    append_snapshot(buf);
    return buf;
  }

  /// Appends the serialized combination map to `out` — the buffer-reuse
  /// path for callers that snapshot every step (clear the buffer, keep its
  /// capacity) or prepend their own header (core/intransit).
  void append_snapshot(Buffer& out) const { serialize_map(combination_map_, out); }

  /// Merges a serialized combination map (a peer's snapshot) into this
  /// scheduler's map using the app's merge().
  void absorb(const Buffer& serialized_map) {
    Reader r(serialized_map);
    absorb(r);
  }

  /// Single-pass absorb from a positioned Reader: peer entries stream
  /// straight into the live map, with no intermediate CombinationMap (used
  /// by intransit staging ranks draining snapshot payloads in place).
  void absorb(Reader& r) {
    stats_.map_merges += absorb_serialized_map(r, combination_map_, merge_fn());
    sync_tracked_objects();
  }

  /// Re-runs the app's post_combine on the current map (after a custom
  /// combination round).
  void run_post_combine() { post_combine(combination_map_); }

  /// Converts the current combination map into the output array without
  /// running (Algorithm 1 lines 20-23 standalone) — used after absorb()
  /// or to re-extract an accumulated result.
  void convert_combination_map(Out* out, std::size_t out_len) const {
    if (out == nullptr || out_len == 0) return;
    for (const auto& [key, obj] : combination_map_) {
      if (key >= 0 && static_cast<std::size_t>(key) < out_len) {
        convert(*obj, out + key);
      }
    }
  }

  const RunStats& stats() const { return stats_; }
  void reset_stats() {
    stats_.reset();
    stats_.master_seed = master_seed_;  // the seed identifies the run, not a counter
  }

  /// Records the run's master seed (CLI --seed) so every stats dump echoes
  /// it; survives reset_stats().
  void set_master_seed(std::size_t seed) {
    master_seed_ = seed;
    stats_.master_seed = seed;
  }
  std::size_t master_seed() const { return master_seed_; }

  int num_threads() const { return args_.num_threads; }
  std::size_t chunk_size() const { return args_.chunk_size; }

 protected:
  // --- the user-implemented API (paper Table 1, lower half) ---------------
  virtual int gen_key(const Chunk& chunk, const In* data, const CombinationMap& com_map) const {
    (void)chunk;
    (void)data;
    (void)com_map;
    throw std::logic_error("Scheduler: run() used but gen_key not overridden");
  }

  /// Writes the keys each chunk of `batch` feeds, as one ascending range
  /// per chunk, into ranges[0..batch.count) and returns true, for multi-key
  /// apps whose keys per chunk are contiguous (the window apps).  The
  /// default returns false and writes nothing: the app declares no ranges
  /// and keys through gen_keys or gen_key.  An app that declares ranges
  /// returns true for every batch, and its ranges are monotone: neither
  /// `first` nor `last` decreases as the chunk position grows.  Batched
  /// run2() asks for batch_chunks chunks at a time, walks a split key by
  /// key (see reduction_phase) and checks the monotonicity as it goes; the
  /// default gen_keys asks for one chunk at a time.
  virtual bool gen_key_ranges(const ChunkBatch& batch, const In* data, KeyRange* ranges,
                              const CombinationMap& com_map) const {
    (void)batch;
    (void)data;
    (void)ranges;
    (void)com_map;
    return false;
  }

  /// Pushes the declared range's keys in ascending order, or gen_key's one
  /// key when the app declares no ranges.
  virtual void gen_keys(const Chunk& chunk, const In* data, std::vector<int>& keys,
                        const CombinationMap& com_map) const {
    KeyRange range;
    if (gen_key_ranges(ChunkBatch{chunk.start, chunk.length, 1}, data, &range, com_map)) {
      for (std::int64_t k = range.first; k <= range.last; ++k) {
        keys.push_back(static_cast<int>(k));
      }
    } else {
      keys.push_back(gen_key(chunk, data, com_map));
    }
  }

  virtual void accumulate(const Chunk& chunk, const In* data,
                          std::unique_ptr<RedObj>& red_obj) = 0;

  // --- batch-granular API (the batched reduction path; DESIGN.md §4.8) ----
  // With RunOptions::batch_chunks > 1 the scheduler makes one
  // accumulate_batch call per *run* of consecutive chunks that share a key,
  // with the map lookup hoisted out of the loop: run() keys batches of up
  // to batch_chunks chunks through gen_keys_batch, and run2() on an app
  // that declares key ranges walks its split key by key (gen_key_ranges).
  // The defaults below replay the per-chunk virtuals, so every
  // app is batch-correct by construction; the numeric apps override them
  // with vectorizable kernels (analytics/batch_kernels.h).  Overrides must
  // preserve the scalar path's accumulation order bit-for-bit —
  // lane-parallelism may come from independent dimensions/centroids/keys,
  // never from reassociating a floating-point reduction chain.

  /// Writes one key per chunk of `batch` into keys[0..batch.count).
  virtual void gen_keys_batch(const ChunkBatch& batch, const In* data, int* keys,
                              const CombinationMap& com_map) const {
    for (std::size_t i = 0; i < batch.count; ++i) {
      keys[i] = gen_key(batch.chunk(i), data, com_map);
    }
  }

  /// Accumulates a run of `batch.count` consecutive chunks that all map to
  /// one key into `red_obj`; returns the number of chunks consumed, from 1
  /// to batch.count (any other value raises std::logic_error).
  /// When `stop_after_trigger` is set, implementations whose reduction
  /// object can trigger() must stop right after the chunk that makes
  /// trigger() true and return the count consumed so far — the runtime
  /// emits/erases the object and re-enters with the rest of the run.
  /// Objects that never trigger (all the numeric kernels) may ignore the
  /// flag and consume the whole batch.
  virtual std::size_t accumulate_batch(const ChunkBatch& batch, const In* data,
                                       std::unique_ptr<RedObj>& red_obj,
                                       bool stop_after_trigger) {
    for (std::size_t i = 0; i < batch.count; ++i) {
      accumulate(batch.chunk(i), data, red_obj);
      if (stop_after_trigger && red_obj && red_obj->trigger()) return i + 1;
    }
    return batch.count;
  }

  virtual void merge(const RedObj& red_obj, std::unique_ptr<RedObj>& com_obj) = 0;

  virtual void process_extra_data(const void* extra_data, CombinationMap& com_map) {
    (void)extra_data;
    (void)com_map;
  }

  virtual void post_combine(CombinationMap& com_map) { (void)com_map; }

  virtual void convert(const RedObj& red_obj, Out* out) const {
    (void)red_obj;
    (void)out;
  }

  /// Early emission of an object whose trigger() fired (Algorithm 2 lines
  /// 5-7): writes it into `out`, which is null when its key has no output
  /// slot.  On return `obj` is null, or empty and ready to accumulate a
  /// fresh window: the range walk (see reduction_phase) goes on
  /// accumulating the rest of the run, or the next key's window, into
  /// whatever is left; elsewhere the runtime then drops it.  The default
  /// converts the object and drops it.
  virtual void emit(std::unique_ptr<RedObj>& obj, Out* out) {
    if (out != nullptr) convert(*obj, out);
    obj.reset();
  }

  /// Length of the block currently being processed (window apps use this
  /// to clip windows at the partition boundary).
  std::size_t total_len() const { return total_len_; }

  /// Key under accumulation (valid inside accumulate()).
  static int current_key() { return detail::t_current_key; }

  const void* extra_data() const { return args_.extra_data; }

  /// Apps whose chunk is a fixed-width record (k-means feature vectors,
  /// logistic-regression rows) call this in their constructor: a partial
  /// tail record is malformed input, so the ragged trailing elements are
  /// not processed and are counted in RunStats::elements_skipped.
  void require_full_chunks() { process_tail_ = false; }

 private:
  struct FeedCell {
    std::vector<In> data;
    std::unique_ptr<ScopedMemCharge> charge;
  };

  // Constructed eagerly in the constructor: feed() (producer task) and
  // run() (analytics task) race in space-sharing mode, so lazy first-use
  // creation would be a data race on the pointer itself.
  CircularBuffer<FeedCell>& feed_buffer() { return *feed_buffer_; }

  bool run_fed(Out* out, std::size_t out_len, bool multi_key) {
    auto cell = feed_buffer().pop();
    if (!cell) return false;
    execute(cell->data.data(), cell->data.size(), out, out_len, multi_key);
    return true;
  }

  MergeFn merge_fn() {
    return [this](const RedObj& red, std::unique_ptr<RedObj>& com) { merge(red, com); };
  }

  /// Keeps the memory tracker's reduction-object account at the current
  /// live total across all maps.
  void sync_tracked_objects() {
    std::size_t live = map_footprint_bytes(combination_map_) + map_footprint_bytes(carry_map_);
    for (const auto& m : reduction_maps_) live += map_footprint_bytes(m);
    auto& tracker = MemoryTracker::instance();
    if (live > tracked_red_bytes_) {
      tracker.charge(MemCategory::kReductionObjects, live - tracked_red_bytes_);
    } else if (live < tracked_red_bytes_) {
      tracker.release(MemCategory::kReductionObjects, tracked_red_bytes_ - live);
    }
    tracked_red_bytes_ = live;
    if (live > stats_.peak_reduction_bytes) stats_.peak_reduction_bytes = live;
  }

  void release_tracked_objects() {
    if (tracked_red_bytes_ != 0) {
      MemoryTracker::instance().release(MemCategory::kReductionObjects, tracked_red_bytes_);
      tracked_red_bytes_ = 0;
    }
  }

  void execute(const In* in, std::size_t in_len, Out* out, std::size_t out_len, bool multi_key) {
    const In* data = in;
    std::vector<In> copy;
    std::unique_ptr<ScopedMemCharge> copy_charge;
    if (opts_.copy_input) {
      // The Figure 9 comparison variant: materialize a private copy of the
      // simulation output before analyzing it.
      obs::TraceSpan phase("copy_input", "sched",
                           {{"bytes", static_cast<std::int64_t>(in_len * sizeof(In))}});
      ThreadCpuTimer timer;
      copy.assign(in, in + in_len);
      copy_charge =
          std::make_unique<ScopedMemCharge>(MemCategory::kInputCopy, in_len * sizeof(In));
      data = copy.data();
      stats_.copy_seconds += timer.seconds();
    }

    total_len_ = in_len;
    const std::size_t num_chunks = in_len / args_.chunk_size;
    const std::size_t tail = in_len - num_chunks * args_.chunk_size;
    // Ragged tail: processed as a short final chunk (Chunk::length tells
    // the app how much is real) unless the app requires full chunks.
    const std::size_t tail_len = process_tail_ ? tail : 0;
    if (tail_len == 0) stats_.elements_skipped += tail;

    // A run() analyzes one time-step independently (Listing 1 constructs
    // the scheduler per step); cross-step accumulation is explicit.
    if (opts_.accumulate_across_runs) {
      merge_map_into(std::move(combination_map_), carry_map_, merge_fn());
    }
    combination_map_.clear();
    process_extra_data(args_.extra_data, combination_map_);

    auto* comm = simmpi::current();

    for (int iter = 0; iter < args_.num_iters; ++iter) {
      distribute_combination_map();
      {
        obs::TraceSpan phase("reduction", "sched", {{"iter", iter}});
        reduction_phase(data, num_chunks, tail_len, out, out_len, multi_key);
      }
      {
        obs::TraceSpan phase("local_combine", "sched", {{"iter", iter}});
        local_combination();
      }
      if (global_combination_ && comm != nullptr && comm->size() > 1) {
        obs::TraceSpan phase("global_combine", "sched", {{"iter", iter}});
        global_combination(*comm);
      }
      post_combine(combination_map_);
      if (obs::metrics_enabled()) {
        static obs::Gauge& entries = obs::MetricsRegistry::global().gauge("smart.map_entries");
        entries.update_max(static_cast<double>(combination_map_.size()));
      }
      sync_tracked_objects();
    }

    if (opts_.accumulate_across_runs) {
      merge_map_into(std::move(combination_map_), carry_map_, merge_fn());
      combination_map_ = std::move(carry_map_);
      carry_map_.clear();
    }

    // Output conversion (Algorithm 1 lines 20-23): objects not already
    // emitted early are converted into the caller's output array.
    convert_combination_map(out, out_len);
    sync_tracked_objects();
    ++stats_.runs;
    if (obs::metrics_enabled()) {
      static obs::Counter& runs = obs::MetricsRegistry::global().counter("smart.runs");
      runs.add(1);
    }

    // Periodic auto-checkpoint (RecoveryPolicy): the accumulated state is
    // persisted atomically at run boundaries, so a job restarted after a
    // crash resumes from the last completed run (core/checkpoint_io.h).
    if (recovery_.checkpoint_every_runs > 0 &&
        stats_.runs % static_cast<std::size_t>(recovery_.checkpoint_every_runs) == 0) {
      obs::TraceSpan span("checkpoint", "sched");
      Buffer snap = snapshot();
      span.arg("bytes", static_cast<std::int64_t>(snap.size()));
      write_checkpoint_file(snap, recovery_.checkpoint_path);
      BufferPool::release(std::move(snap));
      ++stats_.auto_checkpoints;
    }
  }

  /// Algorithm 1 lines 3-6: clone the (seeded or post-combined) combination
  /// map into every worker's reduction map so accumulate/merge see the
  /// iterative context.  The map itself stays in place as the read-only
  /// com_map argument to gen_key(s); local combination rebuilds it from the
  /// worker maps (every seeded entry survives via its clones).  Non-seeded
  /// apps (empty map at this point) skip the per-worker pass entirely.
  void distribute_combination_map() {
    if (combination_map_.empty()) return;  // worker maps are already clear
    // Workers iterate the map concurrently as gen_key's com_map argument;
    // restore key order now so no worker's begin() has to.
    combination_map_.ensure_sorted();
    for (auto& rmap : reduction_maps_) {
      rmap.clear();
      rmap.reserve(combination_map_.size());
      for (const auto& [key, obj] : combination_map_) {
        auto cloned = obj->clone();
        cloned->set_key(key);
        rmap.emplace(key, std::move(cloned));
      }
    }
  }

  /// Walks num_chunks full chunks plus, when tail_len > 0, one short final
  /// chunk of tail_len elements at offset num_chunks * chunk_size.
  ///
  /// Full chunks take the *batched* path when RunOptions::batch_chunks > 1,
  /// and every run of chunks that share a key costs one map lookup plus one
  /// accumulate_batch call instead of a lookup and two virtual dispatches
  /// per chunk:
  ///   * single-key (run): one gen_keys_batch call keys up to batch_chunks
  ///     chunks over a columnar ChunkBatch view, and runs of consecutive
  ///     equal keys are detected (consecutive chunks usually share a key —
  ///     the cached-slot trick extended to whole runs);
  ///   * multi-key (run2) on an app that declares key ranges: one walk over
  ///     the split visits its keys in ascending order, skipping keys no
  ///     chunk covers.  By the ranges' monotonicity the chunks covering a
  ///     key form one contiguous run, found by two pointers that only move
  ///     forward, so a window costs one accumulate_batch call.  The ranges
  ///     come batch_chunks chunks at a time, one gen_key_ranges call per
  ///     block, into a per-worker buffer that drops the chunks behind the
  ///     lo pointer before each refill.  A key the
  ///     worker's map does not hold accumulates into the worker's scratch
  ///     object; a trigger emits it without a map insert or erase, and a
  ///     window still pending at the end of its run moves into the map.
  ///     Each object still receives its chunks in ascending position
  ///     order, which keeps outputs, emissions and floating-point bits
  ///     identical to the per-chunk walk.  Apps with only gen_keys take
  ///     the per-chunk walk.
  /// The ragged tail unit and runs with batching disabled stay
  /// chunk-at-a-time.
  void reduction_phase(const In* data, std::size_t num_chunks, std::size_t tail_len, Out* out,
                       std::size_t out_len, bool multi_key) {
    const std::size_t num_units = num_chunks + (tail_len > 0 ? 1 : 0);
    const auto workers = static_cast<std::size_t>(args_.num_threads);
    const std::size_t base = num_units / workers;
    const std::size_t extra = num_units % workers;

    // Written once per worker, when its leg ends: the slots share a cache
    // line.
    std::vector<std::size_t> peak_objs(workers, 0);
    std::vector<std::size_t> emitted(workers, 0);

    // Pool workers have no rank attribution of their own; pin their spans
    // to this scheduler's rank so the export files them in its lane.
    const int trace_rank = obs::thread_rank();
    const std::vector<double> busy = pool_->parallel_region([&](int w) {
      obs::TraceSpan worker_span("reduce.worker", "sched", {{"worker", w}}, trace_rank);
      const auto uw = static_cast<std::size_t>(w);
      auto& rmap = reduction_maps_[uw];
      std::size_t peak = rmap.size();
      std::size_t emissions = 0;
      std::vector<int> keys;
      // Consecutive chunks usually hit the same key (single-object apps,
      // grid runs), so cache the last slot.  The cache holds the dense
      // *index* of the entry, not a pointer: CombinationMap appends never
      // move an existing entry's index, while the entry storage itself can
      // reallocate under unrelated inserts.
      int cached_key = 0;
      std::size_t cached_slot = CombinationMap::npos;
      auto locate = [&](int key) -> std::unique_ptr<RedObj>& {
        if (cached_slot == CombinationMap::npos || cached_key != key) {
          cached_slot = rmap.slot_index(key);
          cached_key = key;
        }
        return rmap.slot_at(cached_slot);
      };
      auto emit_key = [&](std::unique_ptr<RedObj>& obj, int key) {
        const bool has_slot = out != nullptr && key >= 0 && static_cast<std::size_t>(key) < out_len;
        emit(obj, has_slot ? out + key : nullptr);
        ++emissions;
      };
      auto emit_and_erase = [&](std::unique_ptr<RedObj>& slot, int key) {
        // Algorithm 2 lines 5-7: convert and drop right away.
        emit_key(slot, key);
        // erase() swap-moves the last entry into the freed index, so the
        // cached index may now name a different key — drop it.
        rmap.erase(key);
        cached_slot = CombinationMap::npos;
      };
      auto process_key = [&](const Chunk& chunk, int key) {
        detail::t_current_key = key;
        auto& slot = locate(key);
        if (slot) slot->set_key(key);
        accumulate(chunk, data, slot);
        if (!slot) {
          throw std::logic_error("Scheduler: accumulate left a null reduction object");
        }
        slot->set_key(key);
        // Counted before a trigger drops it: the object was live.
        if (rmap.size() > peak) peak = rmap.size();
        if (opts_.enable_trigger && slot->trigger()) emit_and_erase(slot, key);
      };
      auto process_chunk = [&](std::size_t c) {
        // The last unit may be the ragged tail; Chunk::length carries its
        // true element count so apps clip their loops to it.
        const std::size_t len = c < num_chunks ? args_.chunk_size : tail_len;
        const Chunk chunk{c * args_.chunk_size, len};
        if (multi_key) {
          keys.clear();
          gen_keys(chunk, data, keys, combination_map_);
          for (const int key : keys) process_key(chunk, key);
        } else {
          process_key(chunk, gen_key(chunk, data, combination_map_));
        }
      };
      // Accumulates `len` consecutive chunks of `batch`, starting at chunk
      // `first`, into `key`'s object: one accumulate_batch call, repeated
      // only when the object triggers mid-run.  With `scratch` null the
      // object is the map's: a triggered run resumes on the next pass,
      // where locate() re-inserts the key and accumulation restarts on a
      // fresh object, exactly like the per-chunk path.  Otherwise it is
      // *scratch, for a key the map does not hold: a trigger emits it with
      // no erase, the rest of the run accumulates into what emit() left,
      // and a window still pending at the end of the run moves into the map.
      auto accumulate_run = [&](const ChunkBatch& batch, std::size_t first, std::size_t len,
                                int key, std::unique_ptr<RedObj>* scratch) {
        bool pending = false;  // the last pass left a window no emit() took
        for (std::size_t i = first, left = len; left > 0;) {
          detail::t_current_key = key;
          auto& slot = scratch != nullptr ? *scratch : locate(key);
          if (slot) slot->set_key(key);
          const std::size_t consumed =
              accumulate_batch(batch.sub(i, left), data, slot, opts_.enable_trigger);
          if (!slot) {
            throw std::logic_error("Scheduler: accumulate_batch left a null reduction object");
          }
          // 0 would skip a chunk unaccumulated; more than the run would
          // skip chunks of the next run.
          if (consumed == 0 || consumed > left) {
            throw std::logic_error("Scheduler: accumulate_batch returned " +
                                   std::to_string(consumed) + " for a run of " +
                                   std::to_string(left) + " chunks");
          }
          slot->set_key(key);
          // Counted before a trigger drops it: the object was live.
          const std::size_t live = rmap.size() + (scratch != nullptr ? 1 : 0);
          if (live > peak) peak = live;
          const bool fired = opts_.enable_trigger && slot->trigger();
          if (fired && scratch != nullptr) {
            emit_key(slot, key);
          } else if (fired) {
            emit_and_erase(slot, key);
          }
          pending = !fired;
          i += consumed;
          left -= consumed;
        }
        if (pending && scratch != nullptr) rmap.emplace(key, std::move(*scratch));
      };
      // Batched run(): one key per chunk of the batch.
      const bool batched = opts_.batch_chunks > 1;
      std::vector<int> batch_keys(batched && !multi_key ? opts_.batch_chunks : 0);
      auto process_batch = [&](std::size_t first_chunk, std::size_t n) {
        const ChunkBatch batch{first_chunk * args_.chunk_size, args_.chunk_size, n};
        gen_keys_batch(batch, data, batch_keys.data(), combination_map_);
        for (std::size_t i = 0; i < n;) {
          std::size_t run_end = i + 1;
          while (run_end < n && batch_keys[run_end] == batch_keys[i]) ++run_end;
          accumulate_run(batch, i, run_end - i, batch_keys[i], nullptr);
          i = run_end;
        }
      };
      // Batched run2() on a range app.  All full chunks as one batch, which
      // the walk's runs index into.
      const ChunkBatch full{0, args_.chunk_size, num_chunks};
      // The ranges of chunks [ranges_at, ranges_at + ranges.size()).
      // fill_ranges drops the chunks before `keep`, then appends the ranges
      // of the next batch_chunks chunks (fewer at `stop`) from one
      // gen_key_ranges call, and returns what that call returned.
      std::vector<KeyRange> ranges;
      std::size_t ranges_at = 0;
      auto fill_ranges = [&](std::size_t keep, std::size_t stop) {
        ranges.erase(ranges.begin(),
                     ranges.begin() + static_cast<std::ptrdiff_t>(keep - ranges_at));
        ranges_at = keep;
        const std::size_t next = ranges_at + ranges.size();
        const std::size_t n = std::min(opts_.batch_chunks, stop - next);
        ranges.resize(ranges.size() + n);
        return gen_key_ranges(full.sub(next, n), data, ranges.data() + (ranges.size() - n),
                              combination_map_);
      };
      // The walk's scratch object.  The walk visits each key once, so only
      // a key seeded into the map before the phase (an iterative app's
      // distributed map) is found there; the walk's own keys enter the map
      // only as windows left pending at the end of their run.
      std::unique_ptr<RedObj> scratch;
      const bool seeded = !rmap.empty();
      // Walks full chunks [first, stop) key by key, once the ranges buffer
      // holds chunk first's.  Chunks [lo, hi) are the ones covering `key`:
      // by monotonicity every chunk before hi starts at or before it and
      // every chunk from lo on ends at or after it, so both pointers only
      // move forward as the key grows.  The buffer is refilled as hi passes
      // its end, and then holds one block more than chunks [lo, hi).
      auto walk_key_ranges = [&](std::size_t first, std::size_t stop) {
        std::size_t lo = first;
        std::size_t hi = first;
        KeyRange lo_range = ranges[first - ranges_at];  // chunk lo's, while lo < stop
        KeyRange hi_range = lo_range;                   // chunk hi's, while hi < stop
        std::int64_t key = lo_range.first;
        while (lo < stop) {
          while (hi < stop && hi_range.first <= key) {
            if (++hi == stop) break;
            if (hi == ranges_at + ranges.size()) fill_ranges(lo, stop);
            const KeyRange next = ranges[hi - ranges_at];
            if (next.first < hi_range.first || next.last < hi_range.last) {
              throw std::logic_error(
                  "Scheduler: gen_key_ranges of chunk " + std::to_string(hi) + " is [" +
                  std::to_string(next.first) + ", " + std::to_string(next.last) +
                  "], below the previous chunk's [" + std::to_string(hi_range.first) + ", " +
                  std::to_string(hi_range.last) + "]; key ranges must not decrease");
            }
            hi_range = next;
          }
          while (lo < hi && lo_range.last < key) {
            if (++lo < stop) lo_range = ranges[lo - ranges_at];
          }
          if (lo == hi) {
            // No chunk covers `key`: skip to chunk hi's first key.
            if (hi < stop) key = hi_range.first;
            continue;
          }
          const int k = static_cast<int>(key);
          accumulate_run(full, lo, hi - lo, k, seeded && rmap.contains(k) ? nullptr : &scratch);
          ++key;
        }
      };
      // Contiguous split of chunks for this worker (the paper's equal
      // division of a block into splits) — affinity-friendly: one
      // streaming range per worker.
      const std::size_t begin = uw * base + std::min(uw, extra);
      const std::size_t end = begin + base + (uw < extra ? 1 : 0);
      std::size_t c = begin;
      const std::size_t full_end = std::min(end, num_chunks);
      if (batched && !multi_key) {
        for (std::size_t n = 0; c < full_end; c += n) {
          n = std::min(opts_.batch_chunks, full_end - c);
          process_batch(c, n);
        }
      } else if (batched && c < full_end) {
        // The first block's fill decides whether the split is walked by
        // ranges.
        ranges_at = c;
        if (fill_ranges(c, full_end)) {
          walk_key_ranges(c, full_end);
          c = full_end;
        }
      }
      // Per-chunk path: batching disabled, apps without key ranges under
      // run2(), and the ragged tail unit (never part of a block).
      for (; c < end; ++c) process_chunk(c);
      peak_objs[uw] = peak;
      emitted[uw] = emissions;
    });

    double critical_path = 0.0;
    double busy_total = 0.0;
    for (double b : busy) {
      critical_path = std::max(critical_path, b);
      busy_total += b;
    }
    stats_.reduction_seconds += critical_path;
    // Load-balance observability: max-over-mean worker busy time (1.0 =
    // balanced, `workers` = one worker did it all).  This is where skewed
    // per-chunk cost or a ragged tail stranding one worker becomes visible.
    const double mean_busy = busy_total / static_cast<double>(workers);
    const double skew = mean_busy > 0.0 ? critical_path / mean_busy : 1.0;
    if (skew > stats_.worker_skew) stats_.worker_skew = skew;
    if (obs::metrics_enabled()) {
      static obs::Gauge& skew_gauge =
          obs::MetricsRegistry::global().gauge("sched.worker_skew");
      skew_gauge.update_max(skew);
    }
    // Threads within a rank run on that rank's dedicated cores; the rank's
    // virtual clock advances by the slowest worker.
    if (auto* comm = simmpi::current()) comm->advance_region(busy);

    std::size_t peak_total = combination_map_.size();
    for (std::size_t w = 0; w < workers; ++w) {
      peak_total += peak_objs[w];
      stats_.early_emissions += emitted[w];
    }
    // The splits tile [0, num_units) exactly once.
    stats_.chunks_processed += num_units;
    stats_.elements_processed += num_chunks * args_.chunk_size + tail_len;
    if (peak_total > stats_.peak_reduction_objects) {
      stats_.peak_reduction_objects = peak_total;
    }
    sync_tracked_objects();
  }

  /// Algorithm 1 lines 11-17, local half: worker maps fold one after
  /// another into the node-local combination map (the seeded entries
  /// survive via their worker clones, so the pre-phase map is simply
  /// replaced).  The fold runs on the rank thread, so the rank's virtual
  /// clock charges it like any other rank-thread compute.
  void local_combination() {
    ThreadCpuTimer timer;
    CombinationMap fresh;
    for (auto& rmap : reduction_maps_) {
      merge_map_into(std::move(rmap), fresh, merge_fn());
      rmap.clear();
    }
    combination_map_ = std::move(fresh);
    stats_.combination_seconds += timer.seconds();
  }

  /// Algorithm 1 lines 11-17, global half: rank maps merge across simmpi
  /// via MapCombiner's single-pass binomial tree (see core/map_combiner.h)
  /// and the global map replaces every rank's local map, so the next
  /// iteration and get_combination_map see the global result.
  ///
  /// Under a fault-tolerant RecoveryPolicy the round is wrapped in a
  /// recovery loop: on simmpi::PeerUnreachable the map rolls back to its
  /// pre-round snapshot (a failed round may have partially merged peers),
  /// the round retries with exponential backoff, and once a peer is known
  /// dead — or retries are exhausted against one — the survivors rebuild
  /// the tree over the reduced rank set and stay degraded from then on.
  void global_combination(simmpi::Communicator& comm) {
    WallTimer wall;
    ++stats_.global_combinations;
    if (!recovery_.fault_tolerant_combination()) {
      fold_combine_stats(map_combiner_.allreduce(comm, combination_map_, merge_fn()));
      stats_.global_seconds += wall.seconds();
      return;
    }

    // Pre-round snapshot: a PeerUnreachable can surface after some peers'
    // payloads were already absorbed, and replaying those merges would
    // double-count them.  The rollback also keeps resent payloads
    // byte-identical, which is what lets every attempt of this round
    // share one tag namespace (MapCombiner::begin_recovery_round).
    Buffer pre_round;
    serialize_map(combination_map_, pre_round);
    map_combiner_.begin_recovery_round();
    const int max_attempts = std::max(1, recovery_.combine_retries + 1);
    for (int attempt = 0;; ++attempt) {
      obs::TraceSpan attempt_span("combine.attempt", "sched", {{"attempt", attempt}});
      try {
        MapCombineStats cs;
        if (survivors_.empty()) {
          cs = map_combiner_.allreduce(comm, combination_map_, merge_fn(),
                                       recovery_.peer_timeout_seconds);
        } else {
          cs = map_combiner_.allreduce_surviving(comm, survivors_, combination_map_, merge_fn(),
                                                 recovery_.peer_timeout_seconds);
        }
        fold_combine_stats(cs);
        break;
      } catch (const simmpi::PeerUnreachable&) {
        if (obs::trace_enabled()) {
          obs::TraceCollector::instance().instant("combine.retry", "sched",
                                                  {{"attempt", attempt}});
        }
        combination_map_ = deserialize_map(pre_round);
        sync_tracked_objects();
        const std::vector<int> alive = comm.alive_ranks();
        const bool newly_degraded =
            static_cast<int>(alive.size()) < comm.size() && alive != survivors_;
        if (newly_degraded) {
          // Every survivor computes the same alive set from the shared
          // death record, so the degraded trees agree without a consensus
          // round.  A newly detected death re-arms the retry budget.
          survivors_ = alive;
          stats_.ranks_lost = static_cast<std::size_t>(comm.size()) - alive.size();
          attempt = -1;
          continue;
        }
        if (attempt + 1 >= max_attempts) throw;
        ++stats_.combine_retries;
        std::this_thread::sleep_for(std::chrono::duration<double>(
            recovery_.retry_backoff_seconds * static_cast<double>(1 << attempt)));
      }
    }
    stats_.global_seconds += wall.seconds();
  }

  void fold_combine_stats(const MapCombineStats& cs) {
    if (obs::metrics_enabled()) {
      static obs::FixedHistogram& wire = obs::MetricsRegistry::global().histogram(
          "smart.wire_bytes_per_round", {1024, 16384, 65536, 262144, 1048576, 16777216});
      wire.observe(static_cast<double>(cs.wire_bytes));
    }
    stats_.bytes_serialized += cs.bytes_encoded;
    stats_.wire_bytes += cs.wire_bytes;
    stats_.map_serializes += cs.map_serializes;
    stats_.map_deserializes += cs.map_deserializes;
    stats_.map_merges += cs.map_merges;
    stats_.codec_seconds += cs.codec_seconds;
  }

  SchedArgs args_;
  RunOptions opts_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<CombinationMap> reduction_maps_;
  CombinationMap combination_map_;
  CombinationMap carry_map_;
  MapCombiner map_combiner_;
  RecoveryPolicy recovery_;
  std::vector<int> survivors_;  ///< degraded combination group; empty = everyone
  bool global_combination_ = true;
  bool process_tail_ = true;  ///< cleared by require_full_chunks()
  std::size_t total_len_ = 0;
  std::size_t tracked_red_bytes_ = 0;
  std::unique_ptr<CircularBuffer<FeedCell>> feed_buffer_;
  RunStats stats_;
  std::size_t master_seed_ = 0;
};

}  // namespace smart
