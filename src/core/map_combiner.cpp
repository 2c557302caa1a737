#include "core/map_combiner.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "common/timing.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace smart {

namespace {
// Internal tag space, below the communicator's own collectives
// (-1000..-6000).
constexpr int kTreeTag = -9000;
constexpr int kRingReduceTag = -9200;
constexpr int kRingGatherTag = -9400;
constexpr int kDirectTag = -9500;         ///< direct: binomial reduce payloads
constexpr int kDirectResultTag = -9501;   ///< direct: root's shared fan-out
// Fault-tolerant rounds burn two tags per recovery round, descending from
// here, so round r+1 never matches round r's leftovers.  Attempts *within*
// a round share its tags on purpose: a stale payload from an aborted
// attempt is byte-identical to its resend — the sender rolled back to its
// pre-round map first — so consuming it is harmless, and a rank that
// finished the round early can satisfy a still-retrying peer's receive
// from the result it already sent.  Per-*attempt* tags would instead
// require attempt lockstep, which partial failures break.
constexpr int kFtBaseTag = -9600;

/// Per-decision planner counters (collective.plan.tree|ring|direct): how
/// often the auto mode resolved to each algorithm, riding the usual
/// metrics gate.  Forced algorithms don't count — the interesting signal
/// is what the topology made the planner do.
void count_plan(simmpi::CollectiveAlgo algo) {
  if (!obs::metrics_enabled()) return;
  static obs::Counter& tree = obs::MetricsRegistry::global().counter("collective.plan.tree");
  static obs::Counter& ring = obs::MetricsRegistry::global().counter("collective.plan.ring");
  static obs::Counter& direct = obs::MetricsRegistry::global().counter("collective.plan.direct");
  switch (algo) {
    case simmpi::CollectiveAlgo::kTree:
      tree.add(1);
      break;
    case simmpi::CollectiveAlgo::kRing:
      ring.add(1);
      break;
    case simmpi::CollectiveAlgo::kDirect:
      direct.add(1);
      break;
  }
}

/// Decodes a peer's full-map wire payload under a codec.decode span: a
/// reduction hop absorbs it into the live map with `*merge`; the arriving
/// global result (`merge` null) replaces the map outright.
void decode(Reader r, CombinationMap& map, const MergeFn* merge, MapCombineStats& stats) {
  ThreadCpuTimer codec;
  {
    obs::TraceSpan span("codec.decode", "codec",
                        {{"bytes", static_cast<std::int64_t>(r.remaining())}});
    if (merge != nullptr) {
      stats.map_merges += absorb_serialized_map(r, map, *merge);
    } else {
      map = deserialize_map(r);
    }
  }
  stats.codec_seconds += codec.seconds();
  if (merge == nullptr) ++stats.map_deserializes;
}
}  // namespace

void MapCombiner::prepare_wire() {
  if (wire_.capacity() == 0) {
    wire_ = BufferPool::acquire(wire_hint_);
  } else {
    wire_.clear();
  }
}

Buffer MapCombiner::encode(const CombinationMap& map, MapCombineStats& stats) {
  ThreadCpuTimer codec;
  prepare_wire();
  {
    obs::TraceSpan span("codec.encode", "codec");
    serialize_map(map, wire_);
    span.arg("bytes", static_cast<std::int64_t>(wire_.size()));
  }
  stats.codec_seconds += codec.seconds();
  ++stats.map_serializes;
  stats.bytes_encoded += wire_.size();
  if (wire_.size() > wire_hint_) wire_hint_ = wire_.size();
  return std::move(wire_);
}

MapCombineStats MapCombiner::allreduce(simmpi::Communicator& comm, CombinationMap& map,
                                       const MergeFn& merge, double peer_timeout_seconds) {
  MapCombineStats stats;
  if (comm.size() <= 1) return stats;
  const std::size_t sent_before = comm.bytes_sent();
  // Combination-round stamp: the critical-path profiler rolls attributed
  // time up per round, so every combine.* span names the round it served.
  const std::int64_t round = combine_round_++;
  std::vector<int> ranks(static_cast<std::size_t>(comm.size()));
  std::iota(ranks.begin(), ranks.end(), 0);
  if (peer_timeout_seconds > 0.0) {
    // Fault-tolerant round over the full rank set.  Always the binomial
    // reduce + direct fan-out: the ring needs every rank alive and the auto
    // decision's first-round consensus is an unbounded collective — neither
    // survives a dead peer.
    obs::TraceSpan span("combine.ft_tree", "sched", {{"round", round}});
    const int ft_tag = kFtBaseTag - 2 * ft_round_;
    reduce_and_fan_out(comm, ranks, map, merge, ft_tag, ft_tag - 1, peer_timeout_seconds, stats);
    stats.algorithm = "ft_tree";
  } else {
    switch (plan(comm, map)) {
      case simmpi::CollectiveAlgo::kRing: {
        obs::TraceSpan span("combine.ring", "sched", {{"round", round}});
        ring_allreduce(comm, map, merge, stats);
        stats.algorithm = "ring";
        break;
      }
      case simmpi::CollectiveAlgo::kDirect: {
        // The planner chose this shape because the root's links are cheap
        // relative to interior tree hops (or the group is small enough
        // that fan-out beats tree latency).
        obs::TraceSpan span("combine.direct", "sched", {{"round", round}});
        reduce_and_fan_out(comm, ranks, map, merge, kDirectTag, kDirectResultTag, 0.0, stats);
        stats.algorithm = "direct";
        break;
      }
      case simmpi::CollectiveAlgo::kTree: {
        obs::TraceSpan span("combine.tree", "sched", {{"round", round}});
        reduce_to_first(comm, ranks, map, merge, kTreeTag, 0.0, stats);
        // Broadcast the globally merged map.  The root's live map *is* the
        // result — it serializes once for the wire and never deserializes.
        // The whole binomial tree shares the root's serialized bytes
        // (bcast_shared), and every non-root deserializes straight out of
        // them: no per-child copies, no materializing copy at the leaves,
        // and the storage returns to the BufferPool when the last rank
        // drops its reference.
        SharedBuffer global;
        if (comm.rank() == 0) global = make_shared_buffer(encode(map, stats));
        comm.bcast_shared(global, 0);
        if (comm.rank() != 0) decode(Reader(global), map, nullptr, stats);
        stats.algorithm = "tree";
        break;
      }
    }
  }
  stats.wire_bytes = comm.bytes_sent() - sent_before;
  // Every rank now holds the identical global map, so this footprint is a
  // consensus value for free — next round's algorithm choice needs no
  // extra messages.
  agreed_footprint_ = map_footprint_bytes(map);
  have_agreed_footprint_ = true;
  return stats;
}

MapCombineStats MapCombiner::allreduce_surviving(simmpi::Communicator& comm,
                                                 const std::vector<int>& alive,
                                                 CombinationMap& map, const MergeFn& merge,
                                                 double peer_timeout_seconds) {
  MapCombineStats stats;
  if (alive.size() <= 1) return stats;
  const std::size_t sent_before = comm.bytes_sent();
  obs::TraceSpan span("combine.ft_tree", "sched",
                      {{"survivors", static_cast<std::int64_t>(alive.size())},
                       {"round", combine_round_++}});
  const int ft_tag = kFtBaseTag - 2 * ft_round_;
  reduce_and_fan_out(comm, alive, map, merge, ft_tag, ft_tag - 1, peer_timeout_seconds, stats);
  stats.algorithm = "ft_tree";
  stats.wire_bytes = comm.bytes_sent() - sent_before;
  agreed_footprint_ = map_footprint_bytes(map);
  have_agreed_footprint_ = true;
  return stats;
}

void MapCombiner::reduce_to_first(simmpi::Communicator& comm, const std::vector<int>& ranks,
                                  CombinationMap& map, const MergeFn& merge, int tag,
                                  double timeout_seconds, MapCombineStats& stats) {
  const auto it = std::find(ranks.begin(), ranks.end(), comm.rank());
  if (it == ranks.end()) {
    throw std::logic_error("MapCombiner: this rank is not in the combination group");
  }
  const auto m = static_cast<std::size_t>(ranks.size());
  const auto me = static_cast<std::size_t>(it - ranks.begin());
  // Binomial reduction over list positions, mirroring Communicator::reduce's
  // schedule so the merge order (and therefore every floating-point
  // accumulation) is bit-identical to the Buffer-lambda path this replaces.
  // The difference: a receiving rank absorbs the child's payload straight
  // into its live map, and only serializes once — when handing its merged
  // map up.
  for (std::size_t dist = 1; dist < m; dist <<= 1) {
    if (me % (2 * dist) == 0) {
      if (me + dist < m) {
        const int child = ranks[me + dist];
        Buffer payload = timeout_seconds > 0.0 ? comm.recv_timeout(child, tag, timeout_seconds)
                                               : comm.recv(child, tag);
        decode(Reader(payload), map, &merge, stats);
        BufferPool::release(std::move(payload));
      }
    } else {
      comm.send(ranks[me - dist], tag, encode(map, stats));
      break;
    }
  }
}

void MapCombiner::reduce_and_fan_out(simmpi::Communicator& comm, const std::vector<int>& ranks,
                                     CombinationMap& map, const MergeFn& merge, int reduce_tag,
                                     int result_tag, double timeout_seconds,
                                     MapCombineStats& stats) {
  reduce_to_first(comm, ranks, map, merge, reduce_tag, timeout_seconds, stats);
  // Root fan-out: one serialize, one SharedBuffer handed to every peer — no
  // interior forwarding, no per-peer copies.  Interior bcast forwarding
  // would make one rank's death strand its whole subtree; direct sends
  // keep every delivery independent.
  if (comm.rank() == ranks.front()) {
    const SharedBuffer result = make_shared_buffer(encode(map, stats));
    for (std::size_t g = 1; g < ranks.size(); ++g) comm.send_shared(ranks[g], result_tag, result);
  } else {
    const SharedBuffer global =
        timeout_seconds > 0.0
            ? comm.recv_shared_timeout(ranks.front(), result_tag, timeout_seconds)
            : comm.recv_shared(ranks.front(), result_tag);
    decode(Reader(global), map, nullptr, stats);
  }
}

simmpi::CollectiveAlgo MapCombiner::plan(simmpi::Communicator& comm, const CombinationMap& map) {
  switch (algorithm_) {
    case Algorithm::kTree:
      return simmpi::CollectiveAlgo::kTree;
    case Algorithm::kRing:
      return simmpi::CollectiveAlgo::kRing;
    case Algorithm::kDirect:
      return simmpi::CollectiveAlgo::kDirect;
    case Algorithm::kAuto:
      break;
  }
  // The tree ties or wins at two ranks (same bytes, fewer messages) and
  // keeps the legacy bit-exact merge schedule, so require a real group.
  if (comm.size() < 3) return simmpi::CollectiveAlgo::kTree;
  const auto estimate =
      have_agreed_footprint_
          ? agreed_footprint_
          : static_cast<std::size_t>(comm.allreduce_max<std::uint64_t>(map_footprint_bytes(map)));
  // Below the measured flat-model crossover the round is codec/latency
  // bound on any topology — the tree's fewer messages and single encode
  // win regardless of link costs, so the crossover acts as a floor and
  // the planner is only consulted above it.
  if (estimate < ring_crossover_bytes_) return simmpi::CollectiveAlgo::kTree;
  const simmpi::CollectivePlan p = simmpi::CollectivePlanner::plan_allreduce(comm, estimate);
  count_plan(p.algo);
  return p.algo;
}

void MapCombiner::ring_allreduce(simmpi::Communicator& comm, CombinationMap& map,
                                 const MergeFn& merge, MapCombineStats& stats) {
  const int n = comm.size();
  const int rank = comm.rank();
  const int right = (rank + 1) % n;
  const int left = (rank - 1 + n) % n;
  const auto mod = [n](int x) { return ((x % n) + n) % n; };
  stats.used_ring = true;

  // Segment index: one O(keys) pass buckets every key into its segment's
  // ordered list, so each of the n-1 encode steps below walks only the
  // keys it ships — the round's total encode scan is O(keys), not
  // O(keys × segments) as when serialize_map_segment rescans the whole
  // map per step.  absorb_segment keeps the index consistent as incoming
  // payloads insert keys this rank had never seen.
  seg_index_.build(map, n);

  // Reduce-scatter over key segments: at step s this rank ships its
  // partially merged segment (rank - s) and folds the incoming segment
  // (rank - s - 1) into its live map.  After n-1 steps segment (rank + 1)
  // is globally complete here.  Note there is no full-map codec pass: each
  // entry is serialized at most once per hop it travels, and the per-rank
  // traffic is ~2·S·(n-1)/n bytes total regardless of rank count.
  for (int step = 0; step < n - 1; ++step) {
    ThreadCpuTimer encode;
    prepare_wire();
    {
      obs::TraceSpan cspan("codec.encode", "codec");
      seg_index_.serialize_segment(map, mod(rank - step), wire_);
      cspan.arg("bytes", static_cast<std::int64_t>(wire_.size()));
    }
    stats.codec_seconds += encode.seconds();
    stats.bytes_encoded += wire_.size();
    if (wire_.size() > wire_hint_) wire_hint_ = wire_.size();
    comm.send(right, kRingReduceTag - step, std::move(wire_));
    Buffer incoming = comm.recv(left, kRingReduceTag - step);
    ThreadCpuTimer decode;
    {
      obs::TraceSpan cspan("codec.decode", "codec",
                           {{"bytes", static_cast<std::int64_t>(incoming.size())}});
      Reader r(incoming);
      stats.map_merges += seg_index_.absorb_segment(r, map, merge, mod(rank - step - 1));
    }
    stats.codec_seconds += decode.seconds();
    BufferPool::release(std::move(incoming));
  }

  // Allgather: circulate the finished segments.  Only the first payload is
  // encoded; every later step forwards the received bytes verbatim.
  // Incoming entries are the *final* global values for their keys, so they
  // replace (not merge into) this rank's partial ones.  Nothing is encoded
  // from the map after this point, so the plain absorb (which leaves the
  // segment index stale) is fine.
  ThreadCpuTimer encode;
  Buffer circulating = BufferPool::acquire(wire_hint_ / static_cast<std::size_t>(n));
  {
    obs::TraceSpan cspan("codec.encode", "codec");
    seg_index_.serialize_segment(map, mod(rank + 1), circulating);
    cspan.arg("bytes", static_cast<std::int64_t>(circulating.size()));
  }
  stats.codec_seconds += encode.seconds();
  stats.bytes_encoded += circulating.size();
  for (int step = 0; step < n - 1; ++step) {
    comm.send(right, kRingGatherTag - step, std::move(circulating));
    Buffer incoming = comm.recv(left, kRingGatherTag - step);
    ThreadCpuTimer decode;
    {
      obs::TraceSpan cspan("codec.decode", "codec",
                           {{"bytes", static_cast<std::int64_t>(incoming.size())}});
      Reader r(incoming);
      stats.map_merges += absorb_serialized_map(r, map, merge, /*replace_existing=*/true);
    }
    stats.codec_seconds += decode.seconds();
    circulating = std::move(incoming);
  }
  BufferPool::release(std::move(circulating));
}

}  // namespace smart
