#include "core/map_combiner.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "common/timing.h"
#include "obs/trace.h"

namespace smart {

namespace {
// Internal tag space, below the communicator's own collectives
// (-1000..-6000).
constexpr int kTreeTag = -9000;
// Fault-tolerant rounds burn two tags per recovery round, descending from
// here, so round r+1 never matches round r's leftovers.  Attempts *within*
// a round share its tags on purpose: a stale payload from an aborted
// attempt is byte-identical to its resend — the sender rolled back to its
// pre-round map first — so consuming it is harmless, and a rank that
// finished the round early can satisfy a still-retrying peer's receive
// from the result it already sent.  Per-*attempt* tags would instead
// require attempt lockstep, which partial failures break.
constexpr int kFtBaseTag = -9600;

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
    obs::TraceSpan span("combine.ft_tree", "sched", {{"round", round}});
    reduce_and_fan_out(comm, ranks, map, merge, peer_timeout_seconds, stats);
    stats.algorithm = "ft_tree";
  } else {
    obs::TraceSpan span("combine.tree", "sched", {{"round", round}});
    reduce_to_first(comm, ranks, map, merge, kTreeTag, 0.0, stats);
    // Broadcast the globally merged map.  The root's live map *is* the
    // result — it serializes once for the wire and never deserializes.
    // The whole binomial tree shares the root's serialized bytes
    // (bcast_shared), and every non-root deserializes straight out of
    // them: no per-child copies, no materializing copy at the leaves, and
    // the storage returns to the BufferPool when the last rank drops its
    // reference.
    SharedBuffer global;
    if (comm.rank() == 0) global = make_shared_buffer(encode(map, stats));
    comm.bcast_shared(global, 0);
    if (comm.rank() != 0) decode(Reader(global), map, nullptr, stats);
    stats.algorithm = "tree";
  }
  stats.wire_bytes = comm.bytes_sent() - sent_before;
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
  reduce_and_fan_out(comm, alive, map, merge, peer_timeout_seconds, stats);
  stats.algorithm = "ft_tree";
  stats.wire_bytes = comm.bytes_sent() - sent_before;
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
                                     CombinationMap& map, const MergeFn& merge,
                                     double timeout_seconds, MapCombineStats& stats) {
  const int reduce_tag = kFtBaseTag - 2 * ft_round_;
  const int result_tag = reduce_tag - 1;
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
        comm.recv_shared_timeout(ranks.front(), result_tag, timeout_seconds);
    decode(Reader(global), map, nullptr, stats);
  }
}

}  // namespace smart
