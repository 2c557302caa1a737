// MapCombiner: single-pass global combination of CombinationMaps over a
// simmpi communicator (paper Algorithm 1, lines 11-17).
//
// The naive implementation passes a Buffer×Buffer→Buffer lambda to
// Communicator::allreduce_shared, which pays deserialize_map + merge +
// serialize_map at *every* hop of the binomial reduction tree — O(log n)
// redundant codec passes per rank per round.  MapCombiner instead keeps the
// merged state as a live CombinationMap at interior tree nodes and only
// touches serialized Buffers at rank boundaries.  A round has one of two
// shapes, both over the same binomial reduction (so both merge in the same
// order):
//
//   * tree (every fault-free round): a rank absorbs each child's wire
//     payload directly into its live map (absorb_serialized_map — no
//     intermediate map, no re-serialize), serializes its merged map exactly
//     once when it hands the result up (or, at the root, for the
//     broadcast), and deserializes exactly once when the broadcast result
//     arrives (the root not at all).  Per rank per round: ≤1 serialize_map,
//     ≤1 deserialize_map, and the merge schedule is bit-identical to the
//     Buffer-lambda path.
//   * fault-tolerant (RecoveryPolicy::peer_timeout_seconds > 0): the same
//     reduction with every receive timed, then the root sends the shared
//     result straight to every peer (one serialize, zero per-peer copies)
//     instead of a bcast whose interior forwarding would strand a dead
//     rank's subtree.  It runs over all ranks or, degraded, the survivors.
//
// One MapCombiner lives per scheduler so its wire buffer's capacity
// persists across rounds (the Writer append-into-existing-Buffer reuse
// path; see common/serialize.h).
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/serialize.h"
#include "core/red_obj.h"
#include "simmpi/communicator.h"

namespace smart {

/// Per-call accounting, folded into RunStats by the scheduler.
struct MapCombineStats {
  std::size_t map_serializes = 0;    ///< full-map serialize_map passes (tree: ≤1)
  std::size_t map_deserializes = 0;  ///< full-map deserialize_map passes (tree: ≤1)
  std::size_t map_merges = 0;        ///< peer entries absorbed into the live map
  std::size_t bytes_encoded = 0;     ///< serialized bytes this rank produced
  std::size_t wire_bytes = 0;        ///< payload bytes this rank shipped
  double codec_seconds = 0.0;        ///< time in serialize/deserialize/absorb
  /// Round shape that ran: "tree" | "ft_tree" | "none" (static strings;
  /// "none" = trivial single-rank round).
  const char* algorithm = "none";
};

class MapCombiner {
 public:
  /// In-place allreduce of `map` across `comm` using the app's merge().
  /// Collective: every rank of `comm` must call it with the same
  /// `peer_timeout_seconds`.  On return every rank holds the identical
  /// global map.
  ///
  /// With `peer_timeout_seconds > 0` the round is fault-tolerant: every
  /// receive is bounded and a silent peer raises simmpi::PeerUnreachable
  /// (possibly leaving this rank's map partially merged — callers roll
  /// back and retry; core/scheduler.h does).  The fault-tolerant round is
  /// tagged by the recovery round (see begin_recovery_round), so a payload
  /// from round r can never be consumed by round r+1.
  MapCombineStats allreduce(simmpi::Communicator& comm, CombinationMap& map, const MergeFn& merge,
                            double peer_timeout_seconds = 0.0);

  /// Starts a fresh fault-tolerant round (a new tag namespace).  Call it
  /// exactly once per *logical* combination round, before the first
  /// attempt — NOT per retry.  Ranks advance rounds in lockstep because
  /// every rank makes the same sequence of combination calls; attempts
  /// cannot be kept in lockstep (survivors abort at different times: a
  /// rank waiting on the dead peer fails instantly, one waiting on a live
  /// but stalled peer only after its full timeout), so retried and
  /// degraded attempts of one round deliberately share its tags.  That
  /// sharing is safe because callers roll back to their pre-round map
  /// before resending: any duplicate payload is byte-identical, and each
  /// tree position consumes at most one payload per source per attempt.
  void begin_recovery_round() { ++ft_round_; }

  /// Degraded allreduce over a subset of `comm`'s ranks (the survivors of
  /// a failed round, from Communicator::alive_ranks()).  Collective over
  /// exactly the ranks listed in `alive` (ascending, containing this
  /// rank); dead ranks are simply absent from the rebuilt tree.
  MapCombineStats allreduce_surviving(simmpi::Communicator& comm, const std::vector<int>& alive,
                                      CombinationMap& map, const MergeFn& merge,
                                      double peer_timeout_seconds);

 private:
  /// Binomial reduction of `map` to ranks[0] over the communicator ranks
  /// listed in `ranks` (this rank among them), on `tag`; every receive is
  /// bounded by `timeout_seconds` when it is > 0.  The one reduction both
  /// round shapes run, so they merge in the same order.
  void reduce_to_first(simmpi::Communicator& comm, const std::vector<int>& ranks,
                       CombinationMap& map, const MergeFn& merge, int tag,
                       double timeout_seconds, MapCombineStats& stats);
  /// The fault-tolerant round over `ranks`: reduce_to_first on the
  /// recovery round's reduce tag, then ranks[0] sends the merged map
  /// straight to every other listed rank on its result tag.  Every receive
  /// is bounded by `timeout_seconds` (> 0).
  void reduce_and_fan_out(simmpi::Communicator& comm, const std::vector<int>& ranks,
                          CombinationMap& map, const MergeFn& merge, double timeout_seconds,
                          MapCombineStats& stats);
  /// Serializes `map` into wire_ under a codec.encode span, updates the
  /// encode counters, and hands the bytes out for sending.
  Buffer encode(const CombinationMap& map, MapCombineStats& stats);

  /// Readies wire_ for a fresh encode: clears it when its capacity is still
  /// here, re-acquires from the BufferPool (sized by the largest encode seen
  /// so far) after a send moved the storage away.
  void prepare_wire();

  Buffer wire_;  ///< reused encode buffer (pool-backed once shipped)
  std::size_t wire_hint_ = 0;  ///< largest encode so far, sizes pool acquires
  int ft_round_ = 0;  ///< fault-tolerant round counter (tag namespace; see begin_recovery_round)
  std::int64_t combine_round_ = 0;  ///< lifetime allreduce count, stamped on combine.* spans
};

}  // namespace smart
