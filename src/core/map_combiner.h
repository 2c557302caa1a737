// MapCombiner: single-pass global combination of CombinationMaps over a
// simmpi communicator (paper Algorithm 1, lines 11-17).
//
// The naive implementation passes a Buffer×Buffer→Buffer lambda to
// Communicator::allreduce_shared, which pays deserialize_map + merge +
// serialize_map at *every* hop of the binomial reduction tree — O(log n)
// redundant codec passes per rank per round.  MapCombiner instead keeps the
// merged state as a live CombinationMap at interior tree nodes and only
// touches serialized Buffers at rank boundaries:
//
//   * tree (latency-optimal, the default): a rank absorbs each child's wire
//     payload directly into its live map (absorb_serialized_map — no
//     intermediate map, no re-serialize), serializes its merged map exactly
//     once when it hands the result up (or, at the root, for the
//     broadcast), and deserializes exactly once when the broadcast result
//     arrives (the root not at all).  Per rank per round: ≤1 serialize_map,
//     ≤1 deserialize_map, and the merge schedule is bit-identical to the
//     Buffer-lambda path.
//   * ring (bandwidth-optimal): keys are partitioned into `size()` segments
//     by floor-modulo; a reduce-scatter leaves each rank with one globally
//     merged segment, then an allgather circulates the finished segments —
//     forwarding the received bytes verbatim, with no re-encode.  Each rank
//     ships ~2·S/n·(n-1) bytes regardless of depth (vs the tree's root
//     shipping S·log n).  Codec work is per segment, so the full-map codec
//     counters stay at zero; the cost is visible in codec_seconds /
//     wire_bytes.
//   * direct: the tree's binomial reduce to rank 0, then the root fans the
//     shared result straight to every peer (one serialize, zero per-peer
//     copies).  The fault-tolerant round is the same code over a rank list
//     (all ranks, or the survivors) with every receive timed.
//   * auto: plan-driven.  Below the measured flat-model crossover
//     (kDefaultRingCrossoverBytes, from bench/micro_core_ops
//     BM_MapCombineAlgorithms) the tree always wins — that regime is
//     codec/latency-bound and topology-independent — so the crossover acts
//     as a floor.  Above it, simmpi::CollectivePlanner prices tree, ring,
//     and direct with the active NetworkModel's contention-free per-link
//     estimates and the cheapest runs (see simmpi/collective.h).  Because
//     every rank must pick the same algorithm, the byte estimate is the
//     previous round's *global* map footprint (identical on all ranks once
//     a round has completed) and, on the very first round, a scalar
//     allreduce_max consensus over the local footprints; the plan itself
//     is a pure function of shared state, so no further messages.
//
// One MapCombiner lives per scheduler so its wire buffer's capacity and the
// agreed size estimate persist across rounds (the Writer append-into-
// existing-Buffer reuse path; see common/serialize.h).
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/serialize.h"
#include "core/red_obj.h"
#include "simmpi/collective.h"
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
  bool used_ring = false;
  /// Algorithm that ran: "tree" | "ring" | "direct" | "ft_tree" | "none"
  /// (static strings; "none" = trivial single-rank round).
  const char* algorithm = "none";
};

class MapCombiner {
 public:
  enum class Algorithm { kAuto, kTree, kRing, kDirect };

  /// Auto crossover: serialized maps estimated larger than this go over the
  /// ring.  Default from bench/micro_core_ops BM_MapCombineAlgorithms on
  /// the container (tree wins below ~64 KiB where latency dominates).
  static constexpr std::size_t kDefaultRingCrossoverBytes = 64 * 1024;

  explicit MapCombiner(Algorithm algorithm = Algorithm::kAuto,
                       std::size_t ring_crossover_bytes = kDefaultRingCrossoverBytes)
      : algorithm_(algorithm), ring_crossover_bytes_(ring_crossover_bytes) {}

  Algorithm algorithm() const { return algorithm_; }
  void set_algorithm(Algorithm algorithm) { algorithm_ = algorithm; }

  /// In-place allreduce of `map` across `comm` using the app's merge().
  /// Collective: every rank of `comm` must call it with the same algorithm
  /// configuration.  On return every rank holds the identical global map.
  ///
  /// With `peer_timeout_seconds > 0` the round is fault-tolerant: every
  /// receive is bounded and a silent peer raises simmpi::PeerUnreachable
  /// (possibly leaving this rank's map partially merged — callers roll
  /// back and retry; core/scheduler.h does).  The fault-tolerant round
  /// always uses the tree, tagged by the recovery round (see
  /// begin_recovery_round), so a payload from round r can never be
  /// consumed by round r+1.
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
  /// Picks this round's algorithm (see the auto bullet in the file
  /// comment).  Collective when the consensus fallback fires; otherwise
  /// message-free.
  simmpi::CollectiveAlgo plan(simmpi::Communicator& comm, const CombinationMap& map);
  void ring_allreduce(simmpi::Communicator& comm, CombinationMap& map, const MergeFn& merge,
                      MapCombineStats& stats);
  /// Binomial reduction of `map` to ranks[0] over the communicator ranks
  /// listed in `ranks` (this rank among them), on `tag`; every receive is
  /// bounded by `timeout_seconds` when it is > 0.  The one reduction every
  /// non-ring algorithm runs, so they all merge in the same order.
  void reduce_to_first(simmpi::Communicator& comm, const std::vector<int>& ranks,
                       CombinationMap& map, const MergeFn& merge, int tag,
                       double timeout_seconds, MapCombineStats& stats);
  /// reduce_to_first on `reduce_tag`, then ranks[0] sends the merged map
  /// straight to every other listed rank on `result_tag` — the direct
  /// algorithm, and (with the recovery round's tags and a timeout) the
  /// fault-tolerant round.
  void reduce_and_fan_out(simmpi::Communicator& comm, const std::vector<int>& ranks,
                          CombinationMap& map, const MergeFn& merge, int reduce_tag,
                          int result_tag, double timeout_seconds, MapCombineStats& stats);
  /// Serializes `map` into wire_ under a codec.encode span, updates the
  /// encode counters, and hands the bytes out for sending.
  Buffer encode(const CombinationMap& map, MapCombineStats& stats);

  /// Readies wire_ for a fresh encode: clears it when its capacity is still
  /// here, re-acquires from the BufferPool (sized by the largest encode seen
  /// so far) after a send moved the storage away.
  void prepare_wire();

  Algorithm algorithm_;
  std::size_t ring_crossover_bytes_;
  Buffer wire_;  ///< reused encode buffer (pool-backed once shipped)
  std::size_t wire_hint_ = 0;  ///< largest encode so far, sizes pool acquires
  MapSegmentIndex seg_index_;  ///< ring per-round key/segment index (allocations reused)
  std::size_t agreed_footprint_ = 0;  ///< global map footprint after the last round
  bool have_agreed_footprint_ = false;
  int ft_round_ = 0;  ///< fault-tolerant round counter (tag namespace; see begin_recovery_round)
  std::int64_t combine_round_ = 0;  ///< lifetime allreduce count, stamped on combine.* spans
};

}  // namespace smart
