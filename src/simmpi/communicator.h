// SPMD communicator: the MPI stand-in the Smart runtime is written against.
//
// Programming model (the subset of the LLNL MPI tutorial's "most MPI
// programs can be written with" that the runtime uses): explicit rank/size,
// tagged point-to-point send/recv (blocking or timed), barrier, broadcast,
// reduce, allreduce, and communicator splitting (MPI_Comm_split) for
// group-local collectives — e.g. a simulation sub-communicator next to
// staging ranks.  All payloads are serialized byte buffers
// (common/serialize.h).
//
// Virtual time model (see DESIGN.md §1): each rank carries a virtual clock.
// Compute advances it by the rank thread's measured CPU time, which covers
// leg 0 of each parallel region (threading/thread_pool.h); advance_region()
// adds the rest of the region's slowest leg; messages carry the sender's
// clock, and a receive sets
//   vclock = max(vclock, (send vclock + alpha) + bytes / beta)
// — the flat alpha–beta interconnect cost (simmpi/network.h), the same for
// every pair of ranks.  The maximum final clock across ranks is the run's
// virtual makespan: the wall time an ideal one-core-per-rank cluster would
// have shown.  A sender stalled by lane backpressure (simmpi/mailbox.h) charges
// the stall to its clock too.  Split communicators share the owning rank's
// clock (they are views over the same thread).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "common/timing.h"
#include "simmpi/mailbox.h"

namespace smart::simmpi {

class World;

/// Process-wide count of payload bytes physically copied by the transport
/// (send-side copy-in for lvalue sends, receive-side materialization of
/// shared fan-out payloads into an owning Buffer).  Always on — the
/// transport benches diff it around a run to prove fan-out sends share
/// bytes instead of duplicating them.
std::uint64_t payload_bytes_copied();

namespace detail {
/// Per-rank-thread state shared by a world communicator and every
/// communicator split from it: one clock, one traffic counter.
struct RankState {
  double vclock = 0.0;
  double last_cpu = 0.0;
  std::size_t bytes_sent = 0;
  /// Wall seconds this rank's sends spent blocked on full destination
  /// lanes (backpressure); also folded into vclock as it accrues.
  double send_stall_seconds = 0.0;
};
}  // namespace detail

/// Handle a rank uses to talk to its peers.  A communicator is either the
/// world view (ranks 0..N-1) or a split view over a subset; both are owned
/// by the rank's thread and not shareable across threads.
class Communicator {
 public:
  Communicator(World& world, int world_rank);

  /// This rank's id within this communicator (group rank for splits).
  int rank() const { return rank_; }
  int size() const;
  /// This rank's id in the world (stable across splits).
  int world_rank() const { return world_rank_; }

  // --- point to point (peer ids are ranks *within this communicator*) -----
  /// Ships a copy of `payload` (the copy is made once, into a pooled
  /// buffer, and counted in payload_bytes_copied).  Prefer the rvalue
  /// overload or send_shared when the bytes need not survive the call.
  void send(int dest, int tag, const Buffer& payload);
  /// Zero-copy send: the buffer is moved into a shared payload.
  void send(int dest, int tag, Buffer&& payload);
  /// Fan-out send: every destination handed the same SharedBuffer shares
  /// one immutable serialized payload — serialize once, copy never.
  /// Receivers still deserialize individually (see simmpi/mailbox.h).
  void send_shared(int dest, int tag, SharedBuffer payload);
  /// Blocking receive; fills source/tag of the matched message if requested.
  Buffer recv(int source, int tag, int* actual_source = nullptr, int* actual_tag = nullptr);
  /// Blocking receive that keeps the payload shared: no materializing copy
  /// even when the sender fanned the same bytes out to several ranks.
  /// Never null (empty messages yield the canonical empty buffer).
  SharedBuffer recv_shared(int source, int tag, int* actual_source = nullptr,
                           int* actual_tag = nullptr);

  /// Timed blocking receive: raises the typed PeerUnreachable (simmpi/
  /// fault.h) once `timeout_seconds` pass without a matching message, or as
  /// soon as the awaited source rank is known dead with nothing queued —
  /// so a dead peer surfaces as a diagnosable error instead of a hang.
  /// This is the receive every fault-tolerant path is built on.
  Buffer recv_timeout(int source, int tag, double timeout_seconds, int* actual_source = nullptr,
                      int* actual_tag = nullptr);

  /// recv_timeout, but the payload stays shared (see recv_shared).
  SharedBuffer recv_shared_timeout(int source, int tag, double timeout_seconds,
                                   int* actual_source = nullptr, int* actual_tag = nullptr);

  /// False once `rank` (in this communicator) has been declared dead.
  bool peer_alive(int rank) const;

  /// Ranks of this communicator not known dead, ascending — identical on
  /// every surviving rank, which is what lets them rebuild a combination
  /// tree over the same reduced rank set without a consensus round.
  std::vector<int> alive_ranks() const;

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void send_value(int dest, int tag, const T& value) {
    Buffer buf;
    Writer(buf).write(value);
    send(dest, tag, std::move(buf));
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T recv_value(int source, int tag) {
    Buffer buf = recv(source, tag);
    return Reader(buf).read<T>();
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void send_vector(int dest, int tag, const std::vector<T>& v) {
    Buffer buf;
    Writer(buf).write_vector(v);
    send(dest, tag, std::move(buf));
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> recv_vector(int source, int tag) {
    Buffer buf = recv(source, tag);
    return Reader(buf).read_vector<T>();
  }

  // --- collectives (must be called by every rank of this communicator, in
  // --- the same order) ------------------------------------------------------
  // Every internal receive names its exact source, so per-(source, tag)
  // FIFO alone keeps successive rounds apart.  Fan-outs hand every child
  // the same immutable SharedBuffer, so payload_bytes_copied() stays flat
  // across a whole round, and results arrive still shared — receivers
  // deserialize in place.
  void barrier();
  /// Shared-payload broadcast: the root's SharedBuffer is handed down the
  /// binomial tree with every hop *sharing* the same immutable bytes —
  /// zero payload copies anywhere in the tree.  On return every rank's
  /// `data` references the root's payload (never null).  This is the
  /// fan-out primitive the heavy paths (map combination broadcast,
  /// checkpoint/result distribution) are built on.
  void bcast_shared(SharedBuffer& data, int root);
  /// Binomial-tree reduction with a user combiner; result valid at root only.
  Buffer reduce(Buffer local, int root,
                const std::function<Buffer(const Buffer&, const Buffer&)>& combine);
  /// reduce + bcast_shared: the reduced payload is moved (never copied)
  /// into a shared buffer at the root and every rank hands the same
  /// immutable bytes back (never null; empty input yields the canonical
  /// empty buffer).  Read it via Reader(result).
  SharedBuffer allreduce_shared(Buffer local,
                                const std::function<Buffer(const Buffer&, const Buffer&)>& combine);

  /// Element-wise sum allreduce over numeric vectors (the hand-written
  /// baselines' MPI_Allreduce equivalent).  Binomial tree + broadcast:
  /// latency-optimal, ships the full vector log2(n) times per rank.
  template <typename T>
  std::vector<T> allreduce_sum(const std::vector<T>& local);

  /// MPI_Comm_split: collective over this communicator.  Ranks with the
  /// same color land in one sub-communicator, ordered by (key, rank).
  /// Rank 0 collects every (color, key, rank) entry with exact-source
  /// receives and broadcasts the table; no payload byte is copied.  The
  /// returned communicator shares this rank's virtual clock.
  Communicator split(int color, int key);

  // --- virtual time --------------------------------------------------------
  /// Adds externally measured compute time to this rank's virtual clock.
  void advance(double seconds);
  /// Charges a parallel region's slowest leg, given each leg's busy time
  /// (leg 0 first).  Leg 0 ran on this rank's thread, whose CPU time the
  /// clock charges itself, so this adds max(busy) - busy[0]; a one-leg
  /// region adds nothing.
  void advance_region(const std::vector<double>& busy);
  /// Folds the rank thread's own CPU time since the last event into the
  /// clock, then returns the clock.
  double vclock();

  /// Bytes this rank has pushed through send() on any of its communicators.
  std::size_t bytes_sent() const { return state_->bytes_sent; }

  /// Wall seconds this rank's sends have spent blocked on full destination
  /// lanes (backpressure; see simmpi/mailbox.h).
  double send_stall_seconds() const { return state_->send_stall_seconds; }

 private:
  Communicator(World& world, int world_rank, std::vector<int> group,
               std::shared_ptr<detail::RankState> state);

  int to_world(int rank_in_comm) const;
  int from_world(int world_rank) const;
  void charge_own_cpu();
  /// Consults the World's FaultInjector for a receive-side rule (kill or
  /// delay) before blocking on the mailbox.
  void inject_recv_faults(int world_source, int tag);
  /// The one send path: fault injection, traffic accounting, trace flow
  /// start, the alpha-beta arrival stamp, and the mailbox post (which
  /// may block on a full lane — the stall is charged to this rank's clock
  /// and the simmpi.send_stall_us histogram).  `shared` marks the payload
  /// as potentially multi-referenced so receivers copy instead of steal.
  void send_envelope(int dest, int tag, SharedBuffer payload, bool shared);
  /// Blocking matched-envelope wait shared by recv / recv_shared.
  Envelope recv_envelope(int source, int tag);
  /// Timed wait shared by recv_timeout / recv_shared_timeout; raises
  /// PeerUnreachable on deadline or a dead awaited peer.
  Envelope recv_envelope_timeout(int source, int tag, double timeout_seconds);
  /// Folds a matched envelope's arrival time into the clock and hands the
  /// payload out still shared (common to every recv flavour).
  SharedBuffer deliver_shared(Envelope& e, int* actual_source, int* actual_tag);
  /// deliver_shared + materialize an owning Buffer: moves the bytes out when
  /// this envelope is the payload's only reference (plain sends), copies —
  /// and counts the copy — when the payload is shared (fan-out/duplicate).
  Buffer deliver(Envelope e, int* actual_source, int* actual_tag);

  World& world_;
  int world_rank_;
  int rank_;                ///< rank within group_ (== world_rank_ for world view)
  std::vector<int> group_;  ///< group rank -> world rank; empty = world view
  std::shared_ptr<detail::RankState> state_;
};

template <typename T>
std::vector<T> Communicator::allreduce_sum(const std::vector<T>& local) {
  Buffer mine;
  Writer(mine).write_vector(local);
  const SharedBuffer out = allreduce_shared(std::move(mine), [](const Buffer& a, const Buffer& b) {
    std::vector<T> va = Reader(a).read_vector<T>();
    const std::vector<T> vb = Reader(b).read_vector<T>();
    if (va.size() != vb.size()) {
      throw std::runtime_error("allreduce_sum: mismatched vector lengths");
    }
    for (std::size_t i = 0; i < va.size(); ++i) va[i] += vb[i];
    Buffer merged;
    Writer(merged).write_vector(va);
    return merged;
  });
  return Reader(out).read_vector<T>();
}

}  // namespace smart::simmpi
