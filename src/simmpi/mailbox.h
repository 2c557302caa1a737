// Per-rank mailbox: the only channel through which simmpi ranks exchange
// data.  Payloads are serialized byte buffers, so anything crossing a rank
// boundary pays the same serialization cost it would pay under real MPI.
// Fan-out sends may *share* one immutable serialized payload across
// destinations (SharedBuffer): the bytes were still produced by exactly one
// serialize pass per logical message and every receiver still deserializes
// them independently, so the fidelity rule above is preserved — only the
// redundant per-child byte copies are gone.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/serialize.h"

namespace smart::simmpi {

class ScheduleController;

constexpr int kAnySource = -1;
/// Matches any *user* tag (>= 0) only.  Negative tags are the runtime's
/// internal collective traffic, which MPI keeps in a separate context: a
/// user wildcard receive must not consume the barrier message of a peer
/// that has already moved on to a collective.
constexpr int kAnyTag = -0x7fffffff;

/// A message in flight: sender rank, user tag, payload, and the sender's
/// virtual-clock timestamp (see communicator.h for the time model).
struct Envelope {
  int source = 0;
  int tag = 0;
  double vtime = 0.0;         ///< sender's virtual clock at departure
  double arrival_vtime = 0.0; ///< alpha-beta arrival (stamped by send_envelope)
  /// Serialized bytes; null means an empty payload.  Immutable once posted.
  SharedBuffer payload;
  std::uint64_t flow_id = 0;  ///< nonzero links send→recv trace flow events
  /// Arrival order within the destination mailbox (assigned by post);
  /// any-source receives merge lanes by this, preserving global FIFO.
  std::uint64_t seq = 0;
  /// True when the payload is (or may be) referenced by other envelopes —
  /// a fan-out send or a duplicated fault.  Receivers must copy rather
  /// than steal the bytes when materializing an owning Buffer.
  bool shared_payload = false;

  std::size_t size() const { return payload.size(); }
  /// The payload (null → a zero-length view).
  const SharedBuffer& bytes() const { return payload; }
};

/// MPMC queue with MPI-style (source, tag) matching.
///
/// Messages are sharded into per-(source, tag) *lanes*: an exact receive
/// indexes its lane directly instead of scanning every pending message, a
/// wildcard receive merges the (few) active lanes by arrival sequence
/// number, and FIFO per (source, tag) — MPI's non-overtaking guarantee —
/// holds trivially because a lane is a FIFO.  Blocked receivers register a
/// per-waiter selector, and post() wakes only a receiver whose selector
/// can match the new message (one per message — an unsignaled waiter has,
/// by construction, already verified nothing queued matches it), replacing
/// the old notify_all stampede that woke every receiver for every post.
///
/// Lanes are unbounded and post() never blocks: simmpi models the cost of
/// communication (simmpi/network.h), not an interconnect's buffer limits.
/// The one bounded stream in Smart is the paper's own — the space-sharing
/// circular buffer (threading/circular_buffer.h), whose producer blocks
/// when every cell is full.
class Mailbox {
 public:
  /// Puts this mailbox in deterministic-schedule mode (simmpi/schedule.h):
  /// receive paths pump `sched` for rank `rank` (this mailbox's owner)
  /// before blocking, so envelopes the controller holds are committed in
  /// policy order exactly when a receiver needs traffic.  World wires this
  /// before any traffic flows; null restores normal mode.
  void set_schedule(ScheduleController* sched, int rank);

  /// Enqueues e and wakes one receiver it can satisfy; never blocks.  In
  /// deterministic-schedule mode only ScheduleController::pump calls this,
  /// committing each held envelope in policy order.
  void post(Envelope e);

  /// Scheduled-mode wake-up (ScheduleController::submit only): signals one
  /// blocked receiver whose selector matches a newly *held* message so it
  /// re-pumps the controller.  The message itself is not yet queued here.
  void notify_scheduled(int source, int tag);

  /// Blocks until a matching message arrives.
  Envelope receive(int source, int tag);

  /// Timed blocking receive: waits up to `timeout` for a matching message,
  /// std::nullopt once the deadline passes.  This is the primitive the
  /// fault-tolerant paths are built on — a dead peer becomes a bounded
  /// wait instead of a hang (Communicator::recv_timeout raises the typed
  /// PeerUnreachable on top of it).
  std::optional<Envelope> receive_for(int source, int tag, std::chrono::nanoseconds timeout);

  /// Non-blocking probe-and-take; Communicator::recv_timeout polls with it
  /// between its bounded waits.
  std::optional<Envelope> try_receive(int source, int tag);

  /// Wakes every blocked receiver so it re-evaluates its wait condition
  /// (used by World::mark_rank_dead to cut short waits on a dead peer).
  void poke();

  std::size_t pending() const;

  /// Active (non-empty) lanes; lanes are erased as they drain, so this is
  /// the number of distinct (source, tag) pairs with messages queued.
  std::size_t lane_count() const;

  /// Lane heads that receives have examined, summed over this mailbox's
  /// lifetime: an exact (source, tag) receive counts the one lane it pops,
  /// and a wildcard receive counts each head its walk compares against the
  /// selector — at most lane_count(), never one per queued message.
  std::uint64_t heads_examined() const;

 private:
  struct Lane {
    int source = 0;
    int tag = 0;
    std::deque<Envelope> q;
  };

  /// One blocked receiver: its selector plus a private wake token, so a
  /// post can signal exactly the receivers its message can satisfy.
  struct Waiter {
    Waiter(int source_sel, int tag_sel) : source(source_sel), tag(tag_sel) {}
    int source;
    int tag;
    std::condition_variable cv;
    bool signaled = false;
  };

  static bool selector_matches(int sel_source, int sel_tag, int source, int tag) {
    return (sel_source == kAnySource || sel_source == source) &&
           (sel_tag == kAnyTag ? tag >= 0 : sel_tag == tag);
  }

  static std::uint64_t lane_key(int source, int tag) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(source)) << 32) |
           static_cast<std::uint32_t>(tag);
  }

  /// Wakes one unsignaled waiter whose selector matches (source, tag); the
  /// caller holds mu_.
  void wake_matching_waiter_locked(int source, int tag);

  std::optional<Envelope> take_locked(int source, int tag);
  void unregister_locked(Waiter* w);

  /// Scheduled-mode receive loops: pump the controller (never while
  /// holding mu_ — lock order is controller first, then mailbox), then
  /// take; block armed against the submit/commit wake-ups in between.
  Envelope receive_scheduled(int source, int tag);
  std::optional<Envelope> receive_for_scheduled(int source, int tag,
                                                std::chrono::nanoseconds timeout);

  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, Lane> lanes_;
  std::vector<Waiter*> waiters_;
  std::uint64_t next_seq_ = 0;
  std::size_t pending_ = 0;
  /// Payload bytes queued across all lanes (the simmpi.mailbox_bytes_peak
  /// gauge's source).
  std::size_t pending_bytes_ = 0;
  std::uint64_t heads_examined_ = 0;
  /// Deterministic-schedule mode (null = normal).  Set before traffic
  /// flows and never changed mid-run, so reads need no synchronization.
  ScheduleController* sched_ = nullptr;
  int sched_rank_ = -1;  ///< this mailbox's world rank (the pump target)
};

}  // namespace smart::simmpi
