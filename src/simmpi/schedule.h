// Deterministic schedule exploration for simmpi.
//
// Ranks are real threads, so the order in which concurrent messages land in
// a destination mailbox — the seq numbers any-source receives merge lanes
// by — is normally decided by the OS scheduler.  TSan only checks the
// interleavings a run happens to hit; the round-aliasing and barrier bugs
// of earlier PRs shipped precisely because the buggy orders were rare.
//
// The ScheduleController turns that arrival order into a *decision*:
// when installed on a World, every cross-rank delivery
// (Communicator::send_envelope) is submitted to the controller instead of
// posted straight into the destination mailbox.  Submitted envelopes are
// *held* — grouped per (source, tag) lane so MPI's non-overtaking
// guarantee is never violated — and committed to the mailbox only when a
// receiver on that rank needs traffic (Mailbox pumps the controller before
// blocking).  Each commit is one schedulable event: a SchedulePolicy looks
// at the heads of all held lanes for the destination and picks which one
// is delivered next.  The legal nondeterminism of the transport — arrival
// interleaving *across* (source, tag) lanes — is thereby serialized
// through one virtual-time event queue and can be driven:
//
//   * fifo    — submission order (the baseline; matches an idle machine),
//   * random  — seeded uniform choice among concurrent heads: samples the
//               schedule space reproducibly-in-distribution,
//   * reorder — bounded systematic perturbation: the seed is decoded as a
//               mixed-radix decision string, so enumerating seeds 0..N-1
//               walks distinct bounded reorderings of the concurrent
//               events (seed 0 == fifo),
//   * replay  — commits each destination's deliveries in the exact order
//               of a previously recorded trace, holding events (and hence
//               their receivers) until the expected message is submitted.
//
// Every commit is recorded (dest, source, tag, arrival_vtime); the record
// serializes to a compact trace string that `replay` consumes — a failing
// explored schedule reproduces bit-exactly from that one string
// (`smart_cli --schedule replay --schedule-trace ...`; the property
// harness in tests/test_schedule_explore.cpp prints it on failure).
//
// Under a controller, wall-clock-dependent behavior is made virtual so
// replays are exact: sender backpressure stalls are skipped (delivery
// order is the controller's job) and FaultAction::kDelay charges the
// virtual clock without sleeping — fault delays become scheduled events
// whose interleavings the policies explore like any other.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "simmpi/mailbox.h"
#include "simmpi/network.h"

namespace smart::simmpi {

/// One held cross-rank delivery, as shown to a SchedulePolicy: the head of
/// a (source, tag) lane of `dest`'s pending set.
struct PendingDelivery {
  int dest = 0;
  int source = 0;
  int tag = 0;
  std::uint64_t submit_seq = 0;  ///< global submission order (process-wide)
  double arrival_vtime = 0.0;    ///< alpha-beta arrival stamp
};

/// One committed delivery, in commit order.  (dest, source, tag) identifies
/// the lane; per-lane FIFO pins which message it was, so the triple is the
/// whole replay token.  arrival_vtime rides along for in-process invariant
/// checks (per-lane virtual-clock monotonicity) and is not serialized.
struct DeliveryRecord {
  int dest = 0;
  int source = 0;
  int tag = 0;
  double arrival_vtime = 0.0;

  bool same_lane(const DeliveryRecord& o) const {
    return dest == o.dest && source == o.source && tag == o.tag;
  }
};

/// Decides which held lane head is committed next.  Called under the
/// controller's mutex — implementations need no synchronization of their
/// own, and their internal state (rng stream, decision digits, replay
/// cursor) advances deterministically with the decision sequence.
class SchedulePolicy {
 public:
  /// pick() may return kHold to keep every head held until more traffic is
  /// submitted.  Only policies that can *guarantee* the expected event is
  /// still coming may hold (replay; a test policy gating on its own
  /// signal): the pumping receiver blocks until the next submission.
  static constexpr std::size_t kHold = ~std::size_t{0};

  virtual ~SchedulePolicy() = default;
  virtual const char* name() const = 0;

  /// Chooses among `heads` (the held lane heads for one destination,
  /// sorted by submit_seq ascending, never empty) the event committed
  /// next.  `force` is true when a receiver on the destination is out of
  /// matching queued messages and about to block — a policy with no
  /// specific event to wait for should then always pick.
  virtual std::size_t pick(const std::vector<PendingDelivery>& heads, bool force) = 0;
};

/// Factory for the named built-in policies (fifo | random | reorder |
/// replay).  `seed` drives random/reorder; `trace` is the recorded
/// delivery string replay consumes.  Throws std::invalid_argument on an
/// unknown name.
std::shared_ptr<SchedulePolicy> make_schedule_policy(const std::string& name, std::uint64_t seed,
                                                     const std::string& trace = "");

/// The virtual-time event queue all cross-rank delivery decisions pass
/// through when deterministic mode is on (see file comment).  Thread-safe;
/// one per World.
class ScheduleController {
 public:
  explicit ScheduleController(std::shared_ptr<SchedulePolicy> policy, bool record = true,
                              std::uint64_t seed = 0);

  ScheduleController(const ScheduleController&) = delete;
  ScheduleController& operator=(const ScheduleController&) = delete;

  /// Wires the controller to the world's mailboxes (World does this before
  /// any traffic flows).  boxes[r] is rank r's mailbox.
  void attach(std::vector<Mailbox*> boxes);

  /// Takes ownership of one cross-rank delivery decision: the envelope is
  /// held in its (source, tag) lane for `dest` and a receiver that may be
  /// blocked on the destination mailbox is woken so it pumps.  Called by
  /// Communicator::send_envelope in place of Mailbox::post.
  void submit(int dest, Envelope e);

  /// Commits held deliveries for `dest` in policy order until the held set
  /// is empty or the policy holds.  Called by the destination mailbox's
  /// receive paths before they block (never with the mailbox lock held —
  /// the controller's lock is always taken first).  Returns the number of
  /// deliveries committed.
  std::size_t pump(int dest, bool force);

  /// Test/CLI hook: pump a destination from outside a receive path (e.g.
  /// after a gating test policy opens).
  std::size_t kick(int dest) { return pump(dest, /*force=*/true); }

  /// Deliveries committed so far (proof the controller was in the path).
  std::uint64_t deliveries() const;

  /// Envelopes currently held (diagnostics; 0 once every receiver drained).
  std::size_t held() const;

  /// The commit log, in commit order (empty when record=false).
  std::vector<DeliveryRecord> trace() const;

  /// Serializes trace() as "dest.source.tag;..." — the string `replay`
  /// parses.  Stable across runs that committed the same per-lane orders.
  std::string trace_string() const;

  /// Parses a trace_string(); throws std::invalid_argument on malformed
  /// input.
  static std::vector<DeliveryRecord> parse_trace(const std::string& s);

  const char* policy_name() const { return policy_->name(); }
  std::uint64_t seed() const { return seed_; }

 private:
  struct Lane {
    int source = 0;
    int tag = 0;
    std::deque<Envelope> q;
    std::uint64_t head_submit_seq = 0;
  };
  /// Held lanes of one destination, keyed like the mailbox's lanes.
  struct DestState {
    std::map<std::uint64_t, Lane> lanes;  // ordered: deterministic iteration
    std::size_t held = 0;
  };

  std::shared_ptr<SchedulePolicy> policy_;
  const bool record_;
  const std::uint64_t seed_;

  mutable std::mutex mu_;
  std::vector<Mailbox*> boxes_;
  std::vector<DestState> dests_;
  std::uint64_t next_submit_seq_ = 0;
  std::uint64_t committed_ = 0;
  std::size_t held_total_ = 0;
  std::vector<DeliveryRecord> records_;
};

/// Builds a controller from the NetworkConfig's sched_* fields, or null
/// when cfg.sched_policy is empty/"off" (the normal, non-deterministic
/// mode).  World calls this when no controller was injected explicitly.
std::shared_ptr<ScheduleController> make_schedule_controller(const NetworkConfig& cfg);

}  // namespace smart::simmpi
