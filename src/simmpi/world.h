// World: the set of ranks in one SPMD launch, their mailboxes, and the
// launch() entry point that spawns a thread per rank.
//
// Fault model (see simmpi/fault.h): a World optionally carries a
// FaultInjector whose rules the communicators consult on every send/recv,
// and tracks which ranks have died.  A rank killed by a kKillRank rule
// unwinds its thread, is marked dead here (waking every blocked timed
// receiver), and is reported in LaunchStats::ranks_killed rather than
// rethrown as an error — the surviving ranks' outcome is the launch's
// outcome, which is the whole point of fault-tolerant analytics.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "simmpi/communicator.h"
#include "simmpi/fault.h"
#include "simmpi/mailbox.h"
#include "simmpi/network.h"
#include "simmpi/schedule.h"

namespace smart::simmpi {

class World {
 public:
  /// Validates `net` (NetworkConfig::validate: std::invalid_argument
  /// naming the bad field) and applies its lane capacities to every rank's
  /// mailbox, before any traffic flows.
  World(int nranks, NetworkConfig net);

  int size() const { return static_cast<int>(mailboxes_.size()); }
  Mailbox& mailbox(int rank) { return *mailboxes_.at(static_cast<std::size_t>(rank)); }
  /// The interconnect every send of this world is priced on.
  const NetworkConfig& network() const { return net_; }

  /// Installs the shared fault-injection rule set (null = fault-free).
  void set_fault_injector(std::shared_ptr<FaultInjector> faults) { faults_ = std::move(faults); }
  FaultInjector* faults() const { return faults_.get(); }

  /// Installs (or, with null, removes) the deterministic schedule
  /// controller and wires every mailbox to it.  The World constructor
  /// already does this automatically when the network config's
  /// sched_policy is set; call this only to inject a custom controller
  /// (e.g. a test policy), and only before any traffic flows.
  void set_schedule(std::shared_ptr<ScheduleController> sched);
  ScheduleController* schedule() const { return sched_.get(); }

  /// Declares a rank dead: wakes every blocked timed receiver so waits on
  /// the dead peer resolve to PeerUnreachable instead of their full
  /// timeout, and marks the rank's own mailbox dead so senders blocked on
  /// its full lanes (backpressure) release instead of hanging forever.
  void mark_rank_dead(int rank);
  bool rank_dead(int rank) const;

 private:
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  NetworkConfig net_;
  std::shared_ptr<FaultInjector> faults_;
  std::shared_ptr<ScheduleController> sched_;
  mutable std::mutex dead_mu_;
  std::vector<bool> dead_;
};

/// Outcome of one SPMD launch: per-rank final virtual clocks and traffic.
struct LaunchStats {
  std::vector<double> rank_vtime;
  std::vector<std::size_t> rank_bytes_sent;
  /// Wall seconds each rank's sends spent blocked on full destination
  /// lanes (backpressure); all zeros when no lane ever filled.
  std::vector<double> rank_send_stall_seconds;
  double wall_seconds = 0.0;
  /// World ranks a FaultInjector kKillRank rule terminated, ascending.
  std::vector<int> ranks_killed;

  /// Virtual makespan: what an ideal one-core-per-rank machine would show.
  double makespan() const;
  std::size_t total_bytes_sent() const;
};

/// Runs fn on nranks concurrent ranks (one thread each) and joins them.
/// Any rank exception is captured and rethrown on the caller after all
/// ranks finish or the world would deadlock otherwise.  A non-null
/// `faults` arms deterministic fault injection; ranks it kills are
/// recorded in LaunchStats::ranks_killed, not rethrown.
/// An omitted `net` means NetworkConfig::from_env(); a bad config throws
/// before any rank starts.  A non-null `sched` installs a deterministic
/// schedule controller for the launch (tests inject custom policies this
/// way); by default the world builds one itself iff the network config's
/// sched_policy says so.
LaunchStats launch(int nranks, const std::function<void(Communicator&)>& fn,
                   std::optional<NetworkConfig> net = std::nullopt,
                   std::shared_ptr<FaultInjector> faults = nullptr,
                   std::shared_ptr<ScheduleController> sched = nullptr);

/// The communicator of the calling rank thread, or nullptr outside launch().
/// This is how the Smart scheduler discovers the SPMD context it was
/// launched from (the paper's "launched from parallel code region").
Communicator* current();

namespace detail {
/// RAII setter for the thread-local current() pointer (used by launch()).
class CurrentGuard {
 public:
  explicit CurrentGuard(Communicator* comm);
  ~CurrentGuard();

 private:
  Communicator* previous_;
};
}  // namespace detail

}  // namespace smart::simmpi
