// The simulated interconnect: simmpi's one message cost model, plus the
// transport settings that travel with it.
//
// Computation in simmpi is *emulated* (rank threads really run it, and the
// virtual clock charges measured CPU time); communication is *modeled* — a
// message of `bytes` departing at the sender's virtual time `depart` arrives
// at
//   arrival = (depart + alpha) + bytes / beta
// whichever two ranks it joins, and the receiver's clock can never observe
// the payload earlier than that (NetworkConfig::arrival_vtime).  The cost is
// stateless, so every arrival stamp is exact and reproducible.
//
// The config also carries the transport's flow-control knobs (per-lane
// mailbox capacity; see simmpi/mailbox.h) and the deterministic schedule
// settings (simmpi/schedule.h), so one object describes the whole
// interconnect.  Every field can be overridden from the environment
// (NetworkConfig::from_env), which is how zero-code-change binaries (fig
// harnesses, examples) pick a setting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace smart::simmpi {

/// Declarative description of the simulated interconnect.  Plain data so
/// call sites can use designated initializers; World validates it.
struct NetworkConfig {
  double alpha_seconds = 2e-6;         ///< per-message latency
  double beta_bytes_per_second = 5e9;  ///< link bandwidth

  // Flow control (simmpi/mailbox.h): a destination (source, tag) lane
  // holding at least this many messages / bytes blocks further posts from
  // the sender until the receiver drains it (an empty lane always accepts
  // one message, so flow control can throttle but never wedge a pipeline).
  // 0 disables the respective bound.
  std::size_t lane_capacity_msgs = 512;
  std::size_t lane_capacity_bytes = 32u * 1024 * 1024;

  // Deterministic schedule exploration (simmpi/schedule.h).  Non-empty
  // sched_policy turns the mode on: every cross-rank delivery decision is
  // serialized through a ScheduleController driven by the named policy
  // (fifo | random | reorder | replay).  sched_seed seeds random, indexes
  // reorder's bounded perturbation, and is stamped into traces; sched_trace
  // is the recorded delivery string replay reproduces bit-exactly.
  std::string sched_policy;  ///< "" or "off" = normal nondeterministic mode
  std::uint64_t sched_seed = 0;
  std::string sched_trace;

  /// Virtual arrival time of `bytes` departing at the sender's virtual time
  /// `depart_vtime`: (depart + alpha) + bytes / beta.
  double arrival_vtime(std::size_t bytes, double depart_vtime) const {
    return depart_vtime + alpha_seconds + static_cast<double>(bytes) / beta_bytes_per_second;
  }

  /// Throws std::invalid_argument naming the field when alpha is negative
  /// or not finite, or beta is not finite and > 0.
  void validate() const;

  /// Defaults overridden by SMART_NET_ALPHA, SMART_NET_BETA,
  /// SMART_NET_LANE_CAP (messages), SMART_NET_LANE_CAP_BYTES,
  /// SMART_SCHED_POLICY, SMART_SCHED_SEED and SMART_SCHED_TRACE.  Doubles
  /// must be finite and >= 0, lane caps and the seed whole numbers in
  /// [0, LONG_MAX]; anything else, or any other non-empty SMART_NET_*
  /// variable, throws std::invalid_argument naming the variable.
  static NetworkConfig from_env();
};

}  // namespace smart::simmpi
