// Pluggable interconnect cost models for simmpi's virtual-time accounting.
//
// Computation in simmpi is *emulated* (rank threads really run it, and the
// virtual clock charges measured CPU time); communication is *modeled* — a
// message departing at the sender's virtual time arrives at
// NetworkModel::arrival_vtime(), and the receiver's clock can never observe
// the payload earlier than that.  The model is therefore the single place
// where "what cluster is this?" lives:
//
//   * flat       — the classic contention-free alpha-beta cost
//                  (latency + bytes/bandwidth), identical for every pair of
//                  ranks.  The default, and exactly the pre-existing model.
//   * fattree    — ranks are packed onto nodes, nodes under edge switches
//                  (pods), pods under a core layer.  Every non-local message
//                  occupies its path's links in virtual time; messages
//                  sharing a link queue behind each other, and pod-to-pod
//                  traffic crosses tapered uplinks (bandwidth =
//                  beta * uplink_bandwidth_factor).
//   * dragonfly  — nodes grouped into all-to-all-connected groups; one
//                  tapered global link per group pair
//                  (beta * global_bandwidth_factor), local links inside a
//                  group.  The topology whose global links saturate first
//                  under uniform traffic.
//   * torus      — nodes on a 2D/3D torus (torus_x × torus_y × torus_z)
//                  with nearest-neighbor links and dimension-order routing
//                  (x, then y, then z, shortest wrap direction per
//                  dimension).  Each directional link between adjacent
//                  nodes is a contended resource, so cost grows with hop
//                  distance and neighbor exchanges are the cheap pattern.
//
// The topology models track per-link occupancy ("next free" virtual time)
// under a mutex and serialize overlapping transfers store-and-forward per
// hop: queueing shows up as later arrival, which flows straight into the
// existing virtual-makespan accounting (LaunchStats::makespan).  Because
// ranks are real threads, the *order* concurrent sends reserve a shared
// link in is scheduling-dependent — contended makespans are reproducible in
// shape, not bit-exact.  The flat model is stateless and exact.
//
// The config also carries the transport's flow-control knobs (per-lane
// mailbox capacity; see simmpi/mailbox.h) so one object describes the whole
// interconnect, and every field can be overridden from the environment via
// SMART_NET_* (NetworkConfig::from_env), which is how zero-code-change
// binaries (fig harnesses, examples) pick a cluster shape.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

namespace smart::simmpi {

/// Declarative description of the simulated interconnect.  Plain data so
/// call sites can use designated initializers; make_network_model() turns
/// it into a cost engine.
struct NetworkConfig {
  std::string model = "flat";  ///< flat | fattree | dragonfly | torus

  // Base link parameters (every model).
  double alpha_seconds = 2e-6;         ///< per-message latency
  double beta_bytes_per_second = 5e9;  ///< access-link bandwidth

  // Topology shape (fattree / dragonfly).
  int ranks_per_node = 4;   ///< ranks sharing one node (and its access link)
  int nodes_per_edge = 4;   ///< fattree: nodes under one edge switch (a pod)
  int nodes_per_group = 4;  ///< dragonfly: nodes in one group
  /// Extra latency per switch hop beyond the base alpha.
  double hop_latency_seconds = 5e-7;
  /// Fattree pod uplink bandwidth as a fraction of beta (taper).
  double uplink_bandwidth_factor = 0.5;
  /// Dragonfly global (group-to-group) link bandwidth as a fraction of beta.
  double global_bandwidth_factor = 0.25;

  // Torus shape (torus model only): nodes per dimension.  torus_z = 1
  // degenerates to a 2D torus; a dimension of extent 1 contributes no hops.
  int torus_x = 4;
  int torus_y = 4;
  int torus_z = 1;

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

  /// Defaults overridden by SMART_NET_MODEL, SMART_NET_ALPHA,
  /// SMART_NET_BETA, SMART_NET_RANKS_PER_NODE, SMART_NET_NODES_PER_EDGE,
  /// SMART_NET_NODES_PER_GROUP, SMART_NET_HOP_LATENCY,
  /// SMART_NET_UPLINK_FACTOR, SMART_NET_GLOBAL_FACTOR,
  /// SMART_NET_TORUS_X, SMART_NET_TORUS_Y, SMART_NET_TORUS_Z,
  /// SMART_NET_LANE_CAP (messages), SMART_NET_LANE_CAP_BYTES,
  /// SMART_SCHED_POLICY, SMART_SCHED_SEED, SMART_SCHED_TRACE.  Integer
  /// variables must be whole numbers, node and torus shapes in
  /// [1, INT_MAX] and lane caps and the seed in [0, LONG_MAX]; anything
  /// else throws std::invalid_argument naming the variable.
  static NetworkConfig from_env();
};

/// Cost-model interface: one call per message, on the sender's thread.
/// Implementations may mutate shared contention state and must be
/// thread-safe.
class NetworkModel {
 public:
  explicit NetworkModel(NetworkConfig cfg) : cfg_(std::move(cfg)) {}
  virtual ~NetworkModel() = default;

  NetworkModel(const NetworkModel&) = delete;
  NetworkModel& operator=(const NetworkModel&) = delete;

  const NetworkConfig& config() const { return cfg_; }
  virtual const char* name() const = 0;

  /// Virtual arrival time of `bytes` sent from world rank `src` to world
  /// rank `dst`, departing at the sender's virtual time `depart_vtime`.
  virtual double arrival_vtime(int src, int dst, std::size_t bytes, double depart_vtime) = 0;

 protected:
  NetworkConfig cfg_;
};

/// Builds the cost engine named by cfg.model.  Throws std::invalid_argument
/// naming the field on an unknown model name, a latency (alpha, hop) that
/// is negative or not finite, a bandwidth (beta, uplink and global factors)
/// that is not finite and > 0, or a node/torus shape below 1.
std::shared_ptr<NetworkModel> make_network_model(NetworkConfig cfg);

/// make_network_model(NetworkConfig::from_env()) — what World uses when the
/// caller passes no model.
std::shared_ptr<NetworkModel> default_network_model();

}  // namespace smart::simmpi
