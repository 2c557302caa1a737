#include "simmpi/network.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "common/env.h"

namespace smart::simmpi {

namespace {

/// The contention-free alpha-beta model — the exact cost every message paid
/// before topologies existed, kept as the default so flat runs stay
/// bit-identical.
class FlatModel final : public NetworkModel {
 public:
  using NetworkModel::NetworkModel;
  const char* name() const override { return "flat"; }

  double arrival_vtime(int /*src*/, int /*dst*/, std::size_t bytes,
                       double depart_vtime) override {
    return depart_vtime + cfg_.alpha_seconds +
           static_cast<double>(bytes) / cfg_.beta_bytes_per_second;
  }
};

/// Shared machinery for the topology models: a table of per-link "next
/// free" virtual times.  A transfer over a link begins at
/// max(arrival-so-far, link free time) and occupies the link for
/// bytes/bandwidth — overlapping messages on a shared link queue behind
/// each other in virtual time (store-and-forward per hop).  Each model
/// only describes its route (append_path); arrival_vtime is the one walk
/// over it.
class ContentionModel : public NetworkModel {
 public:
  using NetworkModel::NetworkModel;

  double arrival_vtime(int src, int dst, std::size_t bytes, double depart_vtime) final {
    const int src_node = node_of(src);
    const int dst_node = node_of(dst);
    if (src_node == dst_node) {
      // Same node: memory-speed exchange, modeled as an uncontended flat hop.
      return depart_vtime + cfg_.alpha_seconds +
             static_cast<double>(bytes) / cfg_.beta_bytes_per_second;
    }
    std::lock_guard<std::mutex> lock(mu_);
    path_.clear();  // keeps its capacity: no allocation per message
    append_path(src_node, dst_node, path_);
    double t = depart_vtime;
    for (const PathLink& l : path_) t = traverse_locked(l.id, l.bandwidth, t, bytes);
    // Every link on the path is one switch hop (NIC injection and ejection
    // included).
    const int hops = static_cast<int>(path_.size());
    return t + cfg_.alpha_seconds + hops * cfg_.hop_latency_seconds;
  }

 protected:
  /// One physical link on a message's path, with its effective bandwidth.
  struct PathLink {
    std::uint64_t id;
    double bandwidth;
  };

  /// Appends, in order, the links a payload from `src_node` to a different
  /// `dst_node` crosses.
  virtual void append_path(int src_node, int dst_node, std::vector<PathLink>& out) const = 0;

  /// Link id namespaces (kind in the top bits, entity index below).
  enum class LinkKind : std::uint64_t {
    kNodeUp = 1,
    kNodeDown = 2,
    kEdgeUp = 3,
    kEdgeDown = 4,
    kGlobal = 5,
    kTorus = 6,  ///< directional nearest-neighbor link: index = node << 3 | dir
  };

  static std::uint64_t link_id(LinkKind kind, std::uint64_t index) {
    return (static_cast<std::uint64_t>(kind) << 56) | index;
  }

 private:
  int node_of(int rank) const { return rank / cfg_.ranks_per_node; }

  /// Occupies `link` for bytes/bandwidth starting no earlier than `t`;
  /// returns when the transfer clears the link.  Caller holds mu_.
  double traverse_locked(std::uint64_t link, double bandwidth, double t, std::size_t bytes) {
    double& next_free = link_next_free_[link];
    const double begin = std::max(t, next_free);
    const double done = begin + static_cast<double>(bytes) / bandwidth;
    next_free = done;
    return done;
  }

  std::mutex mu_;
  std::unordered_map<std::uint64_t, double> link_next_free_;  ///< guarded by mu_
  std::vector<PathLink> path_;                                ///< guarded by mu_
};

/// Fat tree: ranks on nodes, nodes under edge switches (pods), pods under
/// an ideal core.  Intra-node messages skip the network; intra-pod
/// messages cross the two node access links; pod-to-pod messages also
/// cross the source pod's uplink and the destination pod's downlink, both
/// tapered to beta * uplink_bandwidth_factor.
class FatTreeModel final : public ContentionModel {
 public:
  using ContentionModel::ContentionModel;
  const char* name() const override { return "fattree"; }

 protected:
  void append_path(int src_node, int dst_node, std::vector<PathLink>& out) const override {
    const int src_pod = src_node / cfg_.nodes_per_edge;
    const int dst_pod = dst_node / cfg_.nodes_per_edge;
    const double beta = cfg_.beta_bytes_per_second;
    const double up_bw = beta * cfg_.uplink_bandwidth_factor;
    out.push_back({link_id(LinkKind::kNodeUp, static_cast<std::uint64_t>(src_node)), beta});
    if (src_pod != dst_pod) {
      out.push_back({link_id(LinkKind::kEdgeUp, static_cast<std::uint64_t>(src_pod)), up_bw});
      out.push_back({link_id(LinkKind::kEdgeDown, static_cast<std::uint64_t>(dst_pod)), up_bw});
    }
    out.push_back({link_id(LinkKind::kNodeDown, static_cast<std::uint64_t>(dst_node)), beta});
  }
};

/// Dragonfly: nodes grouped into groups; node access links inside a group,
/// one tapered global link (beta * global_bandwidth_factor) per group pair.
class DragonflyModel final : public ContentionModel {
 public:
  using ContentionModel::ContentionModel;
  const char* name() const override { return "dragonfly"; }

 protected:
  void append_path(int src_node, int dst_node, std::vector<PathLink>& out) const override {
    const int src_group = src_node / cfg_.nodes_per_group;
    const int dst_group = dst_node / cfg_.nodes_per_group;
    const double beta = cfg_.beta_bytes_per_second;
    out.push_back({link_id(LinkKind::kNodeUp, static_cast<std::uint64_t>(src_node)), beta});
    if (src_group != dst_group) {
      // One global link per unordered group pair: all traffic between the
      // two groups shares it, whichever direction it flows.
      const std::uint64_t lo = static_cast<std::uint64_t>(std::min(src_group, dst_group));
      const std::uint64_t hi = static_cast<std::uint64_t>(std::max(src_group, dst_group));
      out.push_back(
          {link_id(LinkKind::kGlobal, (lo << 24) | hi), beta * cfg_.global_bandwidth_factor});
    }
    out.push_back({link_id(LinkKind::kNodeDown, static_cast<std::uint64_t>(dst_node)), beta});
  }
};

/// 2D/3D torus: nodes on a torus_x × torus_y × torus_z grid, one directional
/// link per (node, direction) pair, dimension-order routing (x, then y, then
/// z) taking the shortest wrap direction in each dimension.  Every hop is a
/// store-and-forward traversal of a contended nearest-neighbor link at full
/// beta, so cost scales with Manhattan-on-a-ring distance — neighbor
/// exchanges are cheap, diameter-spanning messages queue across many links.
class TorusModel final : public ContentionModel {
 public:
  using ContentionModel::ContentionModel;
  const char* name() const override { return "torus"; }

 protected:
  void append_path(int src_node, int dst_node, std::vector<PathLink>& out) const override {
    const double beta = cfg_.beta_bytes_per_second;
    int cur[3];
    int dst_c[3];
    coords(src_node, cur);
    coords(dst_node, dst_c);
    const int extent[3] = {dim(0), dim(1), dim(2)};
    out.push_back({link_id(LinkKind::kNodeUp, static_cast<std::uint64_t>(src_node)), beta});
    for (int d = 0; d < 3; ++d) {
      while (cur[d] != dst_c[d]) {
        const int step = step_dir(cur[d], dst_c[d], extent[d]);
        const int node = node_at(cur);
        // dir encodes (dimension, sign): 2d for +, 2d+1 for -.
        const std::uint64_t dir = static_cast<std::uint64_t>(2 * d + (step > 0 ? 0 : 1));
        out.push_back(
            {link_id(LinkKind::kTorus, (static_cast<std::uint64_t>(node) << 3) | dir), beta});
        cur[d] = wrap(cur[d] + step, extent[d]);
      }
    }
    out.push_back({link_id(LinkKind::kNodeDown, static_cast<std::uint64_t>(dst_node)), beta});
  }

 private:
  int dim(int d) const { return d == 0 ? cfg_.torus_x : d == 1 ? cfg_.torus_y : cfg_.torus_z; }

  void coords(int node, int out[3]) const {
    out[0] = node % dim(0);
    out[1] = (node / dim(0)) % dim(1);
    out[2] = (node / (dim(0) * dim(1))) % dim(2);
  }

  int node_at(const int c[3]) const { return c[0] + dim(0) * (c[1] + dim(1) * c[2]); }

  static int wrap(int v, int extent) { return ((v % extent) + extent) % extent; }

  /// +1 or -1: the shortest wrap direction from `from` toward `to` on a
  /// ring of `extent` (ties go positive, matching dimension-order custom).
  static int step_dir(int from, int to, int extent) {
    const int fwd = wrap(to - from, extent);
    return fwd <= extent - fwd ? +1 : -1;
  }
};

/// Throws std::invalid_argument naming the first field outside its domain.
/// A zero bandwidth prices every message at infinity, and a negative
/// latency lands a message before it leaves.
void validate(const NetworkConfig& cfg) {
  const auto reject = [](const char* field, const std::string& value, const char* rule) {
    throw std::invalid_argument(std::string("simmpi: network config ") + field + " = " + value +
                                " (must be " + rule + ")");
  };
  const auto check_real = [&](const char* field, double v, bool zero_ok) {
    if (std::isfinite(v) && (zero_ok ? v >= 0.0 : v > 0.0)) return;
    char text[32];
    std::snprintf(text, sizeof(text), "%g", v);
    reject(field, text, zero_ok ? "finite and >= 0" : "finite and > 0");
  };
  const auto check_shape = [&](const char* field, int v) {
    if (v < 1) reject(field, std::to_string(v), ">= 1");
  };
  check_real("alpha_seconds", cfg.alpha_seconds, true);
  check_real("hop_latency_seconds", cfg.hop_latency_seconds, true);
  check_real("beta_bytes_per_second", cfg.beta_bytes_per_second, false);
  check_real("uplink_bandwidth_factor", cfg.uplink_bandwidth_factor, false);
  check_real("global_bandwidth_factor", cfg.global_bandwidth_factor, false);
  check_shape("ranks_per_node", cfg.ranks_per_node);
  check_shape("nodes_per_edge", cfg.nodes_per_edge);
  check_shape("nodes_per_group", cfg.nodes_per_group);
  check_shape("torus_x", cfg.torus_x);
  check_shape("torus_y", cfg.torus_y);
  check_shape("torus_z", cfg.torus_z);
}

}  // namespace

NetworkConfig NetworkConfig::from_env() {
  // Every value is range-checked as it is read, so the error names the
  // variable and nothing wraps in a cast.  Every int field is a node or
  // torus shape, hence >= 1; every double is finite and >= 0, and
  // make_network_model rejects the ones that must not be 0.
  const auto env_int = [](const char* name, int fallback) {
    return static_cast<int>(env_long(name, fallback, 1, INT_MAX));
  };
  const auto env_unsigned = [](const char* name, std::size_t fallback) {
    return static_cast<std::size_t>(env_long(name, static_cast<long>(fallback), 0, LONG_MAX));
  };
  const auto env_real = [](const char* name, double fallback) {
    return env_double(name, fallback, 0.0, std::numeric_limits<double>::max());
  };
  NetworkConfig cfg;
  cfg.model = env_string("SMART_NET_MODEL", cfg.model);
  cfg.alpha_seconds = env_real("SMART_NET_ALPHA", cfg.alpha_seconds);
  cfg.beta_bytes_per_second = env_real("SMART_NET_BETA", cfg.beta_bytes_per_second);
  cfg.ranks_per_node = env_int("SMART_NET_RANKS_PER_NODE", cfg.ranks_per_node);
  cfg.nodes_per_edge = env_int("SMART_NET_NODES_PER_EDGE", cfg.nodes_per_edge);
  cfg.nodes_per_group = env_int("SMART_NET_NODES_PER_GROUP", cfg.nodes_per_group);
  cfg.hop_latency_seconds = env_real("SMART_NET_HOP_LATENCY", cfg.hop_latency_seconds);
  cfg.uplink_bandwidth_factor =
      env_real("SMART_NET_UPLINK_FACTOR", cfg.uplink_bandwidth_factor);
  cfg.global_bandwidth_factor =
      env_real("SMART_NET_GLOBAL_FACTOR", cfg.global_bandwidth_factor);
  cfg.torus_x = env_int("SMART_NET_TORUS_X", cfg.torus_x);
  cfg.torus_y = env_int("SMART_NET_TORUS_Y", cfg.torus_y);
  cfg.torus_z = env_int("SMART_NET_TORUS_Z", cfg.torus_z);
  cfg.lane_capacity_msgs = env_unsigned("SMART_NET_LANE_CAP", cfg.lane_capacity_msgs);
  cfg.lane_capacity_bytes = env_unsigned("SMART_NET_LANE_CAP_BYTES", cfg.lane_capacity_bytes);
  cfg.sched_policy = env_string("SMART_SCHED_POLICY", cfg.sched_policy);
  cfg.sched_seed = env_unsigned("SMART_SCHED_SEED", cfg.sched_seed);
  cfg.sched_trace = env_string("SMART_SCHED_TRACE", cfg.sched_trace);
  return cfg;
}

std::shared_ptr<NetworkModel> make_network_model(NetworkConfig cfg) {
  validate(cfg);
  if (cfg.model == "flat") return std::make_shared<FlatModel>(std::move(cfg));
  if (cfg.model == "fattree") return std::make_shared<FatTreeModel>(std::move(cfg));
  if (cfg.model == "dragonfly") return std::make_shared<DragonflyModel>(std::move(cfg));
  if (cfg.model == "torus") return std::make_shared<TorusModel>(std::move(cfg));
  throw std::invalid_argument("simmpi: unknown network model '" + cfg.model +
                              "' (flat|fattree|dragonfly|torus)");
}

std::shared_ptr<NetworkModel> default_network_model() {
  return make_network_model(NetworkConfig::from_env());
}

}  // namespace smart::simmpi
