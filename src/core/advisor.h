// Mode advisor: operationalizes the paper's Section 5.6 conclusion —
// "space sharing mode can be advantageous when a simulation program does
// not scale well with increasing number of cores, but it is not a good fit
// for the applications involving frequent synchronization."
//
// Given measured per-step costs (simulation compute, analytics compute,
// synchronization) and the node's scaling curves, the advisor prices time
// sharing and every core split, and recommends a mode.  The Figure 10
// harness (bench/fig10_space_sharing.cpp) prints every modeled time through
// these functions:
//   time sharing        T = S/sp_s(cores) + A/sp_a(cores) + sync
//   space sharing n_m   T = max(S/sp_s(n), A/sp_a(m) + kSpaceSyncFactor·sync)
#pragma once

#include <functional>
#include <string>

namespace smart {

struct ModeCosts {
  double sim_seconds_per_step = 0.0;   ///< single-thread simulation compute (S)
  double ana_seconds_per_step = 0.0;   ///< single-thread analytics compute (A)
  double sync_seconds_per_step = 0.0;  ///< cross-rank combination cost (sync)
};

struct NodeModel {
  int cores = 0;
  /// Speedup of the simulation/analytics on t cores.
  std::function<double(int)> sim_speedup;
  std::function<double(int)> ana_speedup;
};

/// Synchronization inflation under space sharing: the simulation and
/// analytics tasks must serialize their message passing (the paper's
/// single-threaded-MPI effect), so the analytics lane pays sync twice.
constexpr double kSpaceSyncFactor = 2.0;

struct ModeRecommendation {
  enum class Mode { kTimeSharing, kSpaceSharing } mode = Mode::kTimeSharing;
  int sim_cores = 0;       ///< meaningful for space sharing
  int analytics_cores = 0; ///< meaningful for space sharing
  double time_sharing_seconds = 0.0;
  double best_space_seconds = 0.0;
  /// Positive when space sharing wins, as a fraction of time sharing.
  double advantage() const {
    return (time_sharing_seconds - best_space_seconds) / time_sharing_seconds;
  }
  std::string to_string() const;
};

/// Per-step time when simulation and analytics take turns on all
/// node.cores cores.
double time_sharing_seconds(const ModeCosts& costs, const NodeModel& node);

/// Per-step time when the simulation runs on `sim_cores` cores and the
/// analytics concurrently on the other node.cores - sim_cores.
double space_sharing_seconds(const ModeCosts& costs, const NodeModel& node, int sim_cores);

/// Evaluates time sharing vs every split that leaves each side at least
/// one core and recommends the cheaper mode.
ModeRecommendation advise_mode(const ModeCosts& costs, const NodeModel& node);

}  // namespace smart
