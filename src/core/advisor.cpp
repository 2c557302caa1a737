#include "core/advisor.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace smart {

std::string ModeRecommendation::to_string() const {
  std::ostringstream os;
  if (mode == Mode::kTimeSharing) {
    os << "time sharing (best space split " << sim_cores << "_" << analytics_cores
       << " would be " << -advantage() * 100.0 << "% slower)";
  } else {
    os << "space sharing " << sim_cores << "_" << analytics_cores << " ("
       << advantage() * 100.0 << "% faster than time sharing)";
  }
  return os.str();
}

double time_sharing_seconds(const ModeCosts& costs, const NodeModel& node) {
  return costs.sim_seconds_per_step / node.sim_speedup(node.cores) +
         costs.ana_seconds_per_step / node.ana_speedup(node.cores) +
         costs.sync_seconds_per_step;
}

double space_sharing_seconds(const ModeCosts& costs, const NodeModel& node, int sim_cores) {
  const double sim_lane = costs.sim_seconds_per_step / node.sim_speedup(sim_cores);
  const double ana_lane =
      costs.ana_seconds_per_step / node.ana_speedup(node.cores - sim_cores) +
      kSpaceSyncFactor * costs.sync_seconds_per_step;
  return std::max(sim_lane, ana_lane);
}

ModeRecommendation advise_mode(const ModeCosts& costs, const NodeModel& node) {
  if (node.cores < 2) throw std::invalid_argument("advise_mode: node too small to split");
  if (!node.sim_speedup || !node.ana_speedup) {
    throw std::invalid_argument("advise_mode: node model needs both speedup curves");
  }

  ModeRecommendation rec;
  rec.time_sharing_seconds = time_sharing_seconds(costs, node);
  rec.best_space_seconds = std::numeric_limits<double>::max();
  for (int sim_cores = 1; sim_cores < node.cores; ++sim_cores) {
    const double t = space_sharing_seconds(costs, node, sim_cores);
    if (t < rec.best_space_seconds) {
      rec.best_space_seconds = t;
      rec.sim_cores = sim_cores;
      rec.analytics_cores = node.cores - sim_cores;
    }
  }
  rec.mode = rec.best_space_seconds < rec.time_sharing_seconds
                 ? ModeRecommendation::Mode::kSpaceSharing
                 : ModeRecommendation::Mode::kTimeSharing;
  return rec;
}

}  // namespace smart
