// Tests for the time/space-sharing mode advisor (core/advisor.h), the model
// behind the Figure 10 harness.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/advisor.h"

namespace smart {
namespace {

// --- mode advisor --------------------------------------------------------------

NodeModel phi_model() {
  NodeModel node;
  node.cores = 60;
  node.sim_speedup = [](int t) { return t / (1.0 + 0.05 * (t - 1)); };
  node.ana_speedup = [](int t) { return t / (1.0 + 0.02 * (t - 1)); };
  return node;
}

TEST(Advisor, SyncHeavyWorkloadStaysTimeSharing) {
  // Histogram-like: tiny analytics but frequent synchronization — the
  // doubled (serialized-MPI) sync in space mode outweighs the overlap gain
  // (the paper's Section 5.6 finding).
  ModeCosts costs{.sim_seconds_per_step = 1.0,
                  .ana_seconds_per_step = 0.02,
                  .sync_seconds_per_step = 0.1};
  const auto rec = advise_mode(costs, phi_model());
  EXPECT_EQ(rec.mode, ModeRecommendation::Mode::kTimeSharing);
  EXPECT_NE(rec.to_string().find("time sharing"), std::string::npos);
}

TEST(Advisor, ComputeHeavyAnalyticsPrefersSpaceSharing) {
  // Moving-median-like: analytics compute rivals the simulation, no sync.
  ModeCosts costs{.sim_seconds_per_step = 1.0,
                  .ana_seconds_per_step = 2.0,
                  .sync_seconds_per_step = 0.0};
  const auto rec = advise_mode(costs, phi_model());
  EXPECT_EQ(rec.mode, ModeRecommendation::Mode::kSpaceSharing);
  EXPECT_GT(rec.advantage(), 0.1);
  EXPECT_GT(rec.sim_cores, 0);
  EXPECT_GT(rec.analytics_cores, 0);
  EXPECT_EQ(rec.sim_cores + rec.analytics_cores, 60);
}

TEST(Advisor, BalancedSplitForBalancedLoad) {
  ModeCosts costs{.sim_seconds_per_step = 1.0,
                  .ana_seconds_per_step = 1.0,
                  .sync_seconds_per_step = 0.0};
  const auto rec = advise_mode(costs, phi_model());
  EXPECT_EQ(rec.mode, ModeRecommendation::Mode::kSpaceSharing);
  // The simulation scales worse (larger serial fraction), so the balance
  // point gives it the majority of the cores — but not all of them.
  EXPECT_GT(rec.sim_cores, 30);
  EXPECT_LT(rec.sim_cores, 55);
}

TEST(Advisor, SyncInflationCanFlipTheDecision) {
  // Space sharing pays sync kSpaceSyncFactor times in its analytics lane:
  // cheap sync leaves the overlap gain ahead, dear sync hands the win to
  // time sharing.
  ModeCosts cheap_sync{.sim_seconds_per_step = 1.0,
                       .ana_seconds_per_step = 0.4,
                       .sync_seconds_per_step = 0.05};
  ModeCosts dear_sync = cheap_sync;
  dear_sync.sync_seconds_per_step = 0.5;
  const auto cheap = advise_mode(cheap_sync, phi_model());
  const auto dear = advise_mode(dear_sync, phi_model());
  EXPECT_EQ(cheap.mode, ModeRecommendation::Mode::kSpaceSharing);
  EXPECT_EQ(dear.mode, ModeRecommendation::Mode::kTimeSharing);
}

TEST(Advisor, ReproducesFigure10ModelBitForBit) {
  // The Figure 10 model written out: every time the fig10 harness prints
  // comes from the advisor and must equal these expressions bit for bit.
  const NodeModel node = phi_model();
  auto sp_sim = [](int t) { return t / (1.0 + 0.05 * (t - 1.0)); };
  auto sp_ana = [](int t) { return t / (1.0 + 0.02 * (t - 1.0)); };
  const ModeCosts triples[] = {{1.0, 0.02, 0.1},
                               {3.7e-3, 1.9e-3, 2.1e-6},
                               {2.5e-2, 4.4e-2, 0.0},
                               {1.3e-3, 0.0, 7.9e-5}};
  for (const ModeCosts& c : triples) {
    const double s = c.sim_seconds_per_step;
    const double a = c.ana_seconds_per_step;
    const double sync = c.sync_seconds_per_step;
    EXPECT_EQ(time_sharing_seconds(c, node), s / sp_sim(60) + a / sp_ana(60) + sync);
    EXPECT_EQ(time_sharing_seconds(ModeCosts{.sim_seconds_per_step = s}, node), s / sp_sim(60));
    for (const int n : {50, 40, 30, 20, 10}) {
      EXPECT_EQ(space_sharing_seconds(c, node, n),
                std::max(s / sp_sim(n), a / sp_ana(60 - n) + 2.0 * sync))
          << "S=" << s << " A=" << a << " sync=" << sync << " n=" << n;
    }
  }
}

TEST(Advisor, RejectsDegenerateInput) {
  ModeCosts costs{};
  NodeModel tiny = phi_model();
  tiny.cores = 1;
  EXPECT_THROW(advise_mode(costs, tiny), std::invalid_argument);
  NodeModel no_curves;
  no_curves.cores = 8;
  EXPECT_THROW(advise_mode(costs, no_curves), std::invalid_argument);
}

}  // namespace
}  // namespace smart
