// Figure 9 — efficiency of the time-sharing mode's zero-copy design: the
// same in-situ pipeline run (a) through Smart's read pointer and (b)
// through an implementation that copies each time-step before analyzing it.
//
// Paper: (a) Heat3D + logistic regression on 4 nodes, time-step 0.6-1.8 GB
// — zero copy wins by up to 11%, and 2 GB crashes; (b) Lulesh + mutual
// information on 64 nodes, edge 100-233 — ~7% until the copy pushes the
// footprint to the memory bound, then 5x (and the next size crashes).
//
// The container reproduces the copy-cost component with real runs and the
// memory cliff as a budget: footprints are tracked logically and
// configurations whose copy crosses the budget are flagged OVER-BUDGET —
// the same boundary the paper reports as a crash (DESIGN.md §1).
#include "analytics/logistic_regression.h"
#include "analytics/mutual_information.h"
#include "bench/bench_util.h"
#include "sim/heat3d.h"
#include "sim/minilulesh.h"
#include "simmpi/world.h"

namespace {

using namespace smart;
using namespace smart::analytics;

struct Leg {
  double zero_copy_makespan = 0.0;
  double copy_makespan = 0.0;
  std::size_t zero_copy_peak = 0;
  std::size_t copy_peak = 0;
  bool zero_copy_over = false;
  bool copy_over = false;
};

constexpr int kRanks = 4;
constexpr int kSteps = 3;

Leg heat3d_logreg(std::size_t nz_local, bool copy_input, std::size_t budget) {
  smart::bench::reset_memory(budget);
  RunOptions opts;
  opts.copy_input = copy_input;
  auto stats = simmpi::launch(kRanks, [&](simmpi::Communicator& comm) {
    ThreadPool sim_pool(2);
    sim::Heat3D heat({.nx = 32, .ny = 32, .nz_local = nz_local}, &comm, &sim_pool);
    LogisticRegression<double> reg(SchedArgs(2, 16, nullptr, 3), 15, 0.1, opts);
    for (int s = 0; s < kSteps; ++s) {
      heat.step();
      reg.run(heat.output(), heat.output_len(), nullptr, 0);
    }
  });
  Leg leg;
  leg.zero_copy_makespan = stats.makespan();
  leg.zero_copy_peak = MemoryTracker::instance().peak();
  leg.zero_copy_over = MemoryTracker::instance().peak_over_budget();
  return leg;
}

Leg lulesh_mi(std::size_t edge, bool copy_input, std::size_t budget) {
  smart::bench::reset_memory(budget);
  RunOptions opts;
  opts.copy_input = copy_input;
  auto stats = simmpi::launch(kRanks, [&](simmpi::Communicator& comm) {
    ThreadPool sim_pool(2);
    sim::MiniLulesh lulesh({.edge = edge}, &comm, &sim_pool);
    MutualInformation<double> mi(SchedArgs(2, 2, nullptr, 1), 0.0, 16.0, 100, 100, opts);
    for (int s = 0; s < kSteps; ++s) {
      lulesh.step();
      mi.run(lulesh.output(), lulesh.output_len(), nullptr, 0);
    }
  });
  Leg leg;
  leg.zero_copy_makespan = stats.makespan();
  leg.zero_copy_peak = MemoryTracker::instance().peak();
  leg.zero_copy_over = MemoryTracker::instance().peak_over_budget();
  return leg;
}

}  // namespace

int harness_main() {
  using smart::Table;
  smart::bench::print_header(
      "Figure 9: time-sharing zero copy vs an extra input copy",
      "(a) Heat3D+logreg, step 0.6-1.8 GB, 4 nodes, up to 11% win, 2 GB crashes; "
      "(b) Lulesh+mutual information, edge 100-233, 64 nodes, 7% -> 5x at the memory bound",
      "4 ranks x 2 threads, 3 steps per point, logical footprint vs budget");

  const std::vector<std::size_t> nz_sweep = {32, 64, 128, 192};
  const std::vector<std::size_t> edge_sweep = {20, 28, 40, 52};

  // (a) Heat3D + logistic regression: step size swept via nz_local.
  {
    Table table({"step_size_per_rank", "zero_copy_s", "with_copy_s", "copy_overhead_pct",
                 "zero_copy_peak", "with_copy_peak", "with_copy_flag"});
    // Calibrate the memory bound the way the paper sizes its runs against
    // the 12 GB node: the budget sits between the largest configuration's
    // zero-copy and with-copy footprints, so only the extra copy crosses it.
    const std::size_t largest = smart::bench::scaled(nz_sweep.back());
    const std::size_t zc_top = heat3d_logreg(largest, false, 0).zero_copy_peak;
    const std::size_t cp_top = heat3d_logreg(largest, true, 0).zero_copy_peak;
    const std::size_t budget = (zc_top + cp_top) / 2;
    for (const std::size_t nz : nz_sweep) {
      const std::size_t scaled_nz = smart::bench::scaled(nz);
      const std::size_t step_bytes = 32 * 32 * scaled_nz * sizeof(double);
      Leg zc = heat3d_logreg(scaled_nz, false, budget);
      Leg cp = heat3d_logreg(scaled_nz, true, budget);
      table.begin_row();
      table.add(smart::format_bytes(step_bytes));
      table.add(zc.zero_copy_makespan, 4);
      table.add(cp.zero_copy_makespan, 4);
      table.add(100.0 * (cp.zero_copy_makespan / zc.zero_copy_makespan - 1.0), 1);
      table.add(smart::format_bytes(zc.zero_copy_peak));
      table.add(smart::format_bytes(cp.zero_copy_peak));
      table.add(cp.zero_copy_over ? "OVER-BUDGET (paper: crash/5x)" : "ok");
    }
    smart::bench::finish(table, "fig09a", "Figure 9(a): Heat3D + logistic regression");
  }

  // (b) MiniLulesh + mutual information: memory grows cubically in edge.
  {
    Table table({"edge", "step_size_per_rank", "zero_copy_s", "with_copy_s",
                 "copy_overhead_pct", "with_copy_peak", "with_copy_flag"});
    const auto largest_edge = static_cast<std::size_t>(
        static_cast<double>(edge_sweep.back()) * std::cbrt(smart::bench_scale()));
    const std::size_t zc_top = lulesh_mi(largest_edge, false, 0).zero_copy_peak;
    const std::size_t cp_top = lulesh_mi(largest_edge, true, 0).zero_copy_peak;
    const std::size_t budget = (zc_top + cp_top) / 2;
    for (const std::size_t edge : edge_sweep) {
      const auto scaled_edge =
          static_cast<std::size_t>(static_cast<double>(edge) *
                                   std::cbrt(smart::bench_scale()));
      const std::size_t step_bytes = scaled_edge * scaled_edge * scaled_edge * sizeof(double);
      Leg zc = lulesh_mi(scaled_edge, false, budget);
      Leg cp = lulesh_mi(scaled_edge, true, budget);
      table.begin_row();
      table.add(scaled_edge);
      table.add(smart::format_bytes(step_bytes));
      table.add(zc.zero_copy_makespan, 4);
      table.add(cp.zero_copy_makespan, 4);
      table.add(100.0 * (cp.zero_copy_makespan / zc.zero_copy_makespan - 1.0), 1);
      table.add(smart::format_bytes(cp.zero_copy_peak));
      table.add(cp.zero_copy_over ? "OVER-BUDGET (paper: crash/5x)" : "ok");
    }
    smart::bench::finish(table, "fig09b", "Figure 9(b): Lulesh + mutual information");
  }

  std::cout << "Expectation (paper shape): with_copy >= zero_copy at every size, the gap\n"
               "growing with step size; the largest with-copy configurations cross the\n"
               "budget (the paper's crash / 5x degradation points), zero-copy never does.\n";
  return 0;
}

int main() { return smart::bench::guarded_main(harness_main); }
