// Figure 11 — effect of the early-emission optimization (Section 4 /
// Algorithm 2) for window-based analytics: the same pipeline with the
// trigger enabled vs disabled.
//
// Paper: (a) Heat3D + moving average (window 7), step 0.5-1 GB on 4 nodes
// — speedup up to 5.6x, and the 1 GB no-trigger run crashes; (b) Lulesh +
// moving median (window 11), edge 60-200 on 64 nodes — speedup up to 5.2x,
// edge 200 no-trigger crashes.  The optimization cuts the live reduction
// objects from the input size to the window size (x1,000,000 in the paper).
#include "analytics/moving_average.h"
#include "analytics/moving_median.h"
#include "bench/bench_util.h"
#include "sim/heat3d.h"
#include "sim/minilulesh.h"
#include "simmpi/world.h"

namespace {

using namespace smart;
using namespace smart::analytics;

constexpr int kRanks = 4;
constexpr int kSteps = 2;

struct Leg {
  double makespan = 0.0;
  std::size_t peak_objects = 0;
  std::size_t peak_bytes = 0;
  bool over_budget = false;
  RunStats rank0;  ///< rank 0's full scheduler stat set (RUNSTATS line)
};

/// One table row: each side's min, median and spread, then the speedup
/// of the minima and the object counts.
void add_row(smart::Table& table, const bench::RepeatedLeg<Leg>& on,
             const bench::RepeatedLeg<Leg>& off) {
  for (const auto* leg : {&on, &off}) {
    table.add(leg->makespan.min, 4);
    table.add(leg->makespan.median, 4);
    table.add(leg->makespan.spread, 3);
  }
  table.add(off.makespan.min / on.makespan.min, 2);
  table.add(on.last.peak_objects);
  table.add(off.last.peak_objects);
  table.add(static_cast<double>(off.last.peak_objects) /
                static_cast<double>(std::max<std::size_t>(on.last.peak_objects, 1)),
            1);
  table.add(off.last.over_budget ? "OVER-BUDGET (paper: crash)" : "ok");
}

/// A table's columns: the size column, then add_row's.
std::vector<std::string> columns(const std::string& size_column) {
  return {size_column,     "on_min_s",      "on_median_s",     "on_spread",
          "off_min_s",     "off_median_s",  "off_spread",      "speedup_x",
          "peak_objs_on",  "peak_objs_off", "obj_reduction_x", "no_trigger_flag"};
}

Leg heat3d_moving_average(std::size_t nz_local, bool trigger, std::size_t budget) {
  smart::bench::reset_memory(budget);
  RunOptions opts;
  opts.enable_trigger = trigger;
  RunStats rank0;
  auto stats = simmpi::launch(kRanks, [&](simmpi::Communicator& comm) {
    ThreadPool sim_pool(2);
    sim::Heat3D heat({.nx = 32, .ny = 32, .nz_local = nz_local}, &comm, &sim_pool);
    MovingAverage<double> ma(SchedArgs(2, 1), 7, opts);
    std::vector<double> out(heat.output_len(), 0.0);
    for (int s = 0; s < kSteps; ++s) {
      heat.step();
      ma.run2(heat.output(), heat.output_len(), out.data(), out.size());
    }
    if (comm.rank() == 0) rank0 = ma.stats();
  });
  Leg leg;
  leg.makespan = stats.makespan();
  leg.peak_objects = rank0.peak_reduction_objects;
  leg.peak_bytes = rank0.peak_reduction_bytes;
  leg.over_budget = MemoryTracker::instance().peak_over_budget();
  leg.rank0 = rank0;
  return leg;
}

Leg lulesh_moving_median(std::size_t edge, bool trigger, std::size_t budget) {
  smart::bench::reset_memory(budget);
  RunOptions opts;
  opts.enable_trigger = trigger;
  RunStats rank0;
  auto stats = simmpi::launch(kRanks, [&](simmpi::Communicator& comm) {
    ThreadPool sim_pool(2);
    sim::MiniLulesh lulesh({.edge = edge}, &comm, &sim_pool);
    MovingMedian<double> mm(SchedArgs(2, 1), 11, opts);
    std::vector<double> out(lulesh.output_len(), 0.0);
    for (int s = 0; s < kSteps; ++s) {
      lulesh.step();
      mm.run2(lulesh.output(), lulesh.output_len(), out.data(), out.size());
    }
    if (comm.rank() == 0) rank0 = mm.stats();
  });
  Leg leg;
  leg.makespan = stats.makespan();
  leg.peak_objects = rank0.peak_reduction_objects;
  leg.peak_bytes = rank0.peak_reduction_bytes;
  leg.over_budget = MemoryTracker::instance().peak_over_budget();
  leg.rank0 = rank0;
  return leg;
}

}  // namespace

int harness_main() {
  using smart::Table;
  smart::bench::print_header(
      "Figure 11: early emission of reduction objects on vs off",
      "(a) Heat3D + moving average (win 7), 0.5-1 GB steps, speedup <= 5.6x, 1 GB no-trigger "
      "crashes; (b) Lulesh + moving median (win 11), edge 60-200, speedup <= 5.2x",
      std::to_string(kRanks) + " ranks x 2 threads, " + std::to_string(kSteps) +
          " steps; each leg runs 3 times and the speedup compares the minima");

  {
    Table table(columns("step_size_per_rank"));
    // Budget calibrated between the largest size's with-trigger and
    // no-trigger footprints, so only the Θ(N)-object variant crosses it —
    // the paper's crash boundary.
    const std::vector<std::size_t> nz_sweep = {16, 32, 64};
    const std::size_t largest = smart::bench::scaled(nz_sweep.back());
    const std::size_t on_top = heat3d_moving_average(largest, true, 0).peak_bytes;
    const std::size_t off_top = heat3d_moving_average(largest, false, 0).peak_bytes;
    const std::size_t sim_bytes = 2 * 32 * 32 * (largest + 2) * sizeof(double) * kRanks;
    // Only the largest no-trigger configuration should cross the bound
    // (the paper's single crashed point), so sit just under its peak.
    const std::size_t budget =
        sim_bytes + kRanks * (on_top + (off_top - on_top) * 4 / 5);
    for (const std::size_t nz : nz_sweep) {
      const std::size_t scaled_nz = smart::bench::scaled(nz);
      const auto on =
          bench::repeat_leg([&] { return heat3d_moving_average(scaled_nz, true, budget); });
      const auto off =
          bench::repeat_leg([&] { return heat3d_moving_average(scaled_nz, false, budget); });
      smart::bench::print_run_stats("fig11a/nz=" + std::to_string(scaled_nz) + "/trigger=on",
                                    on.last.rank0);
      smart::bench::print_run_stats("fig11a/nz=" + std::to_string(scaled_nz) + "/trigger=off",
                                    off.last.rank0);
      table.begin_row();
      table.add(smart::format_bytes(32 * 32 * scaled_nz * sizeof(double)));
      add_row(table, on, off);
    }
    smart::bench::finish(table, "fig11a", "Figure 11(a): Heat3D + moving average (window 7)");
  }

  {
    Table table(columns("edge"));
    const std::vector<std::size_t> edge_sweep = {16, 24, 36};
    const auto largest_edge = static_cast<std::size_t>(
        static_cast<double>(edge_sweep.back()) * std::cbrt(smart::bench_scale()));
    const std::size_t on_top = lulesh_moving_median(largest_edge, true, 0).peak_bytes;
    const std::size_t off_top = lulesh_moving_median(largest_edge, false, 0).peak_bytes;
    const std::size_t sim_bytes =
        5 * largest_edge * largest_edge * largest_edge * sizeof(double) * kRanks;
    const std::size_t budget =
        sim_bytes + kRanks * (on_top + (off_top - on_top) * 4 / 5);
    for (const std::size_t edge : edge_sweep) {
      const auto scaled_edge = static_cast<std::size_t>(
          static_cast<double>(edge) * std::cbrt(smart::bench_scale()));
      const auto on =
          bench::repeat_leg([&] { return lulesh_moving_median(scaled_edge, true, budget); });
      const auto off =
          bench::repeat_leg([&] { return lulesh_moving_median(scaled_edge, false, budget); });
      smart::bench::print_run_stats("fig11b/edge=" + std::to_string(scaled_edge) + "/trigger=on",
                                    on.last.rank0);
      smart::bench::print_run_stats(
          "fig11b/edge=" + std::to_string(scaled_edge) + "/trigger=off", off.last.rank0);
      table.begin_row();
      table.add(scaled_edge);
      add_row(table, on, off);
    }
    smart::bench::finish(table, "fig11b", "Figure 11(b): Lulesh + moving median (window 11)");
  }

  std::cout << "Expectation (paper shape): speedup_x > 1 and growing with the data size;\n"
               "obj_reduction_x grows linearly with input size (the paper's x1,000,000);\n"
               "the largest no-trigger configurations go OVER-BUDGET (the paper's crash).\n";
  return 0;
}

int main() { return smart::bench::guarded_main(harness_main); }
