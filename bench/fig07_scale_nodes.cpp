// Figure 7 — in-situ processing times with varying node count on Heat3D
// (time sharing, 8 cores per node in the paper; 2 threads per rank here),
// for all nine analytics.
//
// Paper: 1 TB over 100 steps, 4..32 nodes, 93% average parallel efficiency,
// occasional super-linear points from per-node memory relief.
//
// The *global problem size is fixed* while ranks vary (strong scaling), so
// the per-rank slab shrinks as ranks grow.  Scaling is reported in virtual
// makespan (see bench_util.h): each leg runs 3 times, and speedups and
// efficiencies compare the minima.
#include <mutex>

#include "bench/bench_apps.h"
#include "bench/bench_util.h"
#include "sim/heat3d.h"
#include "simmpi/world.h"

namespace {

using namespace smart;

constexpr int kThreadsPerRank = 2;
constexpr int kSteps = 4;
const std::vector<int> kRankCounts = {2, 4, 8};

struct RunResult {
  double makespan = 0.0;
  double codec_seconds = 0.0;  ///< max per-rank time encoding/decoding maps
  std::size_t wire_bytes = 0;  ///< total combination payload across ranks
  RunStats rank0;              ///< rank 0's full stat set (RUNSTATS line)
};

RunResult run_once(const std::string& app_name, int nranks, std::size_t nz_global) {
  RunResult result;
  std::mutex mu;
  auto stats = simmpi::launch(nranks, [&](simmpi::Communicator& comm) {
    sim::Heat3D::Params p;
    p.nx = 32;
    p.ny = 32;
    p.nz_local = nz_global / static_cast<std::size_t>(nranks);
    ThreadPool sim_pool(kThreadsPerRank);
    sim::Heat3D heat(p, &comm, &sim_pool);
    auto app = smart::bench::make_app(app_name, kThreadsPerRank, 0.0, 1.0);
    for (int s = 0; s < kSteps; ++s) {
      heat.step();
      app->run(heat.output(), heat.output_len());
    }
    const RunStats& rs = app->stats();
    std::lock_guard<std::mutex> lock(mu);
    result.codec_seconds = std::max(result.codec_seconds, rs.codec_seconds);
    result.wire_bytes += rs.wire_bytes;
    if (comm.rank() == 0) result.rank0 = rs;
  });
  result.makespan = stats.makespan();
  return result;
}

}  // namespace

int harness_main() {
  const std::size_t nz_global = smart::bench::scaled(96);
  smart::bench::print_header(
      "Figure 7: scaling the number of nodes on Heat3D (time sharing)",
      "1 TB, 100 steps, 4-32 nodes x 8 cores, 93% average parallel efficiency",
      "32x32x" + std::to_string(nz_global) + " global grid, " + std::to_string(kSteps) +
          " steps, ranks {2,4,8} x " + std::to_string(kThreadsPerRank) +
          " threads, virtual makespan, min of 3 runs, " + smart::bench::centroid_kernel_width());

  smart::Table table({"app", "ranks", "makespan_min_s", "makespan_median_s", "makespan_spread",
                      "speedup", "parallel_efficiency", "codec_s", "wire_bytes"});
  double efficiency_sum = 0.0;
  int efficiency_count = 0;
  for (const auto& app : smart::bench::app_names()) {
    double base = 0.0;
    for (const int nranks : kRankCounts) {
      // The codec and wire columns come from the last of the runs.
      const auto leg = smart::bench::repeat_leg([&] { return run_once(app, nranks, nz_global); });
      const RunResult& r = leg.last;
      smart::bench::print_run_stats(app + "/ranks=" + std::to_string(nranks), r.rank0);
      if (nranks == kRankCounts.front()) base = leg.makespan.min;
      const double speedup = base / leg.makespan.min * kRankCounts.front();
      const double efficiency = speedup / nranks;
      if (nranks != kRankCounts.front()) {
        efficiency_sum += efficiency;
        ++efficiency_count;
      }
      table.begin_row();
      table.add(app);
      table.add(nranks);
      table.add(leg.makespan.min, 4);
      table.add(leg.makespan.median, 4);
      table.add(leg.makespan.spread, 3);
      table.add(speedup, 2);
      table.add(efficiency, 2);
      table.add(r.codec_seconds, 6);
      table.add(r.wire_bytes);
    }
  }
  smart::bench::finish(table, "fig07", "in-situ processing times vs node count (Heat3D)");
  std::cout << "Average parallel efficiency across apps and scaled rank counts: "
            << (efficiency_count > 0 ? efficiency_sum / efficiency_count : 0.0)
            << " (paper: 0.93)\n"
            << "Expectation (paper shape): near-linear drop of makespan with ranks for\n"
               "every app; window apps scale at least as well as the record apps.\n";
  return 0;
}

int main() { return smart::bench::guarded_main(harness_main); }
