// Figure 8 — in-situ processing times with varying threads per node on
// Lulesh (MiniLulesh proxy), for all nine analytics.
//
// Paper: 1 TB over 93 steps on 64 nodes, 1..8 threads per node; 59% average
// parallel efficiency for the five record apps and 79% for the four
// window-based apps (more compute per element => synchronization weighs
// less).  Each leg's virtual makespan is taken 3 times (bench::repeat);
// speedups and efficiencies compare the minima.
#include "bench/bench_apps.h"
#include "bench/bench_util.h"
#include "sim/minilulesh.h"
#include "simmpi/world.h"

namespace {

using namespace smart;

constexpr int kRanks = 4;
constexpr int kSteps = 3;
const std::vector<int> kThreadCounts = {1, 2, 4, 8};

double run_once(const std::string& app_name, int threads, std::size_t edge) {
  auto stats = simmpi::launch(kRanks, [&](simmpi::Communicator& comm) {
    ThreadPool sim_pool(threads);
    sim::MiniLulesh lulesh({.edge = edge}, &comm, &sim_pool);
    // The energy field is positive and O(10) after the blast spreads.
    auto app = smart::bench::make_app(app_name, threads, 0.0, 16.0);
    for (int s = 0; s < kSteps; ++s) {
      lulesh.step();
      app->run(lulesh.output(), lulesh.output_len());
    }
  });
  return stats.makespan();
}

}  // namespace

int harness_main() {
  const auto edge = static_cast<std::size_t>(40.0 * std::cbrt(smart::bench_scale()));
  smart::bench::print_header(
      "Figure 8: scaling threads per node on Lulesh (time sharing)",
      "1 TB, 93 steps, 64 nodes, 1-8 threads; parallel efficiency 59% (record apps) / 79% "
      "(window apps)",
      std::to_string(kRanks) + " ranks, edge " + std::to_string(edge) + " cube per rank, " +
          std::to_string(kSteps) + " steps, threads {1,2,4,8}, virtual makespan, min of 3 runs");

  smart::Table table({"app", "threads", "makespan_min_s", "makespan_median_s", "makespan_spread",
                      "speedup", "parallel_efficiency"});
  double record_eff = 0.0, window_eff = 0.0;
  int record_n = 0, window_n = 0;
  const auto& names = smart::bench::app_names();
  for (std::size_t a = 0; a < names.size(); ++a) {
    double base = 0.0;
    for (const int threads : kThreadCounts) {
      const auto makespan = smart::bench::repeat([&] { return run_once(names[a], threads, edge); });
      if (threads == 1) base = makespan.min;
      const double speedup = base / makespan.min;
      const double efficiency = speedup / threads;
      if (threads == 8) {
        if (a < 5) {
          record_eff += efficiency;
          ++record_n;
        } else {
          window_eff += efficiency;
          ++window_n;
        }
      }
      table.begin_row();
      table.add(names[a]);
      table.add(threads);
      table.add(makespan.min, 4);
      table.add(makespan.median, 4);
      table.add(makespan.spread, 3);
      table.add(speedup, 2);
      table.add(efficiency, 2);
    }
  }
  smart::bench::finish(table, "fig08", "in-situ processing times vs threads (Lulesh)");
  std::cout << "8-thread parallel efficiency: record apps "
            << (record_n ? record_eff / record_n : 0.0) << " (paper 0.59), window apps "
            << (window_n ? window_eff / window_n : 0.0) << " (paper 0.79)\n"
            << "Expectation (paper shape): window-based apps hold higher efficiency than the\n"
               "record apps because their per-element compute dominates synchronization.\n";
  return 0;
}

int main() { return smart::bench::guarded_main(harness_main); }
