// Figure 1 — case study: in-situ vs offline (store-first-analyze-after)
// k-means clustering on Heat3D output, varying the k-means iteration count.
//
// Paper: 1 TB over Heat3D time-steps, 64 cores, time sharing; offline
// writes all steps to disk and loads them back; in-situ outperforms by up
// to 10.4x, dominated by the offline I/O overhead.
//
// This harness runs the identical analytics code in both modes (the same
// KMeans scheduler — Smart's in-situ/offline code identity) and reports
// total time plus the offline I/O component.
#include "analytics/kmeans.h"
#include "baselines/offline.h"
#include "bench/bench_util.h"
#include "sim/heat3d.h"
#include "simmpi/world.h"

namespace {

using namespace smart;
using analytics::KMeans;
using analytics::KMeansInit;

struct ModeResult {
  double total_wall = 0.0;
  double io_seconds = 0.0;
  double makespan = 0.0;
};

constexpr int kRanks = 4;
constexpr std::size_t kK = 8;
constexpr std::size_t kDims = 4;  // chunks of 4 grid values as feature vectors

sim::Heat3D::Params heat_params() {
  sim::Heat3D::Params p;
  p.nx = 32;
  p.ny = 32;
  p.nz_local = smart::bench::scaled(24);
  return p;
}

std::vector<double> initial_centroids() {
  std::vector<double> init(kK * kDims);
  Rng rng(17);
  for (auto& c : init) c = rng.uniform(0.0, 1.0);
  return init;
}

ModeResult run_insitu(int steps, int kmeans_iters) {
  const auto init = initial_centroids();
  WallTimer wall;
  auto stats = simmpi::launch(kRanks, [&](simmpi::Communicator& comm) {
    sim::Heat3D heat(heat_params(), &comm);
    KMeansInit seed{init.data(), kK, kDims};
    KMeans<double> km(SchedArgs(2, kDims, &seed, kmeans_iters), kK, kDims);
    for (int s = 0; s < steps; ++s) {
      heat.step();
      // Time sharing: the analytics reads the simulation slab in place.
      km.run(heat.output(), heat.output_len(), nullptr, 0);
    }
  });
  ModeResult r;
  r.total_wall = wall.seconds();
  r.makespan = stats.makespan();
  return r;
}

ModeResult run_offline(int steps, int kmeans_iters) {
  const auto init = initial_centroids();
  std::vector<baselines::StepStore> stores;
  for (int r = 0; r < kRanks; ++r) stores.emplace_back("/tmp/smart_fig01_store");

  WallTimer wall;
  // Phase 1: simulate and persist every step (store first).
  auto sim_stats = simmpi::launch(kRanks, [&](simmpi::Communicator& comm) {
    sim::Heat3D heat(heat_params(), &comm);
    for (int s = 0; s < steps; ++s) {
      heat.step();
      stores[static_cast<std::size_t>(comm.rank())].write_step(comm.rank(), s, heat.output(),
                                                               heat.output_len());
    }
  });
  // Phase 2: load each step back and run the *same* analytics code.
  auto ana_stats = simmpi::launch(kRanks, [&](simmpi::Communicator& comm) {
    KMeansInit seed{init.data(), kK, kDims};
    KMeans<double> km(SchedArgs(2, kDims, &seed, kmeans_iters), kK, kDims);
    for (int s = 0; s < steps; ++s) {
      const auto data = stores[static_cast<std::size_t>(comm.rank())].read_step(comm.rank(), s);
      km.run(data.data(), data.size(), nullptr, 0);
    }
  });

  ModeResult r;
  r.total_wall = wall.seconds();
  r.makespan = sim_stats.makespan() + ana_stats.makespan();
  for (auto& store : stores) {
    r.io_seconds += store.write_seconds() + store.read_seconds();
    store.cleanup();
  }
  // I/O time is wall time each rank spends blocked on storage; fold the
  // per-rank average into the virtual makespan (storage is shared, so this
  // is the optimistic end).
  r.makespan += r.io_seconds / kRanks;
  return r;
}

}  // namespace

int harness_main() {
  using smart::Table;
  smart::bench::print_header(
      "Figure 1: in-situ vs offline k-means on Heat3D",
      "1 TB, 64 cores, k-means iterations 1/5/10/20, 10.4x max speedup",
      "4 ranks x 2 threads, ~" +
          smart::format_bytes(heat_params().nx * heat_params().ny * heat_params().nz_local *
                              sizeof(double) * kRanks) +
          " per step, 8 steps");

  const int steps = 8;
  Table table({"kmeans_iters", "insitu_total_s", "offline_total_s", "offline_io_s",
               "offline_vs_insitu_x", "insitu_makespan_s", "offline_makespan_s"});
  for (const int iters : {1, 5, 10, 20}) {
    const ModeResult insitu = run_insitu(steps, iters);
    const ModeResult offline = run_offline(steps, iters);
    table.begin_row();
    table.add(iters);
    table.add(insitu.total_wall, 3);
    table.add(offline.total_wall, 3);
    table.add(offline.io_seconds, 3);
    table.add(offline.total_wall / insitu.total_wall, 2);
    table.add(insitu.makespan, 4);
    table.add(offline.makespan, 4);
  }
  smart::bench::finish(table, "fig01", "total processing time, in-situ vs offline");
  std::cout << "Expectation (paper shape): offline > in-situ at every iteration count;\n"
               "the gap shrinks as analytics iterations grow (compute amortizes I/O).\n";
  return 0;
}

int main() { return smart::bench::guarded_main(harness_main); }
