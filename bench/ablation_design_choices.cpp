// Ablation harness for Smart's design choices beyond the paper's figures
// (DESIGN.md flags these as the decisions worth isolating):
//
//   A. circular-buffer depth in space-sharing mode — how many cells are
//      needed before the producer stops stalling;
//   B. processing placement — in-situ vs in-transit vs hybrid, measured by
//      network traffic and staging-side work for the same analytics;
//   C. combination topology — Smart's map-based global combination vs the
//      flat-array allreduce a hand-written code uses (the Figure 6 gap,
//      isolated from the reduction phase).
#include <thread>

#include "analytics/histogram.h"
#include "baselines/lowlevel.h"
#include "bench/bench_util.h"
#include "core/intransit.h"
#include "sim/minilulesh.h"
#include "simmpi/world.h"

namespace {

using namespace smart;
using analytics::Histogram;

// --- A: buffer depth ---------------------------------------------------------

void ablate_buffer_depth() {
  const std::size_t step_len = smart::bench::scaled(1u << 16);
  constexpr int kSteps = 12;

  Table table({"cells", "wall_s", "producer_stall_ratio"});
  for (const std::size_t cells : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                  std::size_t{8}}) {
    RunOptions opts;
    opts.buffer_cells = cells;
    Histogram<double> hist(SchedArgs(1, 1), 0.0, 1.0, 64, opts);
    hist.set_global_combination(false);
    std::vector<double> step(step_len, 0.5);

    WallTimer wall;
    double feed_seconds = 0.0;
    std::thread producer([&] {
      WallTimer feeding;
      for (int s = 0; s < kSteps; ++s) hist.feed(step.data(), step.size());
      hist.close_feed();
      feed_seconds = feeding.seconds();
    });
    while (hist.run(nullptr, 0)) {
    }
    producer.join();
    const double total = wall.seconds();
    table.begin_row();
    table.add(cells);
    table.add(total, 4);
    table.add(feed_seconds / total, 2);
    (void)total;
  }
  smart::bench::finish(table, "ablation_buffer", "A: space-sharing circular-buffer depth");
}

// --- B: placement --------------------------------------------------------------

void ablate_placement() {
  const intransit::Topology topo{.world_size = 4, .num_staging = 1};
  const std::size_t edge = 16;
  constexpr int kSteps = 3;

  auto in_transit = [&](bool hybrid) {
    return simmpi::launch(topo.world_size, [&](simmpi::Communicator& comm) {
      if (!topo.is_staging(comm.rank())) {
        // Staging ranks run no simulation, so the simulation ranks use
        // decoupled per-rank domains here (a halo exchange would address
        // a staging rank); a production setup would carve a simulation
        // sub-communicator instead.
        sim::MiniLulesh lulesh({.edge = edge}, nullptr);
        Histogram<double> local(SchedArgs(1, 1), 0.0, 16.0, 64);
        local.set_global_combination(false);
        for (int s = 0; s < kSteps; ++s) {
          lulesh.step();
          if (hybrid) {
            intransit::ship_local_result(comm, topo, local, lulesh.output(),
                                         lulesh.output_len());
          } else {
            intransit::ship_raw_step(comm, topo, lulesh.output(), lulesh.output_len());
          }
        }
        intransit::ship_end(comm, topo);
      } else {
        RunOptions acc;
        acc.accumulate_across_runs = true;
        Histogram<double> staged(SchedArgs(1, 1), 0.0, 16.0, 64, acc);
        staged.set_global_combination(false);
        (void)intransit::stage_all(comm, topo, staged);
      }
    });
  };
  auto in_situ = [&] {
    return simmpi::launch(topo.num_sim(), [&](simmpi::Communicator& comm) {
      sim::MiniLulesh lulesh({.edge = edge}, &comm);
      Histogram<double> hist(SchedArgs(1, 1), 0.0, 16.0, 64);
      for (int s = 0; s < kSteps; ++s) {
        lulesh.step();
        hist.run(lulesh.output(), lulesh.output_len(), nullptr, 0);
      }
    });
  };

  Table table({"placement", "network_bytes", "makespan_s"});
  const auto situ = in_situ();
  table.begin_row();
  table.add("in_situ");
  table.add(format_bytes(situ.total_bytes_sent()));
  table.add(situ.makespan(), 4);
  const auto transit = in_transit(false);
  table.begin_row();
  table.add("in_transit_raw");
  table.add(format_bytes(transit.total_bytes_sent()));
  table.add(transit.makespan(), 4);
  const auto hybrid = in_transit(true);
  table.begin_row();
  table.add("hybrid_snapshots");
  table.add(format_bytes(hybrid.total_bytes_sent()));
  table.add(hybrid.makespan(), 4);
  smart::bench::finish(table, "ablation_placement",
                       "B: in-situ vs in-transit vs hybrid placement");
}

// --- C: combination topology -----------------------------------------------------

void ablate_combination() {
  // The same global synchronization payload expressed as (1) Smart's
  // serialized map combination and (2) the baseline's flat allreduce.
  const int entries = 1200;
  constexpr int kRounds = 50;

  Table table({"mechanism", "makespan_s", "bytes_per_round"});
  const auto map_stats = simmpi::launch(4, [&](simmpi::Communicator& comm) {
    Histogram<double> hist(SchedArgs(1, 1), 0.0, 1.0, entries);
    // Populate every bucket, then repeatedly run a zero-length block: only
    // the combination machinery executes.
    std::vector<double> data(static_cast<std::size_t>(entries));
    for (int i = 0; i < entries; ++i) {
      data[static_cast<std::size_t>(i)] = (i + 0.5) / entries;
    }
    hist.run(data.data(), data.size(), nullptr, 0);
    for (int r = 0; r < kRounds - 1; ++r) hist.run(data.data(), data.size(), nullptr, 0);
    (void)comm;
  });
  const auto flat_stats = simmpi::launch(4, [&](simmpi::Communicator& comm) {
    std::vector<double> local(static_cast<std::size_t>(entries), 1.0);
    for (int r = 0; r < kRounds; ++r) {
      auto global = comm.allreduce_sum(local);
      (void)global;
    }
  });
  table.begin_row();
  table.add("smart_map_combination");
  table.add(map_stats.makespan(), 4);
  table.add(format_bytes(map_stats.total_bytes_sent() / kRounds));
  table.begin_row();
  table.add("flat_allreduce");
  table.add(flat_stats.makespan(), 4);
  table.add(format_bytes(flat_stats.total_bytes_sent() / kRounds));
  smart::bench::finish(table, "ablation_combination",
                       "C: map combination vs flat allreduce (the Figure 6 gap, isolated)");
}

}  // namespace

int harness_main() {
  smart::bench::print_header("Ablation: design choices",
                             "not a paper figure; isolates DESIGN.md decision points",
                             "buffer depth, placement, combination topology");
  ablate_buffer_depth();
  ablate_placement();
  ablate_combination();
  std::cout << "Expectations: (A) stall ratio drops as cells grow, flattening after ~2-4;\n"
               "(B) hybrid ships orders of magnitude fewer bytes than raw in-transit while\n"
               "in-situ ships only combination traffic; (C) the map combination moves more\n"
               "bytes and time than the flat allreduce — the documented cost of Smart's\n"
               "flexible keyed objects (paper Section 5.3).\n";
  return 0;
}

int main() { return smart::bench::guarded_main(harness_main); }
