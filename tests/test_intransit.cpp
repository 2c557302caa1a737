// Tests for the in-transit / hybrid processing extension (core/intransit.h).
#include <gtest/gtest.h>

#include "analytics/histogram.h"
#include "analytics/mutual_information.h"
#include "analytics/reference.h"
#include "common/rng.h"
#include "core/intransit.h"
#include "simmpi/world.h"

namespace smart {
namespace {

using namespace analytics;

TEST(Topology, SplitsAndAssignsRanks) {
  intransit::Topology topo{.world_size = 6, .num_staging = 2};
  topo.validate();
  EXPECT_EQ(topo.num_sim(), 4);
  EXPECT_FALSE(topo.is_staging(3));
  EXPECT_TRUE(topo.is_staging(4));
  EXPECT_TRUE(topo.is_staging(5));
  EXPECT_EQ(topo.staging_of(0), 4);
  EXPECT_EQ(topo.staging_of(1), 5);
  EXPECT_EQ(topo.staging_of(2), 4);
  EXPECT_EQ(topo.producers_of(4), (std::vector<int>{0, 2}));
  EXPECT_EQ(topo.producers_of(5), (std::vector<int>{1, 3}));
}

TEST(Topology, RejectsDegenerateSplits) {
  intransit::Topology none{.world_size = 4, .num_staging = 0};
  EXPECT_THROW(none.validate(), std::invalid_argument);
  intransit::Topology all{.world_size = 4, .num_staging = 4};
  EXPECT_THROW(all.validate(), std::invalid_argument);
}

TEST(InTransit, RawShippingMatchesSerialHistogram) {
  // 3 sim ranks + 1 staging rank; the staged histogram over all shipped
  // steps equals the serial histogram over the concatenated data.
  constexpr int kWorld = 4;
  const intransit::Topology topo{.world_size = kWorld, .num_staging = 1};
  constexpr int kSteps = 3;
  constexpr std::size_t kLen = 2000;

  // Deterministic per-(rank, step) payloads.
  auto payload = [&](int rank, int step) {
    Rng rng(derive_seed(500, static_cast<std::uint64_t>(rank * 10 + step)));
    std::vector<double> v(kLen);
    for (auto& x : v) x = rng.uniform(0.0, 100.0);
    return v;
  };
  std::vector<double> all;
  for (int r = 0; r < topo.num_sim(); ++r) {
    for (int s = 0; s < kSteps; ++s) {
      const auto v = payload(r, s);
      all.insert(all.end(), v.begin(), v.end());
    }
  }
  const auto expected = ref::histogram(all.data(), all.size(), 0.0, 100.0, 16);

  simmpi::launch(kWorld, [&](simmpi::Communicator& comm) {
    if (!topo.is_staging(comm.rank())) {
      for (int s = 0; s < kSteps; ++s) {
        const auto v = payload(comm.rank(), s);
        intransit::ship_raw_step(comm, topo, v.data(), v.size());
      }
      intransit::ship_end(comm, topo);
    } else {
      RunOptions acc;
      acc.accumulate_across_runs = true;
      Histogram<double> hist(SchedArgs(2, 1), 0.0, 100.0, 16, acc);
      hist.set_global_combination(false);
      const std::size_t n = intransit::stage_all(comm, topo, hist);
      EXPECT_EQ(n, static_cast<std::size_t>(kSteps * topo.num_sim()));
      std::vector<std::size_t> out(16, 0);
      hist.run(nullptr, 0, out.data(), out.size());
      EXPECT_EQ(out, expected);
    }
  });
}

TEST(InTransit, HybridSnapshotsMatchSerialHistogram) {
  // Hybrid: sim ranks reduce locally and ship only snapshots.
  constexpr int kWorld = 5;
  const intransit::Topology topo{.world_size = kWorld, .num_staging = 2};
  constexpr std::size_t kLen = 3000;

  auto payload = [&](int rank) {
    Rng rng(derive_seed(600, static_cast<std::uint64_t>(rank)));
    std::vector<double> v(kLen);
    for (auto& x : v) x = rng.uniform(0.0, 100.0);
    return v;
  };
  std::vector<double> all;
  for (int r = 0; r < topo.num_sim(); ++r) {
    const auto v = payload(r);
    all.insert(all.end(), v.begin(), v.end());
  }
  const auto expected = ref::histogram(all.data(), all.size(), 0.0, 100.0, 10);

  simmpi::launch(kWorld, [&](simmpi::Communicator& comm) {
    if (!topo.is_staging(comm.rank())) {
      Histogram<double> local(SchedArgs(2, 1), 0.0, 100.0, 10);
      local.set_global_combination(false);
      const auto v = payload(comm.rank());
      intransit::ship_local_result(comm, topo, local, v.data(), v.size());
      intransit::ship_end(comm, topo);
    } else {
      Histogram<double> staged(SchedArgs(1, 1), 0.0, 100.0, 10);
      staged.set_global_combination(false);
      (void)intransit::stage_all(comm, topo, staged);
      intransit::combine_across_staging(comm, topo, staged);
      // Every staging rank ends with the global histogram.
      std::vector<std::size_t> out(10, 0);
      staged.convert_combination_map(out.data(), out.size());
      EXPECT_EQ(out, expected) << "staging rank " << comm.rank();
    }
  });
}

TEST(InTransit, HybridShipsFarLessThanRaw) {
  // The point of hybrid mode: snapshot traffic << raw traffic.
  constexpr int kWorld = 3;
  const intransit::Topology topo{.world_size = kWorld, .num_staging = 1};
  constexpr std::size_t kLen = 50000;

  auto run = [&](bool hybrid) {
    return simmpi::launch(kWorld, [&](simmpi::Communicator& comm) {
      if (!topo.is_staging(comm.rank())) {
        Rng rng(derive_seed(700, static_cast<std::uint64_t>(comm.rank())));
        std::vector<double> v(kLen);
        for (auto& x : v) x = rng.uniform(0.0, 1.0);
        if (hybrid) {
          Histogram<double> local(SchedArgs(1, 1), 0.0, 1.0, 8);
          local.set_global_combination(false);
          intransit::ship_local_result(comm, topo, local, v.data(), v.size());
        } else {
          intransit::ship_raw_step(comm, topo, v.data(), v.size());
        }
        intransit::ship_end(comm, topo);
      } else {
        RunOptions acc;
        acc.accumulate_across_runs = true;
        Histogram<double> staged(SchedArgs(1, 1), 0.0, 1.0, 8, acc);
        staged.set_global_combination(false);
        (void)intransit::stage_all(comm, topo, staged);
      }
    });
  };
  const auto raw = run(false);
  const auto hybrid = run(true);
  EXPECT_LT(hybrid.total_bytes_sent() * 100, raw.total_bytes_sent())
      << "snapshots should be >100x smaller than raw steps here";
}

TEST(InTransit, StageAllRejectsGlobalCombination) {
  const intransit::Topology topo{.world_size = 2, .num_staging = 1};
  simmpi::launch(2, [&](simmpi::Communicator& comm) {
    if (topo.is_staging(comm.rank())) {
      Histogram<double> hist(SchedArgs(1, 1), 0.0, 1.0, 4);
      EXPECT_THROW((void)intransit::stage_all(comm, topo, hist), std::logic_error);
    } else {
      intransit::ship_end(comm, topo);  // keep the staging mailbox clean
    }
  });
}

}  // namespace
}  // namespace smart
