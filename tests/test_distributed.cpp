// Distributed-mode tests: the Smart scheduler launched from a simmpi SPMD
// region.  The key property is rank-count invariance — the globally
// combined result over any partitioning equals the serial result — plus
// the global-combination on/off semantics and serialization traffic.
#include <gtest/gtest.h>

#include "analytics/histogram.h"
#include "analytics/kmeans.h"
#include "analytics/logistic_regression.h"
#include "analytics/moving_average.h"
#include "analytics/mutual_information.h"
#include "analytics/reference.h"
#include "common/rng.h"
#include "core/scheduler.h"
#include "simmpi/world.h"

namespace smart {
namespace {

using namespace analytics;

std::vector<double> uniform_data(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(0.0, 100.0);
  return v;
}

/// Splits `data` into `nranks` near-equal contiguous partitions, aligned
/// to `align` elements (records must not straddle ranks).
std::pair<std::size_t, std::size_t> partition(std::size_t n, int nranks, int rank,
                                              std::size_t align) {
  const std::size_t records = n / align;
  const std::size_t base = records / static_cast<std::size_t>(nranks);
  const std::size_t extra = records % static_cast<std::size_t>(nranks);
  const auto r = static_cast<std::size_t>(rank);
  const std::size_t begin = r * base + std::min(r, extra);
  const std::size_t end = begin + base + (r < extra ? 1 : 0);
  return {begin * align, (end - begin) * align};
}

class DistributedRanks : public ::testing::TestWithParam<int> {};

TEST_P(DistributedRanks, HistogramGloballyCombinesAcrossRanks) {
  const int nranks = GetParam();
  const auto data = uniform_data(12000, 61);
  const auto expected = ref::histogram(data.data(), data.size(), 0.0, 100.0, 32);

  simmpi::launch(nranks, [&](simmpi::Communicator& comm) {
    const auto [offset, len] = partition(data.size(), comm.size(), comm.rank(), 1);
    Histogram<double> hist(SchedArgs(2, 1), 0.0, 100.0, 32);
    std::vector<std::size_t> out(32, 0);
    hist.run(data.data() + offset, len, out.data(), out.size());
    // Every rank holds the global result after global combination.
    EXPECT_EQ(out, expected) << "rank " << comm.rank();
    if (comm.size() > 1) {
      EXPECT_GT(hist.stats().bytes_serialized, 0u);
    }
  });
}

TEST_P(DistributedRanks, IterativeKMeansMatchesSerialReference) {
  const int nranks = GetParam();
  const std::size_t dims = 4, k = 8, n = 3000;
  const int iters = 10;
  const auto data = uniform_data(n * dims, 62);
  std::vector<double> init(k * dims);
  for (std::size_t i = 0; i < init.size(); ++i) init[i] = static_cast<double>((i * 37) % 100);
  const auto expected = ref::kmeans(data.data(), n, dims, k, iters, init);

  simmpi::launch(nranks, [&](simmpi::Communicator& comm) {
    const auto [offset, len] = partition(data.size(), comm.size(), comm.rank(), dims);
    KMeansInit seed{init.data(), k, dims};
    KMeans<double> km(SchedArgs(2, dims, &seed, iters), k, dims);
    km.run(data.data() + offset, len, nullptr, 0);
    const auto got = km.centroids();
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_NEAR(got[i], expected[i], 1e-8) << "rank " << comm.rank() << " i=" << i;
    }
  });
}

TEST_P(DistributedRanks, LogisticRegressionMatchesSerialReference) {
  const int nranks = GetParam();
  const std::size_t dim = 6, n = 2400;
  const int iters = 5;
  Rng rng(63);
  std::vector<double> data(n * (dim + 1));
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t d = 0; d < dim; ++d) data[r * (dim + 1) + d] = rng.gaussian();
    data[r * (dim + 1) + dim] = rng.uniform() < 0.5 ? 0.0 : 1.0;
  }
  const auto expected = ref::logistic_regression(data.data(), n, dim, iters, 0.3, {});

  simmpi::launch(nranks, [&](simmpi::Communicator& comm) {
    const auto [offset, len] = partition(data.size(), comm.size(), comm.rank(), dim + 1);
    LogisticRegression<double> reg(SchedArgs(2, dim + 1, nullptr, iters), dim, 0.3);
    reg.run(data.data() + offset, len, nullptr, 0);
    const auto w = reg.weights();
    for (std::size_t d = 0; d < dim; ++d) {
      ASSERT_NEAR(w[d], expected[d], 1e-9) << "rank " << comm.rank();
    }
  });
}

TEST_P(DistributedRanks, MutualInformationAcrossRanks) {
  const int nranks = GetParam();
  Rng rng(64);
  const std::size_t pairs = 6000;
  std::vector<double> data(2 * pairs);
  for (std::size_t p = 0; p < pairs; ++p) {
    const double x = rng.uniform(0.0, 10.0);
    data[2 * p] = x;
    data[2 * p + 1] = 10.0 - x + rng.gaussian(0.0, 0.5);
  }
  const double expected = ref::mutual_information(data.data(), pairs, 0.0, 10.0, 16, 16);

  simmpi::launch(nranks, [&](simmpi::Communicator& comm) {
    const auto [offset, len] = partition(data.size(), comm.size(), comm.rank(), 2);
    MutualInformation<double> mi(SchedArgs(2, 2), 0.0, 10.0, 16, 16);
    mi.run(data.data() + offset, len, nullptr, 0);
    EXPECT_NEAR(mi.mi(), expected, 1e-9) << "rank " << comm.rank();
  });
}

TEST_P(DistributedRanks, GlobalCombinationOffKeepsLocalResults) {
  const int nranks = GetParam();
  const auto data = uniform_data(4000, 65);

  simmpi::launch(nranks, [&](simmpi::Communicator& comm) {
    const auto [offset, len] = partition(data.size(), comm.size(), comm.rank(), 1);
    Histogram<double> hist(SchedArgs(2, 1), 0.0, 100.0, 16);
    hist.set_global_combination(false);
    hist.run(data.data() + offset, len, nullptr, 0);
    std::size_t local_total = 0;
    for (const auto& [key, obj] : hist.get_combination_map()) {
      local_total += static_cast<const Bucket&>(*obj).count;
    }
    // Only this rank's partition was counted — the per-partition output
    // mode used by MapReduce pipelines (paper Section 3.1).
    EXPECT_EQ(local_total, len);
    EXPECT_EQ(hist.stats().bytes_serialized, 0u);
  });
}

TEST_P(DistributedRanks, WindowAnalyticsRunPerPartition) {
  const int nranks = GetParam();
  const auto data = uniform_data(3000, 66);

  simmpi::launch(nranks, [&](simmpi::Communicator& comm) {
    const auto [offset, len] = partition(data.size(), comm.size(), comm.rank(), 1);
    MovingAverage<double> ma(SchedArgs(2, 1), 7);
    std::vector<double> out(len, 0.0);
    ma.run2(data.data() + offset, len, out.data(), out.size());
    const auto expected = ref::moving_average(data.data() + offset, len, 7);
    for (std::size_t i = 0; i < len; ++i) {
      ASSERT_NEAR(out[i], expected[i], 1e-9) << "rank " << comm.rank() << " i=" << i;
    }
  });
}

TEST_P(DistributedRanks, UnevenPartitionsStillExact) {
  const int nranks = GetParam();
  // A deliberately rank-unfriendly size.
  const auto data = uniform_data(997, 67);
  const auto expected = ref::histogram(data.data(), data.size(), 0.0, 100.0, 7);

  simmpi::launch(nranks, [&](simmpi::Communicator& comm) {
    const auto [offset, len] = partition(data.size(), comm.size(), comm.rank(), 1);
    Histogram<double> hist(SchedArgs(3, 1), 0.0, 100.0, 7);
    std::vector<std::size_t> out(7, 0);
    hist.run(data.data() + offset, len, out.data(), out.size());
    EXPECT_EQ(out, expected);
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, DistributedRanks, ::testing::Values(1, 2, 3, 4, 6));

// --- single-pass global combination ----------------------------------------
//
// The rework replaced the Buffer-lambda allreduce (deserialize + merge +
// serialize at every tree hop) with MapCombiner.  These tests pin down the
// two promises: (1) the codec invariant — at most one full-map serialize
// and one full-map deserialize per rank per combination round; (2) results
// identical to the legacy path, bit-exact.

/// Exposes the protected merge() so tests can drive combination algorithms
/// directly over an app's reduction objects.
template <class App>
struct ExposeMerge : App {
  using App::App;
  MergeFn exposed_merge() {
    return [this](const RedObj& red, std::unique_ptr<RedObj>& com) { this->merge(red, com); };
  }
};

/// The pre-rework global combination, verbatim: a Buffer-level allreduce
/// whose combiner pays a full deserialize/merge/serialize at every hop.
Buffer legacy_allreduce(simmpi::Communicator& comm, Buffer local, const MergeFn& merge) {
  const SharedBuffer out =
      comm.allreduce_shared(std::move(local), [&](const Buffer& a, const Buffer& b) {
        CombinationMap ma = deserialize_map(a);
        CombinationMap mb = deserialize_map(b);
        merge_map_into(std::move(mb), ma, merge);
        Buffer merged;
        serialize_map(ma, merged);
        return merged;
      });
  return Buffer(out.data(), out.data() + out.size());
}

/// Runs `app` on this rank's partition with global combination off, then
/// combines the per-rank snapshots two ways — legacy Buffer-lambda and
/// MapCombiner's tree — and cross-checks.  The tree must be bit-exact
/// against legacy (same binomial schedule, same merge order).
template <class App>
void check_combination_equivalence(simmpi::Communicator& comm, ExposeMerge<App>& app,
                                   const std::vector<double>& data, std::size_t align,
                                   bool multi_key) {
  app.set_global_combination(false);
  const auto [offset, len] = partition(data.size(), comm.size(), comm.rank(), align);
  if (multi_key) {
    app.run2(data.data() + offset, len, nullptr, 0);
  } else {
    app.run(data.data() + offset, len, nullptr, 0);
  }
  const Buffer local = app.snapshot();
  const MergeFn merge = app.exposed_merge();

  const Buffer legacy = legacy_allreduce(comm, Buffer(local), merge);

  CombinationMap tree_map = deserialize_map(local);
  MapCombiner tree;
  const MapCombineStats ts = tree.allreduce(comm, tree_map, merge);
  Buffer tree_bytes;
  serialize_map(tree_map, tree_bytes);
  EXPECT_EQ(tree_bytes, legacy) << "tree result differs from legacy on rank " << comm.rank();
  EXPECT_LE(ts.map_serializes, 1u);
  EXPECT_LE(ts.map_deserializes, 1u);
}

TEST_P(DistributedRanks, CombinationEquivalenceHistogram) {
  const auto data = uniform_data(5000, 71);
  simmpi::launch(GetParam(), [&](simmpi::Communicator& comm) {
    ExposeMerge<Histogram<double>> app(SchedArgs(2, 1), 0.0, 100.0, 24);
    check_combination_equivalence(comm, app, data, 1, /*multi_key=*/false);
  });
}

TEST_P(DistributedRanks, CombinationEquivalenceKMeans) {
  const std::size_t dims = 4, k = 8;
  const auto data = uniform_data(2000 * dims, 72);
  std::vector<double> init(k * dims);
  for (std::size_t i = 0; i < init.size(); ++i) init[i] = static_cast<double>((i * 41) % 100);
  simmpi::launch(GetParam(), [&](simmpi::Communicator& comm) {
    KMeansInit seed{init.data(), k, dims};
    ExposeMerge<KMeans<double>> app(SchedArgs(2, dims, &seed), k, dims);
    check_combination_equivalence(comm, app, data, dims, /*multi_key=*/false);
  });
}

TEST_P(DistributedRanks, CombinationEquivalenceLogisticRegression) {
  const std::size_t dim = 6;
  const auto data = uniform_data(1200 * (dim + 1), 73);
  simmpi::launch(GetParam(), [&](simmpi::Communicator& comm) {
    ExposeMerge<LogisticRegression<double>> app(SchedArgs(2, dim + 1), dim, 0.3);
    check_combination_equivalence(comm, app, data, dim + 1, /*multi_key=*/false);
  });
}

TEST_P(DistributedRanks, CombinationEquivalenceMutualInformation) {
  const auto data = uniform_data(4000, 74);
  simmpi::launch(GetParam(), [&](simmpi::Communicator& comm) {
    ExposeMerge<MutualInformation<double>> app(SchedArgs(2, 2), 0.0, 100.0, 12, 12);
    check_combination_equivalence(comm, app, data, 2, /*multi_key=*/false);
  });
}

TEST_P(DistributedRanks, CombinationEquivalenceMovingAverage) {
  const auto data = uniform_data(1500, 75);
  simmpi::launch(GetParam(), [&](simmpi::Communicator& comm) {
    // Early emission off so the combination map is non-trivial.
    RunOptions opts;
    opts.enable_trigger = false;
    ExposeMerge<MovingAverage<double>> app(SchedArgs(2, 1), 5, opts);
    check_combination_equivalence(comm, app, data, 1, /*multi_key=*/true);
  });
}

TEST_P(DistributedRanks, SinglePassCodecInvariant) {
  const int nranks = GetParam();
  const auto data = uniform_data(6000, 76);
  simmpi::launch(nranks, [&](simmpi::Communicator& comm) {
    const auto [offset, len] = partition(data.size(), comm.size(), comm.rank(), 1);
    Histogram<double> hist(SchedArgs(2, 1), 0.0, 100.0, 32);
    hist.run(data.data() + offset, len, nullptr, 0);
    const RunStats& s = hist.stats();
    if (comm.size() > 1) {
      EXPECT_EQ(s.global_combinations, 1u);
      // The tentpole invariant: at most one full-map codec pass per round.
      EXPECT_LE(s.map_serializes, s.global_combinations);
      EXPECT_LE(s.map_deserializes, s.global_combinations);
      // Interior tree nodes absorb peer entries; leaves only send.
      if (comm.rank() == 0) {
        EXPECT_GT(s.map_merges, 0u);
      }
      EXPECT_GT(s.wire_bytes, 0u);
    } else {
      EXPECT_EQ(s.map_serializes, 0u);
      EXPECT_EQ(s.map_deserializes, 0u);
      EXPECT_EQ(s.wire_bytes, 0u);
    }
  });
}

TEST_P(DistributedRanks, SinglePassCodecInvariantIterative) {
  const int nranks = GetParam();
  const std::size_t dims = 4, k = 8, n = 1000;
  const int iters = 10;
  const auto data = uniform_data(n * dims, 77);
  std::vector<double> init(k * dims);
  for (std::size_t i = 0; i < init.size(); ++i) init[i] = static_cast<double>((i * 37) % 100);
  simmpi::launch(nranks, [&](simmpi::Communicator& comm) {
    const auto [offset, len] = partition(data.size(), comm.size(), comm.rank(), dims);
    KMeansInit seed{init.data(), k, dims};
    KMeans<double> km(SchedArgs(2, dims, &seed, iters), k, dims);
    km.run(data.data() + offset, len, nullptr, 0);
    const RunStats& s = km.stats();
    if (comm.size() > 1) {
      EXPECT_EQ(s.global_combinations, static_cast<std::size_t>(iters));
      EXPECT_LE(s.map_serializes, s.global_combinations);
      EXPECT_LE(s.map_deserializes, s.global_combinations);
    }
  });
}

TEST(DistributedStats, LaunchStatsReportTraffic) {
  const auto data = uniform_data(2000, 68);
  const auto stats = simmpi::launch(4, [&](simmpi::Communicator& comm) {
    const auto [offset, len] = partition(data.size(), comm.size(), comm.rank(), 1);
    Histogram<double> hist(SchedArgs(1, 1), 0.0, 100.0, 8);
    hist.run(data.data() + offset, len, nullptr, 0);
  });
  EXPECT_GT(stats.total_bytes_sent(), 0u);
  EXPECT_GT(stats.makespan(), 0.0);
  EXPECT_EQ(stats.rank_vtime.size(), 4u);
}

}  // namespace
}  // namespace smart
