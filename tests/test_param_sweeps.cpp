// Broad parameter sweeps over the iterative analytics and the messaging
// substrate: k-means across (k, dims, iterations), logistic regression
// across (dim, learning rate), characterization of num_iters semantics for
// non-iterative apps, and randomized point-to-point stress on simmpi.
#include <gtest/gtest.h>

#include "analytics/histogram.h"
#include "analytics/kmeans.h"
#include "analytics/logistic_regression.h"
#include "analytics/reference.h"
#include "common/rng.h"
#include "simmpi/world.h"

namespace smart {
namespace {

using namespace analytics;

// --- k-means sweep -----------------------------------------------------------------

class KMeansSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, int>> {};

TEST_P(KMeansSweep, MatchesReference) {
  const auto [k, dims, iters] = GetParam();
  Rng rng(900 + k * 10 + dims);
  const std::size_t n = 800;
  const auto points = rng.gaussian_vector(n * dims, 0.0, 5.0);
  std::vector<double> init(k * dims);
  for (auto& c : init) c = rng.gaussian(0.0, 5.0);

  KMeansInit seed{init.data(), k, dims};
  KMeans<double> km(SchedArgs(3, dims, &seed, iters), k, dims);
  km.run(points.data(), points.size(), nullptr, 0);
  const auto expected = ref::kmeans(points.data(), n, dims, k, iters, init);
  const auto got = km.centroids();
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) ASSERT_NEAR(got[i], expected[i], 1e-8) << i;
}

INSTANTIATE_TEST_SUITE_P(Params, KMeansSweep,
                         ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{2},
                                                              std::size_t{8}, std::size_t{17}),
                                            ::testing::Values(std::size_t{1}, std::size_t{4},
                                                              std::size_t{64}),
                                            ::testing::Values(1, 3, 10)));

// --- logistic regression sweep --------------------------------------------------------

class LogRegSweep : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(LogRegSweep, MatchesReference) {
  const auto [dim, lr] = GetParam();
  Rng rng(910 + dim);
  const std::size_t n = 600;
  std::vector<double> records(n * (dim + 1));
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t d = 0; d < dim; ++d) records[r * (dim + 1) + d] = rng.gaussian();
    records[r * (dim + 1) + dim] = rng.uniform() < 0.5 ? 0.0 : 1.0;
  }
  LogisticRegression<double> reg(SchedArgs(2, dim + 1, nullptr, 6), dim, lr);
  reg.run(records.data(), records.size(), nullptr, 0);
  const auto expected = ref::logistic_regression(records.data(), n, dim, 6, lr, {});
  const auto w = reg.weights();
  for (std::size_t d = 0; d < dim; ++d) ASSERT_NEAR(w[d], expected[d], 1e-9) << d;
}

INSTANTIATE_TEST_SUITE_P(Params, LogRegSweep,
                         ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{5},
                                                              std::size_t{15}, std::size_t{40}),
                                            ::testing::Values(0.01, 0.5, 2.0)));

// --- num_iters characterization --------------------------------------------------------

TEST(NumItersSemantics, NonIterativeAppsViolateMergeIdentityUnderIterations) {
  // num_iters > 1 redistributes the combination map to every worker each
  // iteration (Algorithm 1 lines 3-6).  Apps whose post_combine does NOT
  // reset the accumulators to merge identity — like a plain histogram —
  // therefore multiply their state by the worker count per iteration:
  // with 2 workers, totals go 1000 -> 2*1000+1000 -> 2*3000+1000 = 7000.
  // This characterization test pins why scheduler.h documents the
  // merge-identity contract for iterative use.
  Rng rng(920);
  std::vector<double> data(1000);
  for (auto& x : data) x = rng.uniform(0.0, 1.0);
  Histogram<double> hist(SchedArgs(2, 1, nullptr, 3), 0.0, 1.0, 4);
  hist.run(data.data(), data.size(), nullptr, 0);
  std::size_t total = 0;
  for (const auto& [key, obj] : hist.get_combination_map()) {
    total += static_cast<const Bucket&>(*obj).count;
  }
  EXPECT_EQ(total, 7 * data.size());
}

TEST(NumItersSemantics, IterativeAppsConvergeNotAccumulate) {
  // The k-means map hands back at merge identity every iteration, so extra
  // iterations refine rather than double-count.
  Rng rng(921);
  const std::size_t n = 500, dims = 2, k = 2;
  const auto points = rng.gaussian_vector(n * dims, 0.0, 3.0);
  const std::vector<double> init = {-1.0, -1.0, 1.0, 1.0};
  KMeansInit seed{init.data(), k, dims};
  KMeans<double> km(SchedArgs(2, dims, &seed, 20), k, dims);
  km.run(points.data(), points.size(), nullptr, 0);
  std::size_t assigned = 0;
  for (const auto& [key, obj] : km.get_combination_map()) {
    // After post_combine the sizes are reset; re-derive assignment counts
    // by one more pass through the reference to cross-check convergence.
    (void)key;
    (void)obj;
    ++assigned;
  }
  EXPECT_EQ(assigned, k);
  const auto expected = ref::kmeans(points.data(), n, dims, k, 20, init);
  const auto got = km.centroids();
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_NEAR(got[i], expected[i], 1e-8);
}

// --- simmpi randomized stress -----------------------------------------------------------

TEST(SimmpiStress, RandomizedPointToPointPatterns) {
  // Every rank sends a random number of tagged messages to random peers,
  // then receives exactly what it was sent (counts are exchanged first).
  constexpr int kRanks = 5;
  simmpi::launch(kRanks, [](simmpi::Communicator& comm) {
    Rng rng(derive_seed(930, static_cast<std::uint64_t>(comm.rank())));
    // Decide messages: up to 20, each to a random peer with a random tag.
    std::vector<std::vector<std::pair<int, int>>> outgoing(kRanks);  // (tag, value)
    const int count = static_cast<int>(rng.uniform_int(0, 20));
    for (int m = 0; m < count; ++m) {
      const int dest = static_cast<int>(rng.uniform_int(0, kRanks - 1));
      const int tag = static_cast<int>(rng.uniform_int(0, 3));
      outgoing[static_cast<std::size_t>(dest)].emplace_back(tag, comm.rank() * 1000 + m);
    }
    // Announce per-peer counts.
    for (int peer = 0; peer < kRanks; ++peer) {
      comm.send_value(peer, 100, static_cast<int>(outgoing[static_cast<std::size_t>(peer)].size()));
    }
    // Ship payloads.
    for (int peer = 0; peer < kRanks; ++peer) {
      for (const auto& [tag, value] : outgoing[static_cast<std::size_t>(peer)]) {
        comm.send_value(peer, tag, value);
      }
    }
    // Drain: sum of announced counts, any source/tag.
    int expected = 0;
    for (int peer = 0; peer < kRanks; ++peer) expected += comm.recv_value<int>(peer, 100);
    int received = 0;
    for (int m = 0; m < expected; ++m) {
      int tag = -1;
      (void)comm.recv(simmpi::kAnySource, simmpi::kAnyTag, nullptr, &tag);
      ASSERT_GE(tag, 0);
      ASSERT_LE(tag, 3);
      ++received;
    }
    EXPECT_EQ(received, expected);
    comm.barrier();
  });
}

TEST(SimmpiStress, ManySmallCollectivesInterleaved) {
  simmpi::launch(4, [](simmpi::Communicator& comm) {
    for (int round = 0; round < 50; ++round) {
      std::vector<int> v = {comm.rank() + round};
      const auto sum = comm.allreduce_sum(v);
      EXPECT_EQ(sum[0], 0 + 1 + 2 + 3 + 4 * round);
      comm.barrier();
      SharedBuffer b;
      if (comm.rank() == round % 4) {
        Buffer bytes;
        Writer(bytes).write(round);
        b = make_shared_buffer(std::move(bytes));
      }
      comm.bcast_shared(b, round % 4);
      EXPECT_EQ(Reader(b).read<int>(), round);
    }
  });
}

}  // namespace
}  // namespace smart
