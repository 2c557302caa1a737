// Core scheduler semantics (single rank): Algorithm 1's execution flow,
// chunking, error handling, statistics, cross-run behaviour, copy mode and
// the memory-tracker integration.
#include <gtest/gtest.h>

#include <numeric>

#include "analytics/grid_aggregation.h"
#include "analytics/histogram.h"
#include "analytics/kmeans.h"
#include "analytics/logistic_regression.h"
#include "analytics/mutual_information.h"
#include "analytics/reference.h"
#include "common/rng.h"
#include "core/scheduler.h"
#include "simmpi/world.h"

namespace smart {
namespace {

using analytics::GridAggregation;
using analytics::Histogram;
using analytics::KMeans;
using analytics::KMeansInit;
using analytics::LogisticRegression;
using analytics::MutualInformation;

std::vector<double> uniform_data(std::size_t n, std::uint64_t seed, double lo = 0.0,
                                 double hi = 100.0) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(lo, hi);
  return v;
}

TEST(Scheduler, RejectsBadArguments) {
  EXPECT_THROW(Histogram<double>(SchedArgs(2, 0), 0.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram<double>(SchedArgs(2, 1, nullptr, 0), 0.0, 1.0, 4),
               std::invalid_argument);
  EXPECT_THROW(Histogram<double>(SchedArgs(0, 1), 0.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram<double>(SchedArgs(2, 1), 1.0, 0.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram<double>(SchedArgs(2, 1), 0.0, 1.0, 0), std::invalid_argument);
}

TEST(Scheduler, ReductionChargesTheRankClockOnce) {
  // Leg 0 of the reduction runs on the rank thread, whose CPU time the
  // rank's virtual clock charges itself; the region adds only the rest of
  // its critical path.  Charging leg 0 again would count it twice, and
  // not charging the other legs would drop the critical path.
  const auto data = uniform_data(1 << 20, 6);
  RunOptions per_chunk;
  per_chunk.batch_chunks = 0;
  for (const int workers : {1, 2, 3}) {
    simmpi::launch(1, [&](simmpi::Communicator& comm) {
      Histogram<double> hist(SchedArgs(workers, 1), 0.0, 100.0, 64, per_chunk);
      const double v0 = comm.vclock();
      hist.run(data.data(), data.size(), nullptr, 0);
      const double charged = comm.vclock() - v0;
      const double reduction = hist.stats().reduction_seconds;
      EXPECT_GT(reduction, 0.0);
      EXPECT_GE(charged, 0.99 * reduction) << workers << " workers";
      EXPECT_LT(charged, 1.5 * reduction) << workers << " workers: charged " << charged
                                          << " s for a " << reduction << " s reduction";
    });
  }
}

TEST(Scheduler, HistogramMatchesReferenceSingleThread) {
  const auto data = uniform_data(10000, 1);
  Histogram<double> hist(SchedArgs(1, 1), 0.0, 100.0, 20);
  std::vector<std::size_t> out(20, 0);
  hist.run(data.data(), data.size(), out.data(), out.size());
  EXPECT_EQ(out, analytics::ref::histogram(data.data(), data.size(), 0.0, 100.0, 20));
}

TEST(Scheduler, CombinationMapExposesResults) {
  const auto data = uniform_data(1000, 2);
  Histogram<double> hist(SchedArgs(2, 1), 0.0, 100.0, 10);
  hist.run(data.data(), data.size(), nullptr, 0);  // output array optional
  const auto& map = hist.get_combination_map();
  std::size_t total = 0;
  for (const auto& [key, obj] : map) {
    EXPECT_GE(key, 0);
    EXPECT_LT(key, 10);
    total += static_cast<const analytics::Bucket&>(*obj).count;
  }
  EXPECT_EQ(total, data.size());
}

TEST(Scheduler, EachRunIsIndependentByDefault) {
  const auto data = uniform_data(500, 3);
  Histogram<double> hist(SchedArgs(2, 1), 0.0, 100.0, 8);
  hist.run(data.data(), data.size(), nullptr, 0);
  const auto first = analytics::ref::histogram(data.data(), data.size(), 0.0, 100.0, 8);
  hist.run(data.data(), data.size(), nullptr, 0);
  std::size_t total = 0;
  for (const auto& [key, obj] : hist.get_combination_map()) {
    total += static_cast<const analytics::Bucket&>(*obj).count;
  }
  // Second run replaces, not doubles (paper Listing 1: one launch per step).
  EXPECT_EQ(total, data.size());
  std::vector<std::size_t> out(8, 0);
  hist.run(data.data(), data.size(), out.data(), out.size());
  EXPECT_EQ(out, first);
}

TEST(Scheduler, AccumulateAcrossRunsMergesSteps) {
  const auto step1 = uniform_data(400, 4);
  const auto step2 = uniform_data(600, 5);
  RunOptions opts;
  opts.accumulate_across_runs = true;
  Histogram<double> hist(SchedArgs(2, 1), 0.0, 100.0, 8, opts);
  hist.run(step1.data(), step1.size(), nullptr, 0);
  hist.run(step2.data(), step2.size(), nullptr, 0);

  std::vector<double> all = step1;
  all.insert(all.end(), step2.begin(), step2.end());
  const auto expected = analytics::ref::histogram(all.data(), all.size(), 0.0, 100.0, 8);
  std::vector<std::size_t> out(8, 0);
  // A zero-length third run just converts the accumulated map.
  hist.run(all.data(), 0, out.data(), out.size());
  EXPECT_EQ(out, expected);
}

TEST(Scheduler, TrailingPartialChunkIsSkippedAndCounted) {
  // chunk_size 4 over 10 elements: 2 full chunks, 2 skipped elements.
  const auto data = uniform_data(10, 6);
  KMeansInit init;
  const std::vector<double> centroids = {0.0, 0.0, 0.0, 0.0, 100.0, 100.0, 100.0, 100.0};
  init.centroids = centroids.data();
  init.k = 2;
  init.dims = 4;
  KMeans<double> km(SchedArgs(1, 4, &init, 1), 2, 4);
  km.run(data.data(), data.size(), nullptr, 0);
  EXPECT_EQ(km.stats().chunks_processed, 2u);
  EXPECT_EQ(km.stats().elements_processed, 8u);
  EXPECT_EQ(km.stats().elements_skipped, 2u);
}

// Regression for the tail-chunk drop: in_len % chunk_size trailing elements
// used to vanish from structural aggregations without so much as a counter.
// Unless the app requires full chunks, they are processed as one short
// final chunk whose Chunk::length carries the true count.
TEST(Scheduler, TrailingElementsProcessedAsShortChunk) {
  // grid/chunk size 8 over 29 elements: 3 full chunks + a 5-element tail.
  const auto data = uniform_data(29, 21);
  GridAggregation<double> grid(SchedArgs(2, 8), 8);
  std::vector<double> out(4, -1.0);
  grid.run(data.data(), data.size(), out.data(), out.size());

  EXPECT_EQ(grid.stats().chunks_processed, 4u);
  EXPECT_EQ(grid.stats().elements_processed, data.size());
  EXPECT_EQ(grid.stats().elements_skipped, 0u);
  for (std::size_t cell = 0; cell < 4; ++cell) {
    const std::size_t begin = cell * 8;
    const std::size_t end = std::min<std::size_t>(begin + 8, data.size());
    const double mean = std::accumulate(data.begin() + begin, data.begin() + end, 0.0) /
                        static_cast<double>(end - begin);
    EXPECT_NEAR(out[cell], mean, 1e-12) << "cell " << cell;
  }
}

TEST(Scheduler, TailProcessingWorksAcrossContiguousSplits) {
  // 101 units (100 full chunks + the 3-element tail) over 3 workers: the
  // tail unit lands at the end of the last worker's contiguous split.
  const auto data = uniform_data(1003, 22);
  GridAggregation<double> grid(SchedArgs(3, 10), 10);
  std::vector<double> out(101, -1.0);
  grid.run(data.data(), data.size(), out.data(), out.size());
  EXPECT_EQ(grid.stats().chunks_processed, 101u);
  EXPECT_EQ(grid.stats().elements_processed, data.size());
  EXPECT_EQ(grid.stats().elements_skipped, 0u);
  const auto expected = analytics::ref::grid_aggregation(data.data(), data.size(), 10);
  ASSERT_EQ(expected.size(), out.size());
  for (std::size_t cell = 0; cell < out.size(); ++cell) {
    EXPECT_NEAR(out[cell], expected[cell], 1e-12) << "cell " << cell;
  }
}

TEST(Scheduler, RecordAppsForceTailOff) {
  // Logistic regression's chunk is a (features, label) row and mutual
  // information's an (x, y) pair: like k-means above, each declares
  // require_full_chunks(), so a ragged tail is skipped and counted, never
  // handed to accumulate as a partial record.
  const auto data = uniform_data(11, 6);
  LogisticRegression<double> lr(SchedArgs(1, 4), 3);  // 2 rows of 4, 3 left over
  lr.run(data.data(), data.size(), nullptr, 0);
  EXPECT_EQ(lr.stats().chunks_processed, 2u);
  EXPECT_EQ(lr.stats().elements_processed, 8u);
  EXPECT_EQ(lr.stats().elements_skipped, 3u);
  MutualInformation<double> mi(SchedArgs(1, 2), 0.0, 100.0, 4, 4);  // 5 pairs, 1 left over
  mi.run(data.data(), data.size(), nullptr, 0);
  EXPECT_EQ(mi.stats().chunks_processed, 5u);
  EXPECT_EQ(mi.stats().elements_processed, 10u);
  EXPECT_EQ(mi.stats().elements_skipped, 1u);
}

TEST(Scheduler, StatsTrackRunsAndChunks) {
  const auto data = uniform_data(1000, 7);
  Histogram<double> hist(SchedArgs(3, 1), 0.0, 100.0, 5);
  hist.run(data.data(), data.size(), nullptr, 0);
  hist.run(data.data(), data.size(), nullptr, 0);
  EXPECT_EQ(hist.stats().runs, 2u);
  EXPECT_EQ(hist.stats().chunks_processed, 2000u);
  EXPECT_GT(hist.stats().peak_reduction_objects, 0u);
  hist.reset_stats();
  EXPECT_EQ(hist.stats().runs, 0u);
}

TEST(Scheduler, CopyInputModeGivesIdenticalResults) {
  const auto data = uniform_data(5000, 8);
  Histogram<double> zero_copy(SchedArgs(2, 1), 0.0, 100.0, 16);
  RunOptions copy_opts;
  copy_opts.copy_input = true;
  Histogram<double> copying(SchedArgs(2, 1), 0.0, 100.0, 16, copy_opts);

  std::vector<std::size_t> out_a(16, 0), out_b(16, 0);
  zero_copy.run(data.data(), data.size(), out_a.data(), out_a.size());
  copying.run(data.data(), data.size(), out_b.data(), out_b.size());
  EXPECT_EQ(out_a, out_b);
  EXPECT_GT(copying.stats().copy_seconds, 0.0);
  EXPECT_DOUBLE_EQ(zero_copy.stats().copy_seconds, 0.0);
}

TEST(Scheduler, CopyInputModeChargesMemoryTracker) {
  // The 128 KiB input copy is the run's only large charge: the same run
  // without it peaks below the input's size, and with it at or above.
  auto& tracker = MemoryTracker::instance();
  const auto data = uniform_data(1 << 14, 9);
  const std::size_t input_bytes = data.size() * sizeof(double);
  tracker.reset();
  Histogram<double> zero_copy(SchedArgs(1, 1), 0.0, 100.0, 4);
  zero_copy.run(data.data(), data.size(), nullptr, 0);
  EXPECT_LT(tracker.peak(), input_bytes);
  tracker.reset();
  RunOptions copy_opts;
  copy_opts.copy_input = true;
  Histogram<double> copying(SchedArgs(1, 1), 0.0, 100.0, 4, copy_opts);
  copying.run(data.data(), data.size(), nullptr, 0);
  EXPECT_GE(tracker.peak(), input_bytes);
  tracker.reset();
}

TEST(Scheduler, ZeroLengthInputProducesEmptyResult) {
  Histogram<double> hist(SchedArgs(2, 1), 0.0, 100.0, 4);
  std::vector<std::size_t> out(4, 123);
  hist.run(nullptr, 0, out.data(), out.size());
  EXPECT_TRUE(hist.get_combination_map().empty());
  // Nothing was converted, so the output is untouched.
  EXPECT_EQ(out[0], 123u);
}

TEST(Scheduler, MoreThreadsThanChunksStillCorrect) {
  const auto data = uniform_data(3, 10);
  Histogram<double> hist(SchedArgs(8, 1), 0.0, 100.0, 4);
  std::vector<std::size_t> out(4, 0);
  hist.run(data.data(), data.size(), out.data(), out.size());
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), std::size_t{0}), 3u);
}

TEST(Scheduler, KMeansRequiresExtraData) {
  KMeans<double> km(SchedArgs(1, 2, nullptr, 1), 2, 2);
  const auto data = uniform_data(100, 11);
  EXPECT_THROW(km.run(data.data(), data.size(), nullptr, 0), std::invalid_argument);
}

TEST(Scheduler, KMeansIterativeMatchesReference) {
  const std::size_t dims = 3, k = 4, n = 2000;
  const int iters = 10;
  const auto data = uniform_data(n * dims, 12);
  std::vector<double> init_centroids(k * dims);
  for (std::size_t i = 0; i < init_centroids.size(); ++i) {
    init_centroids[i] = static_cast<double>(i * 17 % 100);
  }
  KMeansInit init{init_centroids.data(), k, dims};
  KMeans<double> km(SchedArgs(4, dims, &init, iters), k, dims);
  km.run(data.data(), data.size(), nullptr, 0);

  const auto expected = analytics::ref::kmeans(data.data(), n, dims, k, iters, init_centroids);
  const auto got = km.centroids();
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_NEAR(got[i], expected[i], 1e-9);
}

TEST(Scheduler, KMeansConvertWritesThroughPointers) {
  const std::size_t dims = 2, k = 2;
  const std::vector<double> data = {0.0, 0.0, 1.0, 1.0, 10.0, 10.0, 11.0, 11.0};
  const std::vector<double> init_centroids = {0.0, 0.0, 10.0, 10.0};
  KMeansInit init{init_centroids.data(), k, dims};
  KMeans<double> km(SchedArgs(2, dims, &init, 5), k, dims);

  std::vector<double> c0(dims), c1(dims);
  std::vector<double*> out = {c0.data(), c1.data()};
  km.run(data.data(), data.size(), out.data(), out.size());
  EXPECT_NEAR(c0[0], 0.5, 1e-12);
  EXPECT_NEAR(c0[1], 0.5, 1e-12);
  EXPECT_NEAR(c1[0], 10.5, 1e-12);
  EXPECT_NEAR(c1[1], 10.5, 1e-12);
}

TEST(Scheduler, GlobalCombinationFlagQueryable) {
  Histogram<double> hist(SchedArgs(1, 1), 0.0, 1.0, 2);
  EXPECT_TRUE(hist.global_combination());
  hist.set_global_combination(false);
  EXPECT_FALSE(hist.global_combination());
}

TEST(Scheduler, ResetCombinationMapClearsState) {
  const auto data = uniform_data(100, 13);
  Histogram<double> hist(SchedArgs(1, 1), 0.0, 100.0, 4);
  hist.run(data.data(), data.size(), nullptr, 0);
  EXPECT_FALSE(hist.get_combination_map().empty());
  hist.reset_combination_map();
  EXPECT_TRUE(hist.get_combination_map().empty());
}

// Property sweep: histogram equality against the reference for every
// combination of thread count and input size, including awkward ones.
class SchedulerThreadSweep
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(SchedulerThreadSweep, HistogramThreadCountInvariance) {
  const auto [threads, n] = GetParam();
  const auto data = uniform_data(n, 100 + n);
  Histogram<double> hist(SchedArgs(threads, 1), 0.0, 100.0, 13);
  std::vector<std::size_t> out(13, 0);
  hist.run(data.data(), data.size(), out.data(), out.size());
  EXPECT_EQ(out, analytics::ref::histogram(data.data(), data.size(), 0.0, 100.0, 13));
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndSizes, SchedulerThreadSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 7, 8),
                       ::testing::Values(std::size_t{1}, std::size_t{13}, std::size_t{1000},
                                         std::size_t{4096})));

}  // namespace
}  // namespace smart
