// Tests for the structural analytics (3-D block aggregation, 2-D windowed
// moving average), thread-count invariance of the contiguous splits, and
// the offline BlockReader.
#include <gtest/gtest.h>

#include <cstdio>

#include "analytics/block_aggregation.h"
#include "analytics/histogram.h"
#include "analytics/moving_average.h"
#include "analytics/moving_average_2d.h"
#include "analytics/reference.h"
#include "baselines/offline.h"
#include "common/rng.h"
#include "sim/heat3d.h"

namespace smart {
namespace {

using namespace analytics;

std::vector<double> random_slab(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(0.0, 100.0);
  return v;
}

// --- 3-D block aggregation -----------------------------------------------------

class BlockAggSweep : public ::testing::TestWithParam<int> {};

TEST_P(BlockAggSweep, MatchesReferenceOnRandomSlab) {
  const int threads = GetParam();
  const std::size_t nx = 16, ny = 12, nz = 8;
  const auto data = random_slab(nx * ny * nz, 501);
  BlockAggregation<double>::Shape shape{.nx = nx, .ny = ny, .nz = nz, .bx = 4, .by = 3, .bz = 2};
  BlockAggregation<double> agg(SchedArgs(threads, 1), shape);
  ASSERT_EQ(agg.num_blocks(), 4u * 4u * 4u);
  std::vector<double> out(agg.num_blocks(), 0.0);
  agg.run(data.data(), data.size(), out.data(), out.size());
  const auto expected = ref::block_aggregation(data.data(), nx, ny, nz, 4, 3, 2);
  for (std::size_t i = 0; i < out.size(); ++i) ASSERT_NEAR(out[i], expected[i], 1e-9) << i;
}

INSTANTIATE_TEST_SUITE_P(Threads, BlockAggSweep, ::testing::Values(1, 2, 4, 8));

TEST(BlockAggregation, DownsamplesLiveHeat3D) {
  sim::Heat3D heat({.nx = 16, .ny = 16, .nz_local = 8}, nullptr);
  for (int s = 0; s < 15; ++s) heat.step();
  BlockAggregation<double>::Shape shape{.nx = 16, .ny = 16, .nz = 8, .bx = 4, .by = 4, .bz = 2};
  BlockAggregation<double> agg(SchedArgs(2, 1), shape);
  std::vector<double> out(agg.num_blocks(), 0.0);
  agg.run(heat.output(), heat.output_len(), out.data(), out.size());
  const auto expected = ref::block_aggregation(heat.output(), 16, 16, 8, 4, 4, 2);
  for (std::size_t i = 0; i < out.size(); ++i) ASSERT_NEAR(out[i], expected[i], 1e-12);
  // Physical sanity: with a hot bottom plane, bottom-layer blocks are
  // warmer on average than top-layer blocks.
  double bottom = 0.0, top = 0.0;
  for (std::size_t i = 0; i < 16; ++i) {
    bottom += out[i];
    top += out[out.size() - 16 + i];
  }
  EXPECT_GT(bottom, top);
}

TEST(BlockAggregation, RejectsNonTilingBlocks) {
  BlockAggregation<double>::Shape bad{.nx = 10, .ny = 10, .nz = 10, .bx = 3, .by = 2, .bz = 2};
  EXPECT_THROW(BlockAggregation<double>(SchedArgs(1, 1), bad), std::invalid_argument);
  BlockAggregation<double>::Shape zero{.nx = 0, .ny = 4, .nz = 4, .bx = 1, .by = 1, .bz = 1};
  EXPECT_THROW(BlockAggregation<double>(SchedArgs(1, 1), zero), std::invalid_argument);
}

TEST(BlockAggregation, TrivialBlocksAreIdentity) {
  const auto data = random_slab(4 * 4 * 4, 502);
  BlockAggregation<double>::Shape shape{.nx = 4, .ny = 4, .nz = 4, .bx = 1, .by = 1, .bz = 1};
  BlockAggregation<double> agg(SchedArgs(2, 1), shape);
  std::vector<double> out(64, 0.0);
  agg.run(data.data(), data.size(), out.data(), out.size());
  for (std::size_t i = 0; i < 64; ++i) EXPECT_DOUBLE_EQ(out[i], data[i]);
}

// --- 2-D moving average -----------------------------------------------------------

class MovingAvg2DSweep : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(MovingAvg2DSweep, MatchesReference) {
  const auto [threads, window] = GetParam();
  const std::size_t nx = 24, ny = 18;
  const auto data = random_slab(nx * ny, 503);
  MovingAverage2D<double> ma(SchedArgs(threads, 1), nx, ny, window);
  std::vector<double> out(data.size(), 0.0);
  ma.run2(data.data(), data.size(), out.data(), out.size());
  const auto expected = ref::moving_average_2d(data.data(), nx, ny, window);
  for (std::size_t i = 0; i < out.size(); ++i) ASSERT_NEAR(out[i], expected[i], 1e-9) << i;
}

INSTANTIATE_TEST_SUITE_P(Params, MovingAvg2DSweep,
                         ::testing::Combine(::testing::Values(1, 2, 4),
                                            ::testing::Values(std::size_t{3}, std::size_t{5},
                                                              std::size_t{9})));

TEST(MovingAverage2D, ConstantPlaneIsFixedPoint) {
  std::vector<double> plane(20 * 20, 7.5);
  MovingAverage2D<double> ma(SchedArgs(2, 1), 20, 20, 5);
  std::vector<double> out(plane.size(), 0.0);
  ma.run2(plane.data(), plane.size(), out.data(), out.size());
  for (double v : out) EXPECT_NEAR(v, 7.5, 1e-12);
}

TEST(MovingAverage2D, EarlyEmissionBoundsObjects) {
  const std::size_t nx = 64, ny = 64;
  const auto data = random_slab(nx * ny, 504);
  MovingAverage2D<double> with_trigger(SchedArgs(2, 1), nx, ny, 5);
  RunOptions off;
  off.enable_trigger = false;
  MovingAverage2D<double> without(SchedArgs(2, 1), nx, ny, 5, off);
  std::vector<double> out(data.size(), 0.0);
  with_trigger.run2(data.data(), data.size(), out.data(), out.size());
  without.run2(data.data(), data.size(), out.data(), out.size());
  EXPECT_GE(without.stats().peak_reduction_objects, nx * ny);
  // 2-D split boundaries leave whole window-rows unresolved, so the bound
  // is O(window * nx) per worker rather than O(window^2).
  EXPECT_LT(with_trigger.stats().peak_reduction_objects, 3 * 5 * nx);
  EXPECT_GT(with_trigger.stats().early_emissions, 0u);
}

TEST(MovingAverage2D, RejectsBadParameters) {
  EXPECT_THROW(MovingAverage2D<double>(SchedArgs(1, 1), 8, 8, 4), std::invalid_argument);
  EXPECT_THROW(MovingAverage2D<double>(SchedArgs(1, 1), 0, 8, 3), std::invalid_argument);
  EXPECT_THROW(MovingAverage2D<double>(SchedArgs(1, 2), 8, 8, 3), std::invalid_argument);
}

// --- contiguous splits across thread counts ---------------------------------
// Ragged input sizes split unevenly over 1/2/3/8 workers (at 8 threads some
// splits differ by a chunk); the result must not depend on where the split
// boundaries fall.

class ContiguousSplits : public ::testing::TestWithParam<int> {};

TEST_P(ContiguousSplits, HistogramMatchesReference) {
  const int threads = GetParam();
  const auto data = random_slab(9001, 505);  // deliberately non-round size
  Histogram<double> hist(SchedArgs(threads, 1), 0.0, 100.0, 23);
  std::vector<std::size_t> out(23, 0);
  hist.run(data.data(), data.size(), out.data(), out.size());
  EXPECT_EQ(out, ref::histogram(data.data(), data.size(), 0.0, 100.0, 23));
  EXPECT_EQ(hist.stats().chunks_processed, data.size());
  // Skew is max-over-mean worker busy time: >= 1 whenever workers ran.
  EXPECT_GE(hist.stats().worker_skew, 1.0);
}

TEST_P(ContiguousSplits, WindowAppMatchesOneThread) {
  const int threads = GetParam();
  const auto data = random_slab(2000, 506);
  MovingAverage<double> single(SchedArgs(1, 1), 11);
  MovingAverage<double> split(SchedArgs(threads, 1), 11);
  std::vector<double> a(data.size(), 0.0), b(data.size(), 0.0);
  single.run2(data.data(), data.size(), a.data(), a.size());
  split.run2(data.data(), data.size(), b.data(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_NEAR(a[i], b[i], 1e-12) << i;
}

INSTANTIATE_TEST_SUITE_P(Threads, ContiguousSplits, ::testing::Values(1, 2, 3, 8));

// --- offline block reader ----------------------------------------------------------

TEST(BlockReader, StreamsFileInBoundedBlocks) {
  const std::string path = "/tmp/smart_blockreader_test.bin";
  const auto data = random_slab(10000, 507);
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(data.data(), sizeof(double), data.size(), f);
    std::fclose(f);
  }
  // Stream through a histogram in 4096-element blocks; result equals the
  // in-memory run.
  RunOptions acc;
  acc.accumulate_across_runs = true;
  analytics::Histogram<double> hist(SchedArgs(2, 1), 0.0, 100.0, 12, acc);
  baselines::BlockReader reader(path, 4096);
  while (auto block = reader.next()) {
    EXPECT_LE(block->size(), 4096u);
    hist.run(block->data(), block->size(), nullptr, 0);
  }
  EXPECT_EQ(reader.blocks_read(), 3u);  // 4096 + 4096 + 1808
  EXPECT_EQ(reader.elements_read(), data.size());
  std::vector<std::size_t> out(12, 0);
  hist.run(nullptr, 0, out.data(), out.size());
  EXPECT_EQ(out, analytics::ref::histogram(data.data(), data.size(), 0.0, 100.0, 12));
  std::remove(path.c_str());
}

TEST(BlockReader, MissingFileAndZeroBlockThrow) {
  EXPECT_THROW(baselines::BlockReader("/tmp/no_such_smart_file.bin", 16), std::runtime_error);
  const std::string path = "/tmp/smart_blockreader_empty.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fclose(f);
  EXPECT_THROW(baselines::BlockReader(path, 0), std::invalid_argument);
  baselines::BlockReader reader(path, 8);
  EXPECT_FALSE(reader.next().has_value());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace smart
