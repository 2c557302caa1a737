// Tests for thread-count invariance of the contiguous splits and the
// offline BlockReader.
#include <gtest/gtest.h>

#include <cstdio>

#include "analytics/histogram.h"
#include "analytics/moving_average.h"
#include "analytics/reference.h"
#include "baselines/offline.h"
#include "common/rng.h"

namespace smart {
namespace {

using namespace analytics;

std::vector<double> random_slab(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(0.0, 100.0);
  return v;
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
