// Tests for the third extension wave: communicator splitting, analytics
// checkpoints, summary statistics, top-k extrema, and the visualization
// renderer.
#include <gtest/gtest.h>

#include <cstdio>

#include "analytics/histogram.h"
#include "analytics/reference.h"
#include "analytics/render.h"
#include "analytics/summary_stats.h"
#include "analytics/top_k.h"
#include "common/rng.h"
#include "core/checkpoint.h"
#include "sim/heat3d.h"
#include "simmpi/world.h"

namespace smart {
namespace {

using namespace analytics;

// --- communicator splitting -----------------------------------------------------

TEST(CommSplit, GroupsByColorOrderedByKey) {
  simmpi::launch(6, [](simmpi::Communicator& world) {
    // Even world ranks -> color 0, odd -> color 1; key reverses the order.
    const int color = world.rank() % 2;
    auto sub = world.split(color, -world.rank());
    EXPECT_EQ(sub.size(), 3);
    EXPECT_EQ(sub.world_rank(), world.rank());
    // color 0 holds world ranks {4, 2, 0} in that key order.
    const int expected_rank = (world.size() - 2 - world.rank() + color) / 2;
    EXPECT_EQ(sub.rank(), expected_rank) << "world rank " << world.rank();
  });
}

TEST(CommSplit, SubCollectivesStayWithinGroup) {
  simmpi::launch(5, [](simmpi::Communicator& world) {
    // First 3 ranks form group A, last 2 group B; each group allreduces its
    // own world-rank sum without interference.
    const int color = world.rank() < 3 ? 0 : 1;
    auto sub = world.split(color, world.rank());
    std::vector<double> mine = {static_cast<double>(world.rank())};
    const auto total = sub.allreduce_sum(mine);
    const double expected = color == 0 ? 0.0 + 1.0 + 2.0 : 3.0 + 4.0;
    EXPECT_DOUBLE_EQ(total[0], expected);
  });
}

TEST(CommSplit, PointToPointUsesGroupRanks) {
  simmpi::launch(4, [](simmpi::Communicator& world) {
    const int color = world.rank() / 2;  // {0,1} and {2,3}
    auto sub = world.split(color, world.rank());
    ASSERT_EQ(sub.size(), 2);
    if (sub.rank() == 0) {
      sub.send_value(1, 9, world.rank() * 100);
    } else {
      int src = -1;
      Buffer got = sub.recv(simmpi::kAnySource, 9, &src);
      EXPECT_EQ(src, 0);  // group rank, not world rank
      EXPECT_EQ(Reader(got).read<int>(), (world.rank() - 1) * 100);
    }
  });
}

TEST(CommSplit, SharesVirtualClockWithParent) {
  simmpi::launch(2, [](simmpi::Communicator& world) {
    auto sub = world.split(0, world.rank());
    sub.advance(1.5);
    EXPECT_GE(world.vclock(), 1.5);  // one clock per rank thread
  });
}

TEST(CommSplit, SchedulerGlobalCombinationOverSubgroup) {
  // The in-transit arrangement done right: simulation ranks form a
  // sub-communicator and Smart's built-in global combination runs on it.
  Rng rng(601);
  std::vector<double> data(6000);
  for (auto& x : data) x = rng.uniform(0.0, 1.0);
  const auto expected = analytics::ref::histogram(data.data(), data.size(), 0.0, 1.0, 8);

  simmpi::launch(4, [&](simmpi::Communicator& world) {
    const bool is_sim = world.rank() < 3;
    auto sub = world.split(is_sim ? 0 : 1, world.rank());
    if (!is_sim) return;  // rank 3 plays an idle staging node here
    const std::size_t per = data.size() / 3;
    const std::size_t offset = static_cast<std::size_t>(sub.rank()) * per;
    const std::size_t len = sub.rank() == 2 ? data.size() - offset : per;

    // The scheduler discovers simmpi::current(), which is the *world*
    // communicator, so pass the subgroup explicitly by running inside a
    // CurrentGuard.
    simmpi::detail::CurrentGuard guard(&sub);
    Histogram<double> hist(SchedArgs(2, 1), 0.0, 1.0, 8);
    std::vector<std::size_t> out(8, 0);
    hist.run(data.data() + offset, len, out.data(), out.size());
    EXPECT_EQ(out, expected) << "sub rank " << sub.rank();
  });
}

// --- checkpoints ------------------------------------------------------------------

TEST(Checkpoint, SaveAndRestoreRoundTrips) {
  Rng rng(602);
  std::vector<double> data(3000);
  for (auto& x : data) x = rng.uniform(0.0, 10.0);

  const std::string path = "/tmp/smart_ckpt_test.bin";
  RunOptions acc;
  acc.accumulate_across_runs = true;
  {
    Histogram<double> hist(SchedArgs(2, 1), 0.0, 10.0, 16, acc);
    hist.run(data.data(), data.size(), nullptr, 0);
    save_checkpoint(hist, path);
  }
  Histogram<double> restored(SchedArgs(2, 1), 0.0, 10.0, 16, acc);
  load_checkpoint(restored, path);
  std::vector<std::size_t> out(16, 0);
  restored.convert_combination_map(out.data(), out.size());
  EXPECT_EQ(out, analytics::ref::histogram(data.data(), data.size(), 0.0, 10.0, 16));

  // Resuming: more data accumulates on top of the restored state.
  restored.run(data.data(), data.size(), nullptr, 0);
  std::size_t total = 0;
  for (const auto& [key, obj] : restored.get_combination_map()) {
    total += static_cast<const Bucket&>(*obj).count;
  }
  EXPECT_EQ(total, 2 * data.size());
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsCorruptFiles) {
  const std::string path = "/tmp/smart_ckpt_corrupt.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("this is not a checkpoint", f);
    std::fclose(f);
  }
  Histogram<double> hist(SchedArgs(1, 1), 0.0, 1.0, 4);
  EXPECT_THROW(load_checkpoint(hist, path), std::runtime_error);
  EXPECT_THROW(load_checkpoint(hist, "/tmp/no_such_ckpt.bin"), std::runtime_error);
  std::remove(path.c_str());
}

// --- summary statistics ------------------------------------------------------------

class SummaryThreads : public ::testing::TestWithParam<int> {};

TEST_P(SummaryThreads, MatchesDirectComputation) {
  Rng rng(603);
  std::vector<double> data(20000);
  for (auto& x : data) x = rng.gaussian(5.0, 3.0);
  SummaryStats<double> stats(SchedArgs(GetParam(), 1));
  stats.run(data.data(), data.size(), nullptr, 0);
  const Summary s = stats.summary();

  double mean = 0.0, lo = data[0], hi = data[0];
  for (double x : data) {
    mean += x;
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  mean /= static_cast<double>(data.size());
  double var = 0.0;
  for (double x : data) var += (x - mean) * (x - mean);
  var /= static_cast<double>(data.size());

  EXPECT_EQ(s.count, data.size());
  EXPECT_NEAR(s.mean, mean, 1e-9);
  EXPECT_NEAR(s.stddev, std::sqrt(var), 1e-9);
  EXPECT_DOUBLE_EQ(s.min, lo);
  EXPECT_DOUBLE_EQ(s.max, hi);
}

INSTANTIATE_TEST_SUITE_P(Threads, SummaryThreads, ::testing::Values(1, 2, 4, 8));

TEST(SummaryStats, GloballyCombinesAcrossRanks) {
  Rng rng(604);
  std::vector<double> data(4000);
  for (auto& x : data) x = rng.uniform(-1.0, 1.0);
  simmpi::launch(4, [&](simmpi::Communicator& comm) {
    const std::size_t per = data.size() / 4;
    SummaryStats<double> stats(SchedArgs(1, 1));
    stats.run(data.data() + static_cast<std::size_t>(comm.rank()) * per, per, nullptr, 0);
    const Summary s = stats.summary();
    EXPECT_EQ(s.count, data.size());
    double lo = data[0];
    for (double x : data) lo = std::min(lo, x);
    EXPECT_DOUBLE_EQ(s.min, lo);
  });
}

TEST(SummaryStats, EmptyInputGivesEmptySummary) {
  SummaryStats<double> stats(SchedArgs(2, 1));
  stats.run(nullptr, 0, nullptr, 0);
  EXPECT_EQ(stats.summary().count, 0u);
}

// --- top-k ------------------------------------------------------------------------

class TopKThreads : public ::testing::TestWithParam<int> {};

TEST_P(TopKThreads, FindsExactTopKWithPositions) {
  Rng rng(605);
  std::vector<double> data(5000);
  for (auto& x : data) x = rng.gaussian(0.0, 1.0);
  // Plant known extrema.
  data[123] = 50.0;
  data[4000] = 49.0;
  data[7] = 48.0;

  TopK<double> topk(SchedArgs(GetParam(), 1), 3);
  topk.run(data.data(), data.size(), nullptr, 0);
  const auto got = topk.top();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_DOUBLE_EQ(got[0].value, 50.0);
  EXPECT_EQ(got[0].position, 123u);
  EXPECT_DOUBLE_EQ(got[1].value, 49.0);
  EXPECT_EQ(got[1].position, 4000u);
  EXPECT_DOUBLE_EQ(got[2].value, 48.0);
  EXPECT_EQ(got[2].position, 7u);
}

TEST_P(TopKThreads, MatchesSortBaselineOnRandomData) {
  Rng rng(606 + static_cast<std::uint64_t>(GetParam()));
  std::vector<double> data(3000);
  for (auto& x : data) x = rng.uniform(0.0, 1.0);
  const std::size_t k = 17;
  TopK<double> topk(SchedArgs(GetParam(), 1), k);
  topk.run(data.data(), data.size(), nullptr, 0);
  const auto got = topk.top();

  std::vector<std::pair<double, std::size_t>> all;
  for (std::size_t i = 0; i < data.size(); ++i) all.emplace_back(data[i], i);
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  ASSERT_EQ(got.size(), k);
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_DOUBLE_EQ(got[i].value, all[i].first) << i;
    EXPECT_EQ(got[i].position, all[i].second) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, TopKThreads, ::testing::Values(1, 2, 4));

TEST(TopK, KLargerThanInputKeepsEverything) {
  const std::vector<double> data = {3.0, 1.0, 2.0};
  TopK<double> topk(SchedArgs(2, 1), 10);
  topk.run(data.data(), data.size(), nullptr, 0);
  const auto got = topk.top();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_DOUBLE_EQ(got[0].value, 3.0);
  EXPECT_DOUBLE_EQ(got[2].value, 1.0);
}

TEST(TopK, HotspotOnLiveHeat3D) {
  sim::Heat3D heat({.nx = 16, .ny = 16, .nz_local = 8}, nullptr);
  for (int s = 0; s < 20; ++s) heat.step();
  TopK<double> topk(SchedArgs(2, 1), 5);
  topk.run(heat.output(), heat.output_len(), nullptr, 0);
  const auto hot = topk.top();
  ASSERT_EQ(hot.size(), 5u);
  // The hottest interior points sit on the bottom plane (z = 0 interior):
  // positions < one plane's worth of elements.
  for (const auto& item : hot) {
    EXPECT_LT(item.position, 16u * 16u);
    EXPECT_GT(item.value, 0.1);
  }
}

// --- renderer ---------------------------------------------------------------------

TEST(Render, MapsRangeToFullGrayscale) {
  const std::vector<double> plane = {0.0, 5.0, 10.0, 5.0};
  const GrayImage img = render_plane(plane.data(), 2, 2);
  EXPECT_EQ(img.width, 2u);
  EXPECT_EQ(img.height, 2u);
  EXPECT_EQ(img.pixels[0], 0);
  EXPECT_EQ(img.pixels[2], 255);
  EXPECT_EQ(img.pixels[1], 128);
}

TEST(Render, ConstantPlaneIsMidGray) {
  const std::vector<double> plane(9, 4.2);
  const GrayImage img = render_plane(plane.data(), 3, 3);
  for (auto p : img.pixels) EXPECT_EQ(p, 128);
}

TEST(Render, WritesValidPgm) {
  const std::vector<double> plane = {0.0, 1.0, 2.0, 3.0};
  const GrayImage img = render_plane(plane.data(), 2, 2);
  const std::string path = "/tmp/smart_render_test.pgm";
  write_pgm(img, path);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char header[32] = {};
  ASSERT_EQ(std::fread(header, 1, 11, f), 11u);
  EXPECT_EQ(std::string(header, 2), "P5");
  std::fclose(f);
  std::remove(path.c_str());
}

TEST(Render, RejectsEmptyPlane) {
  const std::vector<double> plane = {1.0};
  EXPECT_THROW(render_plane(plane.data(), 0, 1), std::invalid_argument);
}

}  // namespace
}  // namespace smart
