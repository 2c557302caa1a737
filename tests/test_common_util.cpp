// Unit tests for the remaining common utilities: timers, memory tracker,
// table reporter, RNG streams.
#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "common/memory_tracker.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/timing.h"

namespace smart {
namespace {

TEST(Timing, WallTimerAdvances) {
  WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GE(t.seconds(), 0.004);
}

TEST(Timing, ThreadCpuTimerCountsWork) {
  ThreadCpuTimer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 2000000; ++i) sink = sink + static_cast<double>(i) * 1e-9;
  EXPECT_GT(t.seconds(), 0.0);
  (void)sink;
}

class MemoryTrackerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MemoryTracker::instance().reset();
    MemoryTracker::instance().set_budget(0);
  }
  void TearDown() override {
    MemoryTracker::instance().reset();
    MemoryTracker::instance().set_budget(0);
  }
};

TEST_F(MemoryTrackerTest, ChargeReleaseAndPeak) {
  auto& t = MemoryTracker::instance();
  t.charge(MemCategory::kSimulation, 1000);
  t.charge(MemCategory::kInputCopy, 500);
  EXPECT_EQ(t.current(), 1500u);
  EXPECT_EQ(t.peak(), 1500u);
  t.release(MemCategory::kInputCopy, 500);
  EXPECT_EQ(t.current(), 1000u);
  EXPECT_EQ(t.peak(), 1500u);  // peak sticks
  EXPECT_EQ(t.current_in(MemCategory::kSimulation), 1000u);
}

TEST_F(MemoryTrackerTest, BudgetDetection) {
  auto& t = MemoryTracker::instance();
  t.set_budget(1000);
  t.charge(MemCategory::kSimulation, 800);
  t.charge(MemCategory::kReductionObjects, 300);
  t.release(MemCategory::kReductionObjects, 300);
  EXPECT_TRUE(t.peak_over_budget()) << "peak breach must be remembered";
}

TEST_F(MemoryTrackerTest, ScopedChargeReleasesOnDestruction) {
  auto& t = MemoryTracker::instance();
  {
    ScopedMemCharge charge(MemCategory::kFramework, 4096);
    EXPECT_EQ(t.current(), 4096u);
  }
  EXPECT_EQ(t.current(), 0u);
}

TEST_F(MemoryTrackerTest, ScopedChargeMoveTransfersOwnership) {
  auto& t = MemoryTracker::instance();
  {
    ScopedMemCharge a(MemCategory::kFramework, 100);
    ScopedMemCharge b = std::move(a);
    EXPECT_EQ(t.current(), 100u);
  }
  EXPECT_EQ(t.current(), 0u);
}

TEST_F(MemoryTrackerTest, ConcurrentChargesKeepConsistentPeak) {
  auto& t = MemoryTracker::instance();
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      for (int j = 0; j < 1000; ++j) {
        t.charge(MemCategory::kFramework, 64);
        t.release(MemCategory::kFramework, 64);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(t.current(), 0u);
  EXPECT_GE(t.peak(), 64u);
  EXPECT_LE(t.peak(), 4u * 64u);
}

TEST(ProcessRss, ReturnsPlausibleValue) {
  const std::size_t rss = process_peak_rss_bytes();
  EXPECT_GT(rss, 1u << 20);   // more than 1 MB
  EXPECT_LT(rss, 1ULL << 40);  // less than 1 TB
}

TEST(TableTest, AlignedAndCsvOutput) {
  Table table({"app", "time_s", "speedup"});
  table.begin_row();
  table.add("histogram");
  table.add(1.5, 2);
  table.add(std::size_t{8});
  table.add_row({"kmeans", "2.00", "4"});

  std::ostringstream human;
  table.print(human, "demo");
  EXPECT_NE(human.str().find("histogram"), std::string::npos);
  EXPECT_NE(human.str().find("== demo =="), std::string::npos);

  std::ostringstream csv;
  table.print_csv(csv, "demo");
  EXPECT_NE(csv.str().find("app,time_s,speedup"), std::string::npos);
  EXPECT_NE(csv.str().find("kmeans,2.00,4"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);
}

TEST(TableTest, AddBeforeBeginRowThrows) {
  Table table({"x"});
  EXPECT_THROW(table.add("oops"), std::logic_error);
}

TEST(Format, Bytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(1536), "1.50 KB");
  EXPECT_EQ(format_bytes(3u << 20), "3.00 MB");
}

TEST(Format, Seconds) {
  EXPECT_NE(format_seconds(0.0000005).find("us"), std::string::npos);
  EXPECT_NE(format_seconds(0.005).find("ms"), std::string::npos);
  EXPECT_NE(format_seconds(2.0).find("s"), std::string::npos);
}

TEST(RngTest, DeterministicStreams) {
  Rng a(42), b(42), c(43);
  const double va = a.gaussian();
  EXPECT_DOUBLE_EQ(va, b.gaussian());
  EXPECT_NE(va, c.gaussian());
}

TEST(RngTest, DerivedSeedsDecorrelate) {
  EXPECT_NE(derive_seed(1, 0), derive_seed(1, 1));
  EXPECT_NE(derive_seed(1, 0), derive_seed(2, 0));
}

TEST(RngTest, GaussianMomentsApproximatelyCorrect) {
  Rng rng(7);
  const auto v = rng.gaussian_vector(200000, 3.0, 2.0);
  double mean = 0.0;
  for (double x : v) mean += x;
  mean /= static_cast<double>(v.size());
  double var = 0.0;
  for (double x : v) var += (x - mean) * (x - mean);
  var /= static_cast<double>(v.size());
  EXPECT_NEAR(mean, 3.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.1);
}

}  // namespace
}  // namespace smart
