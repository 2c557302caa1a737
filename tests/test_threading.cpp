// Tests for the threading substrate: thread pool semantics and the
// space-sharing circular buffer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "threading/circular_buffer.h"
#include "threading/thread_pool.h"

namespace smart {
namespace {

TEST(ThreadPool, RunsEveryWorkerExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(4);
  pool.parallel_region([&](int w) { hits[static_cast<std::size_t>(w)].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossRegions) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_region([&](int) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 150);
}

TEST(ThreadPool, WorkerIdsAreDistinct) {
  ThreadPool pool(8);
  std::mutex mu;
  std::set<int> ids;
  pool.parallel_region([&](int w) {
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(w);
  });
  EXPECT_EQ(ids.size(), 8u);
  EXPECT_EQ(*ids.begin(), 0);
  EXPECT_EQ(*ids.rbegin(), 7);
}

TEST(ThreadPool, ReportsPerWorkerBusyTime) {
  ThreadPool pool(2);
  const auto busy = pool.parallel_region([&](int w) {
    if (w == 0) {
      volatile double sink = 0.0;
      for (int i = 0; i < 3000000; ++i) sink = sink + 1.0;
      (void)sink;
    }
  });
  ASSERT_EQ(busy.size(), 2u);
  EXPECT_GT(busy[0], busy[1]);
}

TEST(ThreadPool, PropagatesWorkerException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_region([](int w) {
    if (w == 2) throw std::runtime_error("worker failed");
  }),
               std::runtime_error);
  // The pool must remain usable after an exception.
  std::atomic<int> ok{0};
  pool.parallel_region([&](int) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 4);
}

TEST(ThreadPool, RejectsZeroWorkers) {
  EXPECT_THROW(ThreadPool pool(0), std::invalid_argument);
}

TEST(ThreadPool, LegZeroRunsOnTheCallersThread) {
  // As in an OpenMP region, the caller does leg 0 itself and only n - 1
  // threads are woken; busy time and exceptions keep their contract.
  for (const int n : {1, 2, 3, 8}) {
    SCOPED_TRACE("workers " + std::to_string(n));
    ThreadPool pool(n);
    EXPECT_EQ(pool.size(), n);
    std::vector<std::thread::id> ran_on(static_cast<std::size_t>(n));
    const auto busy = pool.parallel_region([&](int w) {
      ran_on[static_cast<std::size_t>(w)] = std::this_thread::get_id();
      volatile double sink = 0.0;
      for (int i = 0; i < 1000000; ++i) sink = sink + 1.0;
      (void)sink;
    });
    EXPECT_EQ(ran_on[0], std::this_thread::get_id());
    const std::set<std::thread::id> others(ran_on.begin() + 1, ran_on.end());
    EXPECT_EQ(others.size(), static_cast<std::size_t>(n - 1));
    EXPECT_EQ(others.count(std::this_thread::get_id()), 0u);
    EXPECT_EQ(others.count(std::thread::id()), 0u) << "a leg did not run";
    ASSERT_EQ(busy.size(), static_cast<std::size_t>(n));
    for (const double b : busy) EXPECT_GT(b, 0.0);
    EXPECT_THROW(pool.parallel_region([](int) { throw std::runtime_error("worker failed"); }),
                 std::runtime_error);
    std::atomic<int> ok{0};
    pool.parallel_region([&](int) { ok.fetch_add(1); });
    EXPECT_EQ(ok.load(), n);
  }
}

TEST(ThreadPool, LegZeroExceptionWaitsForTheOtherLegs) {
  // The region's captures live on the caller's stack, so a leg-0 throw
  // may reach the caller only once every other leg has finished.
  ThreadPool pool(2);
  std::atomic<bool> leg1_done{false};
  bool caught_after_leg1 = false;
  try {
    pool.parallel_region([&](int w) {
      if (w == 0) throw std::runtime_error("leg 0 failed");
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      leg1_done = true;
    });
  } catch (const std::runtime_error&) {
    caught_after_leg1 = leg1_done.load();
  }
  EXPECT_TRUE(caught_after_leg1);
}

TEST(ThreadPool, NestedRegionFromWorkerRunsInline) {
  // Regression: a worker calling parallel_region on its own pool used to
  // deadlock — the outer region's completion count includes the calling
  // worker, which sat blocked in the nested wait forever.  A nested call
  // now serializes on the caller: every worker id runs, on the worker's
  // own thread.  (NestedRegionPropagatesExceptionAndOuterSurvives nests
  // from leg 0, which runs on the region's caller.)
  ThreadPool pool(3);
  std::vector<std::atomic<int>> inner_hits(3);
  std::atomic<int> outer_hits{0};
  pool.parallel_region([&](int w) {
    outer_hits.fetch_add(1);
    if (w == 1) {
      const auto busy = pool.parallel_region(
          [&](int inner) { inner_hits[static_cast<std::size_t>(inner)].fetch_add(1); });
      EXPECT_EQ(busy.size(), 3u);
    }
  });
  EXPECT_EQ(outer_hits.load(), 3);
  for (auto& h : inner_hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NestedRegionPropagatesExceptionAndOuterSurvives) {
  ThreadPool pool(2);
  std::atomic<int> caught{0};
  pool.parallel_region([&](int w) {
    if (w == 0) {
      try {
        pool.parallel_region([](int inner) {
          if (inner == 1) throw std::runtime_error("nested failure");
        });
      } catch (const std::runtime_error&) {
        caught.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(caught.load(), 1);
  // The outer pool stays usable (nested failures never touch its state).
  std::atomic<int> ok{0};
  pool.parallel_region([&](int) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 2);
}

TEST(CircularBuffer, FifoOrder) {
  CircularBuffer<int> buf(4);
  for (int i = 0; i < 4; ++i) buf.push(i);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(buf.pop().value(), i);
}

TEST(CircularBuffer, WrapsAroundManyTimes) {
  CircularBuffer<int> buf(3);
  for (int i = 0; i < 100; ++i) {
    buf.push(i);
    EXPECT_EQ(buf.pop().value(), i);
  }
}

TEST(CircularBuffer, TryPushFailsWhenFull) {
  CircularBuffer<int> buf(2);
  EXPECT_TRUE(buf.try_push(1));
  EXPECT_TRUE(buf.try_push(2));
  EXPECT_FALSE(buf.try_push(3));
  EXPECT_EQ(buf.size(), 2u);
}

TEST(CircularBuffer, PushBlocksUntilPop) {
  // The paper's space-sharing contract: the simulation blocks when every
  // cell is full, resuming once the analytics consumes one.
  CircularBuffer<int> buf(1);
  buf.push(1);
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    buf.push(2);
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(buf.pop().value(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(buf.pop().value(), 2);
}

TEST(CircularBuffer, PopBlocksUntilPush) {
  CircularBuffer<int> buf(2);
  std::atomic<int> got{-1};
  std::thread consumer([&] { got = buf.pop().value(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(got.load(), -1);
  buf.push(9);
  consumer.join();
  EXPECT_EQ(got.load(), 9);
}

TEST(CircularBuffer, CloseDrainsThenEnds) {
  CircularBuffer<int> buf(4);
  buf.push(1);
  buf.push(2);
  buf.close();
  EXPECT_EQ(buf.pop().value(), 1);
  EXPECT_EQ(buf.pop().value(), 2);
  EXPECT_FALSE(buf.pop().has_value());
  EXPECT_THROW(buf.push(3), std::runtime_error);
}

TEST(CircularBuffer, CloseUnblocksWaitingConsumer) {
  CircularBuffer<int> buf(2);
  std::atomic<bool> done{false};
  std::thread consumer([&] {
    EXPECT_FALSE(buf.pop().has_value());
    done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  buf.close();
  consumer.join();
  EXPECT_TRUE(done.load());
}

TEST(CircularBuffer, RejectsZeroCapacity) {
  EXPECT_THROW(CircularBuffer<int> buf(0), std::invalid_argument);
}

TEST(CircularBuffer, PushThrowsTypedChannelClosed) {
  CircularBuffer<int> buf(2);
  buf.close();
  EXPECT_THROW(buf.push(1), ChannelClosed);
  // ChannelClosed derives from runtime_error, so legacy catch sites hold.
  EXPECT_THROW(buf.push(2), std::runtime_error);
}

TEST(CircularBuffer, OfferReturnsValueWhenBlockedPushIsClosed) {
  // Regression: a producer blocked on a full buffer whose channel is then
  // closed used to lose its moved-in value inside a generic runtime_error.
  // offer() hands the rejected value back instead.
  CircularBuffer<std::unique_ptr<int>> buf(1);
  ASSERT_EQ(buf.offer(std::make_unique<int>(1)), std::nullopt);  // now full
  std::optional<std::unique_ptr<int>> rejected;
  std::thread producer([&] { rejected = buf.offer(std::make_unique<int>(42)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  buf.close();  // wakes the blocked producer; its value must come back
  producer.join();
  ASSERT_TRUE(rejected.has_value());
  ASSERT_NE(*rejected, nullptr);
  EXPECT_EQ(**rejected, 42);
  // The queued value drains normally; then the stream ends.
  auto v = buf.pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(**v, 1);
  EXPECT_FALSE(buf.pop().has_value());
}

TEST(CircularBuffer, BlockedPushThrowsChannelClosedOnClose) {
  CircularBuffer<int> buf(1);
  buf.push(1);  // full
  std::atomic<bool> threw{false};
  std::thread producer([&] {
    try {
      buf.push(2);
    } catch (const ChannelClosed&) {
      threw = true;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  buf.close();
  producer.join();
  EXPECT_TRUE(threw.load());
  // The close must not have let the blocked push slip its value in.
  EXPECT_EQ(buf.pop().value(), 1);
  EXPECT_FALSE(buf.pop().has_value());
}

TEST(CircularBuffer, StressProducerConsumer) {
  CircularBuffer<int> buf(8);
  constexpr int kItems = 5000;
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) buf.push(i);
    buf.close();
  });
  long long sum = 0;
  int count = 0;
  while (auto v = buf.pop()) {
    sum += *v;
    ++count;
  }
  producer.join();
  EXPECT_EQ(count, kItems);
  EXPECT_EQ(sum, static_cast<long long>(kItems) * (kItems - 1) / 2);
}

}  // namespace
}  // namespace smart
