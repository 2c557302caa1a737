// Tests for the simmpi message-passing substrate: mailbox matching,
// point-to-point semantics, and every collective validated against serial
// references under randomized payloads and rank counts.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>

#include "common/rng.h"
#include "simmpi/world.h"

namespace smart::simmpi {
namespace {

TEST(Mailbox, FifoWithinTag) {
  Mailbox box;
  for (int i = 0; i < 3; ++i) {
    Envelope e;
    e.source = 0;
    e.tag = 7;
    Buffer b;
    Writer(b).write(i);
    e.payload = make_shared_buffer(std::move(b));
    box.post(std::move(e));
  }
  for (int i = 0; i < 3; ++i) {
    Envelope e = box.receive(0, 7);
    EXPECT_EQ(Reader(e.bytes()).read<int>(), i);
  }
}

TEST(Mailbox, SelectiveMatchingBySourceAndTag) {
  Mailbox box;
  auto post = [&](int src, int tag, int val) {
    Envelope e;
    e.source = src;
    e.tag = tag;
    Buffer b;
    Writer(b).write(val);
    e.payload = make_shared_buffer(std::move(b));
    box.post(std::move(e));
  };
  post(1, 10, 100);
  post(2, 10, 200);
  post(1, 20, 300);

  EXPECT_EQ(Reader(box.receive(2, 10).bytes()).read<int>(), 200);
  EXPECT_EQ(Reader(box.receive(1, 20).bytes()).read<int>(), 300);
  EXPECT_EQ(Reader(box.receive(1, 10).bytes()).read<int>(), 100);
  EXPECT_EQ(box.pending(), 0u);
}

TEST(Mailbox, WildcardsMatchAnything) {
  Mailbox box;
  Envelope e;
  e.source = 3;
  e.tag = 99;
  box.post(std::move(e));
  const Envelope got = box.receive(kAnySource, kAnyTag);
  EXPECT_EQ(got.source, 3);
  EXPECT_EQ(got.tag, 99);
}

TEST(Mailbox, WildcardTagSkipsCollectiveTraffic) {
  // A peer already in a barrier posts a negative (internal) tag first; a
  // user wildcard receive must take the later user message, not the barrier's.
  Mailbox box;
  Envelope barrier;
  barrier.source = 1;
  barrier.tag = -1001;
  box.post(std::move(barrier));
  Envelope user;
  user.source = 2;
  user.tag = 0;
  box.post(std::move(user));
  EXPECT_EQ(box.receive(kAnySource, kAnyTag).tag, 0);
  EXPECT_FALSE(box.try_receive(kAnySource, kAnyTag).has_value());
  EXPECT_EQ(box.receive(kAnySource, -1001).source, 1);
}

TEST(Mailbox, TryReceiveDoesNotBlock) {
  Mailbox box;
  EXPECT_FALSE(box.try_receive(kAnySource, kAnyTag).has_value());
  Envelope e;
  e.source = 0;
  e.tag = 1;
  box.post(std::move(e));
  EXPECT_TRUE(box.try_receive(0, 1).has_value());
}

TEST(Mailbox, BlockingReceiveWakesOnPost) {
  Mailbox box;
  std::atomic<bool> got{false};
  std::thread receiver([&] {
    (void)box.receive(0, 5);
    got = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(got.load());
  Envelope e;
  e.source = 0;
  e.tag = 5;
  box.post(std::move(e));
  receiver.join();
  EXPECT_TRUE(got.load());
}

TEST(Launch, RanksSeeCorrectIdentity) {
  std::vector<int> seen(4, -1);
  launch(4, [&](Communicator& comm) {
    EXPECT_EQ(comm.size(), 4);
    EXPECT_EQ(current(), &comm);
    seen[static_cast<std::size_t>(comm.rank())] = comm.rank();
  });
  for (int r = 0; r < 4; ++r) EXPECT_EQ(seen[static_cast<std::size_t>(r)], r);
  EXPECT_EQ(current(), nullptr);
}

TEST(Launch, RankExceptionIsRethrown) {
  EXPECT_THROW(launch(2,
                      [](Communicator& comm) {
                        if (comm.rank() == 1) throw std::runtime_error("rank boom");
                      }),
               std::runtime_error);
}

TEST(Launch, RejectsNonPositiveRankCount) {
  EXPECT_THROW(launch(0, [](Communicator&) {}), std::invalid_argument);
}

TEST(PointToPoint, RingPassesToken) {
  constexpr int kRanks = 5;
  launch(kRanks, [](Communicator& comm) {
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() - 1 + comm.size()) % comm.size();
    comm.send_value(next, 1, comm.rank());
    const int token = comm.recv_value<int>(prev, 1);
    EXPECT_EQ(token, prev);
  });
}

TEST(PointToPoint, VectorsSurviveTransit) {
  launch(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      Rng rng(11);
      const auto v = rng.gaussian_vector(1000);
      comm.send_vector(1, 3, v);
      const auto echoed = comm.recv_vector<double>(1, 4);
      EXPECT_EQ(echoed, v);
    } else {
      const auto v = comm.recv_vector<double>(0, 3);
      comm.send_vector(0, 4, v);
    }
  });
}

TEST(PointToPoint, SendToInvalidRankThrows) {
  launch(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      EXPECT_THROW(comm.send(7, 0, Buffer{}), std::out_of_range);
      comm.send_value(1, 0, 1);  // unblock the peer
    } else {
      (void)comm.recv_value<int>(0, 0);
    }
  });
}

class CollectiveRanks : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveRanks, BarrierCompletes) {
  const int n = GetParam();
  std::atomic<int> arrived{0};
  launch(n, [&](Communicator& comm) {
    arrived.fetch_add(1);
    comm.barrier();
    // Everyone must have arrived before anyone passes the barrier.
    EXPECT_EQ(arrived.load(), n);
    comm.barrier();
  });
}

TEST_P(CollectiveRanks, BcastFromEveryRoot) {
  const int n = GetParam();
  for (int root = 0; root < n; ++root) {
    launch(n, [&](Communicator& comm) {
      SharedBuffer buf;
      if (comm.rank() == root) {
        Buffer bytes;
        Writer(bytes).write_string("payload from " + std::to_string(root));
        buf = make_shared_buffer(std::move(bytes));
      }
      comm.bcast_shared(buf, root);
      EXPECT_EQ(Reader(buf).read_string(), "payload from " + std::to_string(root));
    });
  }
}

TEST_P(CollectiveRanks, AllreduceSumMatchesSerial) {
  const int n = GetParam();
  // Each rank contributes a deterministic vector; the allreduced result
  // must equal the serial elementwise sum on every rank.
  const std::size_t len = 257;
  std::vector<double> expected(len, 0.0);
  for (int r = 0; r < n; ++r) {
    Rng rng(derive_seed(99, static_cast<std::uint64_t>(r)));
    for (auto& x : expected) x += rng.gaussian();
  }
  launch(n, [&](Communicator& comm) {
    Rng rng(derive_seed(99, static_cast<std::uint64_t>(comm.rank())));
    std::vector<double> local(len);
    for (auto& x : local) x = rng.gaussian();
    const auto global = comm.allreduce_sum(local);
    ASSERT_EQ(global.size(), len);
    for (std::size_t i = 0; i < len; ++i) EXPECT_NEAR(global[i], expected[i], 1e-9);
  });
}

TEST_P(CollectiveRanks, ReduceConcatenatesAssociatively) {
  const int n = GetParam();
  launch(n, [&](Communicator& comm) {
    Buffer mine;
    Writer(mine).write<std::int64_t>(1LL << comm.rank());
    Buffer out = comm.reduce(std::move(mine), 0, [](const Buffer& a, const Buffer& b) {
      Buffer merged;
      Writer(merged).write<std::int64_t>(Reader(a).read<std::int64_t>() +
                                         Reader(b).read<std::int64_t>());
      return merged;
    });
    if (comm.rank() == 0) {
      EXPECT_EQ(Reader(out).read<std::int64_t>(), (1LL << n) - 1);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectiveRanks, ::testing::Values(1, 2, 3, 4, 5, 8));

TEST(VirtualTime, MessageDeliveryAdvancesReceiverClock) {
  NetworkConfig slow;
  slow.alpha_seconds = 0.5;
  slow.beta_bytes_per_second = 1e9;
  LaunchStats stats = launch(
      2,
      [](Communicator& comm) {
        if (comm.rank() == 0) {
          comm.send_value(1, 0, 42);
        } else {
          (void)comm.recv_value<int>(0, 0);
          // The receiver's clock must include the 0.5 s message latency.
          EXPECT_GE(comm.vclock(), 0.5);
        }
      },
      slow);
  EXPECT_GE(stats.makespan(), 0.5);
  EXPECT_GT(stats.total_bytes_sent(), 0u);
}

TEST(VirtualTime, AdvanceAddsExplicitCompute) {
  LaunchStats stats = launch(1, [](Communicator& comm) {
    comm.advance(2.0);
    EXPECT_GE(comm.vclock(), 2.0);
    // Leg 0 of a region ran on this thread, which the clock charges
    // already, so a region adds its slowest leg minus leg 0: 3 - 1 for
    // three legs, and nothing for one.
    const double before = comm.vclock();
    comm.advance_region({1.0, 3.0, 2.0});
    comm.advance_region({5.0});
    const double added = comm.vclock() - before;
    EXPECT_GE(added, 2.0);
    EXPECT_LT(added, 3.0);
  });
  EXPECT_GE(stats.makespan(), 4.0);
}

TEST(VirtualTime, MakespanIsMaxAcrossRanks) {
  LaunchStats stats = launch(3, [](Communicator& comm) {
    comm.advance(static_cast<double>(comm.rank()));
  });
  EXPECT_GE(stats.makespan(), 2.0);
  EXPECT_LT(stats.makespan(), 2.5);
}

}  // namespace
}  // namespace smart::simmpi
