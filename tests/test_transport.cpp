// Transport-invariant tests for the sharded-mailbox / shared-payload /
// pooled-buffer data plane (run under TSan by scripts/check.sh):
//   * MPI's non-overtaking guarantee — FIFO per (source, tag) — under
//     multi-producer contention,
//   * any-source receives merge lanes by arrival order (no lane starves),
//   * receive_for's deadline racing a concurrent post never loses or
//     duplicates a message,
//   * collectives at non-power-of-two sizes (n = 3, 5, 7), including
//     back-to-back any-source gathers with a lagging root, and a split
//     communicator's collectives never matching the parent's traffic,
//   * shared fan-out payloads move zero bytes (bcast_shared) while the
//     duplicate fault shares one payload instead of deep-copying it,
//   * BufferPool recycling, retention bounds, and counters.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "simmpi/world.h"

namespace smart::simmpi {
namespace {

Envelope make_envelope(int source, int tag, int value) {
  Envelope e;
  e.source = source;
  e.tag = tag;
  Buffer b;
  Writer(b).write(value);
  e.payload = make_shared_buffer(std::move(b));
  return e;
}

int envelope_value(const Envelope& e) { return Reader(e.bytes()).read<int>(); }

/// One int serialized into its own shared payload.
SharedBuffer shared_int(int value) {
  Buffer b;
  Writer(b).write(value);
  return make_shared_buffer(std::move(b));
}

TEST(TransportMailbox, FifoPerSourceTagUnderContention) {
  // kProducers threads hammer one mailbox concurrently; a consumer doing
  // exact-source receives must see each producer's values strictly in
  // order, no matter how the posts interleave.
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 500;
  constexpr int kTag = 3;
  Mailbox box;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&box, p] {
      for (int i = 0; i < kPerProducer; ++i) box.post(make_envelope(p, kTag, i));
    });
  }
  std::vector<int> next(kProducers, 0);
  for (int n = 0; n < kProducers * kPerProducer; ++n) {
    const Envelope e = box.receive(kAnySource, kTag);
    ASSERT_EQ(envelope_value(e), next[static_cast<std::size_t>(e.source)]++)
        << "message from source " << e.source << " overtook an earlier one";
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(box.pending(), 0u);
  EXPECT_EQ(box.lane_count(), 0u);
}

TEST(TransportMailbox, ExactSourceReceiveIgnoresOtherLanes) {
  // Concurrent consumers, one per source, each draining its own lane while
  // producers keep posting — exact matching never crosses lanes.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 400;
  Mailbox box;
  std::vector<std::thread> workers;
  for (int p = 0; p < kProducers; ++p) {
    workers.emplace_back([&box, p] {
      for (int i = 0; i < kPerProducer; ++i) box.post(make_envelope(p, p, i));
    });
    workers.emplace_back([&box, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const Envelope e = box.receive(p, p);
        ASSERT_EQ(e.source, p);
        ASSERT_EQ(envelope_value(e), i);
      }
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_EQ(box.pending(), 0u);
}

TEST(TransportMailbox, AnySourceMergesLanesByArrivalOrder) {
  // Messages across several (source, tag) lanes, posted from one thread:
  // wildcard receives must replay the exact posting order — a deep lane
  // cannot starve or overtake a shallow one.
  Mailbox box;
  const int sources[] = {2, 0, 2, 2, 1, 0, 1, 2};
  for (int i = 0; i < 8; ++i) box.post(make_envelope(sources[i], sources[i] + 10, i));
  for (int i = 0; i < 8; ++i) {
    const Envelope e = box.receive(kAnySource, kAnyTag);
    EXPECT_EQ(envelope_value(e), i) << "arrival order broken at " << i;
  }
}

TEST(TransportMailbox, AnySourceWithTagFilterSkipsOtherTags) {
  Mailbox box;
  box.post(make_envelope(0, 1, 100));  // stale control message, other tag
  box.post(make_envelope(1, 7, 200));
  box.post(make_envelope(0, 7, 300));
  const Envelope first = box.receive(kAnySource, 7);
  EXPECT_EQ(envelope_value(first), 200);
  const Envelope second = box.receive(kAnySource, 7);
  EXPECT_EQ(envelope_value(second), 300);
  EXPECT_TRUE(box.has_match(0, 1));
  EXPECT_EQ(box.pending(), 1u);
}

TEST(TransportMailbox, ReceiveForTimeoutRacingPostNeverLosesMessages) {
  // The classic waiter race: the deadline expires in the same instant a
  // post signals the waiter.  Whatever side wins, the message must be
  // delivered exactly once (either by receive_for's last look or by a
  // follow-up try_receive).
  constexpr int kRounds = 300;
  Mailbox box;
  Rng rng(77);
  int delivered = 0;
  for (int round = 0; round < kRounds; ++round) {
    const auto post_delay = std::chrono::microseconds(rng.uniform_int(0, 1500));
    std::thread poster([&box, post_delay, round] {
      std::this_thread::sleep_for(post_delay);
      box.post(make_envelope(0, 9, round));
    });
    auto got = box.receive_for(0, 9, std::chrono::microseconds(800));
    poster.join();
    if (!got) got = box.try_receive(0, 9);  // poster has definitely posted by now
    ASSERT_TRUE(got.has_value()) << "message lost in round " << round;
    ASSERT_EQ(envelope_value(*got), round);
    ++delivered;
    ASSERT_EQ(box.pending(), 0u) << "duplicate delivery in round " << round;
  }
  EXPECT_EQ(delivered, kRounds);
}

TEST(TransportMailbox, PostWakesOnlyMatchingWaiter) {
  // Two blocked receivers with disjoint selectors: a post matching the
  // second must complete it while the first stays blocked until its own
  // message arrives.
  Mailbox box;
  std::atomic<int> done{0};
  std::thread want_tag1([&] {
    (void)box.receive(0, 1);
    done.fetch_add(1);
  });
  std::thread want_tag2([&] {
    (void)box.receive(0, 2);
    done.fetch_add(10);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  box.post(make_envelope(0, 2, 0));
  want_tag2.join();
  EXPECT_EQ(done.load(), 10);
  box.post(make_envelope(0, 1, 0));
  want_tag1.join();
  EXPECT_EQ(done.load(), 11);
}

TEST(TransportCollectives, OddSizesAgainstSerialReferences) {
  for (const int n : {3, 5, 7}) {
    launch(n, [n](Communicator& comm) {
      const int rank = comm.rank();
      // bcast from a non-zero root.
      SharedBuffer buf;
      if (rank == n - 1) buf = shared_int(4242);
      comm.bcast_shared(buf, n - 1);
      EXPECT_EQ(Reader(buf).read<int>(), 4242);

      // gather to a middle root: contents indexed by true source even
      // though arrivals complete in any order.
      const auto all = comm.gather_shared(shared_int(rank * 11), n / 2);
      if (rank == n / 2) {
        ASSERT_EQ(all.size(), static_cast<std::size_t>(n));
        for (int r = 0; r < n; ++r) {
          EXPECT_EQ(Reader(all[static_cast<std::size_t>(r)]).read<int>(), r * 11);
        }
      } else {
        EXPECT_TRUE(all.empty());
      }

      // scatter from rank 0.
      std::vector<SharedBuffer> chunks;
      if (rank == 0) {
        for (int r = 0; r < n; ++r) chunks.push_back(shared_int(r + 1000));
      }
      const SharedBuffer chunk = comm.scatter_shared(chunks, 0);
      EXPECT_EQ(Reader(chunk).read<int>(), rank + 1000);

      // alltoall.
      std::vector<SharedBuffer> sends;
      for (int r = 0; r < n; ++r) sends.push_back(shared_int(rank * 100 + r));
      const auto got = comm.alltoall_shared(sends);
      ASSERT_EQ(got.size(), static_cast<std::size_t>(n));
      for (int r = 0; r < n; ++r) {
        EXPECT_EQ(Reader(got[static_cast<std::size_t>(r)]).read<int>(), r * 100 + rank);
      }

      // allreduce sum against the closed form.
      std::vector<double> v(16);
      std::iota(v.begin(), v.end(), static_cast<double>(rank));
      const auto sum = comm.allreduce_sum(v);
      for (std::size_t i = 0; i < v.size(); ++i) {
        EXPECT_DOUBLE_EQ(sum[i], n * static_cast<double>(i) + n * (n - 1) / 2.0);
      }
      comm.barrier();
    });
  }
}

TEST(TransportCollectives, BackToBackGathersWithLaggingRoot) {
  // The any-source gather satellite's hazard case: non-root ranks sprint
  // through several gathers while the root lags.  Epoch-suffixed tags must
  // keep each round's messages from leaking into the previous round.
  constexpr int kRounds = 6;
  launch(5, [](Communicator& comm) {
    for (int round = 0; round < kRounds; ++round) {
      if (comm.rank() == 0 && round == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      const auto all = comm.gather_shared(shared_int(round * 100 + comm.rank()), 0);
      if (comm.rank() == 0) {
        for (int r = 0; r < comm.size(); ++r) {
          ASSERT_EQ(Reader(all[static_cast<std::size_t>(r)]).read<int>(), round * 100 + r)
              << "round " << round << " picked up a message from another round";
        }
      }
    }
  });
}

TEST(TransportSharedPayload, BcastSharedMovesZeroBytes) {
  static constexpr std::size_t kPayload = 1u << 20;
  launch(8, [](Communicator& comm) {
    comm.barrier();
    const std::uint64_t before = payload_bytes_copied();
    SharedBuffer data;
    if (comm.rank() == 0) {
      data = make_shared_buffer(Buffer(kPayload, std::byte{0x5a}));
    }
    comm.bcast_shared(data, 0);
    ASSERT_TRUE(data != nullptr);
    ASSERT_EQ(data.size(), kPayload);
    EXPECT_EQ(data[kPayload / 2], std::byte{0x5a});
    comm.barrier();
    // The whole 8-rank tree shares one immutable payload: no copy anywhere
    // (barrier messages are empty, so they cannot disturb the counter).
    if (comm.rank() == 0) {
      EXPECT_EQ(payload_bytes_copied() - before, 0u);
    }
  });
}

TEST(TransportSharedPayload, DuplicateFaultSharesOnePayload) {
  static constexpr std::size_t kPayload = 1u << 18;
  auto faults = std::make_shared<FaultInjector>();
  FaultRule rule;
  rule.op = FaultOp::kSend;
  rule.rank = 0;
  rule.peer = 1;
  rule.tag = 5;
  rule.action = FaultAction::kDuplicate;
  rule.max_fires = 1;
  faults->add_rule(rule);
  const std::uint64_t before = payload_bytes_copied();
  launch(2,
         [](Communicator& comm) {
           if (comm.rank() == 0) {
             comm.send(1, 5, Buffer(kPayload, std::byte{7}));
           } else {
             const SharedBuffer a = comm.recv_shared(0, 5);
             const SharedBuffer b = comm.recv_shared(0, 5);
             ASSERT_TRUE(a && b);
             EXPECT_EQ(a.size(), kPayload);
             // Duplicate envelopes share one storage: identical views.
             EXPECT_EQ(a, b);
           }
         },
         NetworkConfig{}, faults);
  // An owning send moves its buffer into the envelope, the duplicated
  // envelope bumps the refcount, and both shared receives hand the same
  // bytes out — zero payload copies end to end.
  EXPECT_EQ(payload_bytes_copied() - before, 0u);
}

TEST(TransportBufferPool, AcquireReleaseRoundTripHitsPool) {
  BufferPool::drain_thread_cache();
  const auto t0 = BufferPool::totals();
  Buffer a = BufferPool::acquire(4096);
  const std::byte* storage = a.data() == nullptr ? nullptr : a.data();
  a.resize(4096);
  BufferPool::release(std::move(a));
  Buffer b = BufferPool::acquire(4096);
  EXPECT_TRUE(b.empty());
  EXPECT_GE(b.capacity(), 4096u);
  if (storage != nullptr) {
    EXPECT_EQ(b.data(), storage);  // same allocation came back
  }
  const auto t1 = BufferPool::totals();
  EXPECT_EQ(t1.hits - t0.hits, 1u);
  EXPECT_GE(t1.releases_pooled - t0.releases_pooled, 1u);
  EXPECT_GE(t1.bytes_recycled - t0.bytes_recycled, 4096u);
  BufferPool::drain_thread_cache();
}

TEST(TransportBufferPool, PooledBufferAlwaysCoversRequest) {
  BufferPool::drain_thread_cache();
  // A released 300-capacity buffer lands in the 256-class; a later request
  // for 500 must NOT be served by it.
  Buffer small;
  small.reserve(300);
  BufferPool::release(std::move(small));
  Buffer big = BufferPool::acquire(500);
  EXPECT_GE(big.capacity(), 500u);
  BufferPool::drain_thread_cache();
}

TEST(TransportBufferPool, SteadyNonPowerOfTwoLoopHitsAfterFirstAcquire) {
  // Message sizes are rarely powers of two.  A steady loop at one such
  // size must recycle its buffer: only the first acquire may miss.
  for (const std::size_t size : {std::size_t{300}, std::size_t{8472}}) {
    BufferPool::drain_thread_cache();
    const auto t0 = BufferPool::totals();
    constexpr int kRounds = 100;
    for (int i = 0; i < kRounds; ++i) {
      Buffer b = BufferPool::acquire(size);
      ASSERT_GE(b.capacity(), size);
      b.resize(size);
      BufferPool::release(std::move(b));
    }
    const auto t1 = BufferPool::totals();
    EXPECT_EQ(t1.misses - t0.misses, 1u) << "size=" << size;
    EXPECT_EQ(t1.hits - t0.hits, static_cast<std::uint64_t>(kRounds - 1)) << "size=" << size;
  }
  BufferPool::drain_thread_cache();
}

TEST(TransportBufferPool, RetentionIsBounded) {
  BufferPool::drain_thread_cache();
  for (std::size_t i = 0; i < BufferPool::kMaxPerClass + 5; ++i) {
    Buffer b;
    b.reserve(1024);
    BufferPool::release(std::move(b));
  }
  EXPECT_LE(BufferPool::thread_retained_count(), BufferPool::kMaxPerClass);
  // Oversize buffers are never retained.
  Buffer huge;
  huge.reserve(BufferPool::kMaxPooledCapacity + 1);
  const auto before = BufferPool::thread_retained_count();
  BufferPool::release(std::move(huge));
  EXPECT_EQ(BufferPool::thread_retained_count(), before);
  BufferPool::drain_thread_cache();
  EXPECT_EQ(BufferPool::thread_retained_count(), 0u);
}

TEST(TransportBufferPool, OversizeAcquireBypassesPool) {
  const auto t0 = BufferPool::totals();
  Buffer huge = BufferPool::acquire(BufferPool::kMaxPooledCapacity + 1);
  EXPECT_GE(huge.capacity(), BufferPool::kMaxPooledCapacity + 1);
  const auto t1 = BufferPool::totals();
  EXPECT_EQ(t1.misses - t0.misses, 1u);
}

Envelope make_sized_envelope(int source, int tag, std::size_t nbytes) {
  Envelope e;
  e.source = source;
  e.tag = tag;
  e.payload = make_shared_buffer(Buffer(nbytes, std::byte{1}));
  return e;
}

TEST(TransportBackpressure, BlockingSendUnblockedByDrain) {
  // A producer outrunning its consumer parks in post() once the lane holds
  // kCap messages; every receive frees a slot and lets it continue.  All
  // messages arrive, in order, and the producer reports nonzero stall time.
  constexpr int kCap = 4;
  constexpr int kTotal = 12;
  Mailbox box;
  box.set_lane_capacity(kCap, 0);
  std::atomic<int> posted{0};
  double stalled = 0.0;
  std::thread producer([&] {
    for (int i = 0; i < kTotal; ++i) {
      stalled += box.post(make_envelope(0, 7, i));
      posted.fetch_add(1);
    }
  });
  // Give the producer time to hit the cap: it must stop at kCap queued
  // (kCap posts done plus one blocked in flight).
  while (posted.load() < kCap) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(box.pending(), static_cast<std::size_t>(kCap));
  EXPECT_LE(posted.load(), kCap + 1);
  for (int i = 0; i < kTotal; ++i) {
    const Envelope e = box.receive(0, 7);
    ASSERT_EQ(envelope_value(e), i);
  }
  producer.join();
  EXPECT_EQ(box.pending(), 0u);
  EXPECT_GT(stalled, 0.0);
}

TEST(TransportBackpressure, ByteCapBoundsPeakMailboxBytes) {
  // The byte bound is the slow-receiver fix: with a 64 KiB lane cap, a
  // producer pushing 512 KiB through a lagging consumer can never have more
  // than the cap queued.  The identical workload with no cap buffers
  // everything.
  constexpr std::size_t kMsg = 16u * 1024;
  constexpr std::size_t kCapBytes = 64u * 1024;
  constexpr int kTotal = 32;
  {
    Mailbox bounded;
    bounded.set_lane_capacity(0, kCapBytes);
    std::thread producer([&] {
      for (int i = 0; i < kTotal; ++i) bounded.post(make_sized_envelope(0, 1, kMsg));
    });
    for (int i = 0; i < kTotal; ++i) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));  // lagging consumer
      (void)bounded.receive(0, 1);
    }
    producer.join();
    EXPECT_LE(bounded.peak_pending_bytes(), kCapBytes);
  }
  {
    Mailbox unbounded;
    for (int i = 0; i < kTotal; ++i) unbounded.post(make_sized_envelope(0, 1, kMsg));
    EXPECT_EQ(unbounded.peak_pending_bytes(), kMsg * kTotal);
    for (int i = 0; i < kTotal; ++i) (void)unbounded.receive(0, 1);
  }
}

TEST(TransportBackpressure, DeadMailboxNeverBlocksSenders) {
  // Senders parked on a full lane of a dying rank must release (nothing
  // will ever drain the lane), and posts after death go straight through.
  Mailbox box;
  box.set_lane_capacity(2, 0);
  box.post(make_envelope(0, 3, 0));
  box.post(make_envelope(0, 3, 1));
  std::atomic<bool> done{false};
  std::thread sender([&] {
    box.post(make_envelope(0, 3, 2));  // blocks: lane is at capacity
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(done.load());
  box.mark_dead();
  sender.join();
  EXPECT_TRUE(done.load());
  box.post(make_envelope(0, 3, 3));  // dead mailbox accepts without blocking
  EXPECT_EQ(box.pending(), 4u);
}

TEST(TransportBackpressure, SenderStalledOnDyingRankResolvesViaPoke) {
  // Launch-level variant: rank 0 floods rank 1 through a 2-message lane
  // while rank 1 sleeps, so rank 0 is parked in post() when a recv-side
  // fault kills rank 1.  The death must release rank 0 (via mark_dead +
  // poke) and the launch must finish with rank 1 recorded as killed and
  // rank 0's stall time accounted.
  NetworkConfig cfg;
  cfg.lane_capacity_msgs = 2;
  auto faults = std::make_shared<FaultInjector>();
  FaultRule rule;
  rule.op = FaultOp::kRecv;
  rule.rank = 1;
  rule.peer = 0;
  rule.tag = 9;
  rule.action = FaultAction::kKillRank;
  faults->add_rule(rule);
  const LaunchStats stats = launch(
      2,
      [](Communicator& comm) {
        if (comm.rank() == 0) {
          for (int i = 0; i < 20; ++i) comm.send(1, 9, Buffer(64, std::byte{2}));
        } else {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          (void)comm.recv(0, 9);  // the kill fires here, before any drain
        }
      },
      cfg, faults);
  ASSERT_EQ(stats.ranks_killed, std::vector<int>{1});
  EXPECT_GT(stats.rank_send_stall_seconds[0], 0.0);
  EXPECT_GE(stats.rank_vtime[0], stats.rank_send_stall_seconds[0]);
}

TEST(TransportBackpressure, EpochSelectiveReceiveSkipsMismatchedLanes) {
  // Wildcard receives with an epoch must skip lanes whose head belongs to
  // a different round, in either posting order.
  Mailbox box;
  Envelope late = make_envelope(0, 5, 100);
  late.epoch = 1;
  box.post(std::move(late));
  Envelope early = make_envelope(1, 5, 200);
  early.epoch = 0;
  box.post(std::move(early));
  const Envelope first = box.receive(kAnySource, 5, 0);
  EXPECT_EQ(envelope_value(first), 200);
  const Envelope second = box.receive(kAnySource, 5, 1);
  EXPECT_EQ(envelope_value(second), 100);
  EXPECT_EQ(box.pending(), 0u);
}

TEST(TransportCollectives, GatherEpochSurvivesThousandsOfRounds) {
  // The wraparound satellite's regression: the old tag suffix was the round
  // number mod 1000, so round 1000 reused round 0's tag and a message
  // lingering from a lagging round-0 root could satisfy round 1000.  The
  // 64-bit Envelope epoch has no wrap: every round past the old modulus
  // still matches only its own messages.
  constexpr int kRounds = 1100;  // crosses the old 1000-round alias point
  launch(3, [](Communicator& comm) {
    for (int round = 0; round < kRounds; ++round) {
      if (comm.rank() == 0 && round == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      const auto all = comm.gather_shared(shared_int(round * 10 + comm.rank()), 0);
      if (comm.rank() == 0) {
        for (int r = 0; r < comm.size(); ++r) {
          ASSERT_EQ(Reader(all[static_cast<std::size_t>(r)]).read<int>(), round * 10 + r)
              << "gather round " << round << " consumed another round's message";
        }
      }
    }
  });
}

TEST(TransportCollectives, AlltoallEpochSurvivesThousandsOfRounds) {
  constexpr int kRounds = 1050;
  launch(3, [](Communicator& comm) {
    const int n = comm.size();
    for (int round = 0; round < kRounds; ++round) {
      if (comm.rank() == 1 && round == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      std::vector<SharedBuffer> sends;
      for (int r = 0; r < n; ++r) sends.push_back(shared_int(round * 100 + comm.rank() * 10 + r));
      const auto got = comm.alltoall_shared(sends);
      for (int r = 0; r < n; ++r) {
        ASSERT_EQ(Reader(got[static_cast<std::size_t>(r)]).read<int>(),
                  round * 100 + r * 10 + comm.rank())
            << "alltoall round " << round << " consumed another round's message";
      }
    }
  });
}

TEST(TransportCollectives, BarrierAtNonPowerOfTwoRanks) {
  // Dissemination-barrier pairing check at sizes where the last round's
  // distance is not a divisor of n: no rank may pass the barrier until
  // every rank has arrived.
  for (const int n : {3, 5, 6, 7}) {
    std::atomic<int> arrived{0};
    launch(n, [&arrived, n](Communicator& comm) {
      arrived.fetch_add(1);
      comm.barrier();
      EXPECT_EQ(arrived.load(), n) << "barrier released a rank early at n=" << n;
    });
  }
}

TEST(TransportSharedPayload, AllreduceSharedMovesZeroBytes) {
  // reduce moves owned buffers up the tree and bcast_shared fans the result
  // out by reference: the whole allreduce copies nothing.
  static constexpr std::size_t kElems = 8192;
  launch(4, [](Communicator& comm) {
    comm.barrier();
    const std::uint64_t before = payload_bytes_copied();
    std::vector<double> v(kElems, static_cast<double>(comm.rank()));
    Buffer mine;
    Writer(mine).write_vector(v);
    const SharedBuffer out =
        comm.allreduce_shared(std::move(mine), [](const Buffer& a, const Buffer& b) {
          std::vector<double> va = Reader(a).read_vector<double>();
          const std::vector<double> vb = Reader(b).read_vector<double>();
          for (std::size_t i = 0; i < va.size(); ++i) va[i] += vb[i];
          Buffer merged;
          Writer(merged).write_vector(va);
          return merged;
        });
    const auto result = Reader(out).read_vector<double>();
    ASSERT_EQ(result.size(), kElems);
    EXPECT_DOUBLE_EQ(result[0], 0.0 + 1.0 + 2.0 + 3.0);
    comm.barrier();
    if (comm.rank() == 0) {
      EXPECT_EQ(payload_bytes_copied() - before, 0u);
    }
  });
}

TEST(TransportSharedPayload, SplitBroadcastsTableShared) {
  // split gathers its (color, key, rank) triples and broadcasts the table
  // as shared payloads: the whole operation copies nothing.
  constexpr int kRanks = 6;
  launch(kRanks, [](Communicator& comm) {
    comm.barrier();
    const std::uint64_t before = payload_bytes_copied();
    Communicator sub = comm.split(comm.rank() % 2, comm.rank());
    EXPECT_EQ(sub.size(), kRanks / 2);
    comm.barrier();
    if (comm.rank() == 0) {
      EXPECT_EQ(payload_bytes_copied() - before, 0u);
    }
  });
}

// --- split communicators are isolated from their parent --------------------------

TEST(TransportSplit, AlltoallOnSplitIgnoresWorldAlltoall) {
  // Ranks 0-1 run an alltoall on their split while ranks 2-3 go straight
  // on to the world alltoall — legal MPI order.  Both collectives count
  // their rounds from 0, so without a per-communicator context in the
  // epoch the split's any-source receive on rank 0 or 1 takes a world
  // message from rank 2 or 3 (a source outside the group).  The sleep lets
  // the world messages arrive first.
  launch(4, [](Communicator& comm) {
    const int rank = comm.rank();
    Communicator half = comm.split(rank / 2, rank);
    if (rank < 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      std::vector<SharedBuffer> sends;
      for (int r = 0; r < half.size(); ++r) sends.push_back(shared_int(1000 + rank * 10 + r));
      const auto got = half.alltoall_shared(sends);
      for (int r = 0; r < half.size(); ++r) {
        EXPECT_EQ(Reader(got[static_cast<std::size_t>(r)]).read<int>(),
                  1000 + r * 10 + half.rank());
      }
    }
    std::vector<SharedBuffer> sends;
    for (int r = 0; r < comm.size(); ++r) sends.push_back(shared_int(rank * 10 + r));
    const auto got = comm.alltoall_shared(sends);
    for (int r = 0; r < comm.size(); ++r) {
      EXPECT_EQ(Reader(got[static_cast<std::size_t>(r)]).read<int>(), r * 10 + rank);
    }
  });
}

TEST(TransportSplit, GatherOnSplitIgnoresWorldGather) {
  // The gather twin of the case above: rank 0 roots gathers on its split
  // {0, 1} while ranks 2-3 have already sent their world-gather payloads
  // to it.  split() itself spent the world's gather round 0, so the
  // split's second round carries the same round number as that world
  // gather.  The split's receives must wait for rank 1, and the world
  // gather must still find every payload.
  launch(4, [](Communicator& comm) {
    const int rank = comm.rank();
    Communicator half = comm.split(rank / 2, rank);
    if (rank < 2) {
      for (int round = 0; round < 2; ++round) {
        if (rank == 1) std::this_thread::sleep_for(std::chrono::milliseconds(20));
        const auto all = half.gather_shared(shared_int(100 * round + rank), 0);
        if (rank == 0) {
          ASSERT_EQ(all.size(), 2u);
          EXPECT_EQ(Reader(all[0]).read<int>(), 100 * round);
          EXPECT_EQ(Reader(all[1]).read<int>(), 100 * round + 1);
        }
      }
    }
    const auto all = comm.gather_shared(shared_int(rank * 7), 0);
    if (rank == 0) {
      ASSERT_EQ(all.size(), 4u);
      for (int r = 0; r < 4; ++r) {
        EXPECT_EQ(Reader(all[static_cast<std::size_t>(r)]).read<int>(), r * 7);
      }
    }
  });
}

TEST(TransportNetwork, TopologyCostsOrderByDistance) {
  NetworkConfig cfg;
  cfg.ranks_per_node = 2;
  cfg.nodes_per_edge = 2;
  cfg.nodes_per_group = 2;
  constexpr std::size_t kBytes = 1u << 20;

  auto flat = make_network_model(cfg);
  const double flat_any = flat->arrival_vtime(0, 7, kBytes, 0.0);
  EXPECT_DOUBLE_EQ(flat_any,
                   cfg.alpha_seconds + static_cast<double>(kBytes) / cfg.beta_bytes_per_second);

  // The topology models are stateful (links remember occupancy), so each
  // measurement below uses link-disjoint rank pairs.
  cfg.model = "fattree";
  auto ft = make_network_model(cfg);
  const double ft_intra_node = ft->arrival_vtime(0, 1, kBytes, 0.0);  // same node: no links
  const double ft_intra_pod = ft->arrival_vtime(0, 2, kBytes, 0.0);   // node 0 -> node 1, pod 0
  const double ft_cross_pod = ft->arrival_vtime(5, 1, kBytes, 0.0);   // pod 1 -> pod 0
  EXPECT_DOUBLE_EQ(ft_intra_node, flat_any);  // same-node messages stay memory-speed
  EXPECT_LT(ft_intra_node, ft_intra_pod);
  EXPECT_LT(ft_intra_pod, ft_cross_pod);  // tapered uplinks make pod crossings dearer
  EXPECT_GT(ft_cross_pod, flat_any);

  cfg.model = "dragonfly";
  auto df = make_network_model(cfg);
  const double df_intra_group = df->arrival_vtime(0, 2, kBytes, 0.0);  // inside group 0
  const double df_cross_group = df->arrival_vtime(5, 1, kBytes, 0.0);  // group 1 -> group 0
  EXPECT_LT(df_intra_group, df_cross_group);  // tapered global link
  EXPECT_GT(df_cross_group, flat_any);
}

TEST(TransportNetwork, SharedLinkContentionDelaysSecondTransfer) {
  NetworkConfig cfg;
  cfg.model = "fattree";
  cfg.ranks_per_node = 2;
  cfg.nodes_per_edge = 2;
  constexpr std::size_t kBytes = 1u << 20;
  auto ft = make_network_model(cfg);
  // Two transfers over the same node->edge->core path departing at the
  // same instant: the second queues behind the first on every shared link.
  const double first = ft->arrival_vtime(0, 7, kBytes, 0.0);
  const double second = ft->arrival_vtime(0, 7, kBytes, 0.0);
  EXPECT_GT(second, first);
  // The flat model is stateless: repeated identical sends cost the same.
  cfg.model = "flat";
  auto flat = make_network_model(cfg);
  EXPECT_DOUBLE_EQ(flat->arrival_vtime(0, 7, kBytes, 0.0), flat->arrival_vtime(0, 7, kBytes, 0.0));
}

TEST(TransportNetwork, UnknownModelNameThrows) {
  NetworkConfig cfg;
  cfg.model = "hypercube";
  EXPECT_THROW((void)make_network_model(cfg), std::invalid_argument);
}

TEST(TransportNetwork, TorusCostsOrderByHopDistance) {
  NetworkConfig cfg;
  cfg.model = "torus";
  cfg.ranks_per_node = 1;
  cfg.torus_x = 4;
  cfg.torus_y = 4;
  cfg.torus_z = 1;
  constexpr std::size_t kBytes = 1u << 20;
  // Each probe prices one transfer on a fresh model, so every link is idle.
  const auto idle_arrival = [](const NetworkConfig& c, int src, int dst) {
    return make_network_model(c)->arrival_vtime(src, dst, kBytes, 0.0);
  };

  const double one_hop = idle_arrival(cfg, 0, 1);    // (0,0) -> (1,0)
  const double two_hops = idle_arrival(cfg, 0, 2);   // (0,0) -> (2,0)
  const double diagonal = idle_arrival(cfg, 0, 10);  // (0,0) -> (2,2): 4 hops
  EXPECT_LT(one_hop, two_hops);
  EXPECT_LT(two_hops, diagonal);

  // Wraparound: the last node in a row is one +x hop from the first, not
  // extent-1 hops the long way round.
  EXPECT_DOUBLE_EQ(idle_arrival(cfg, 3, 0), one_hop);

  // Dimension extent 1 contributes no hops: a 4x1x1 torus is a plain ring.
  NetworkConfig ring_cfg = cfg;
  ring_cfg.torus_y = 1;
  EXPECT_DOUBLE_EQ(idle_arrival(ring_cfg, 1, 2), one_hop);

  // Same-node ranks skip the network entirely.
  NetworkConfig packed = cfg;
  packed.ranks_per_node = 2;
  EXPECT_DOUBLE_EQ(idle_arrival(packed, 0, 1),
                   cfg.alpha_seconds + static_cast<double>(kBytes) / cfg.beta_bytes_per_second);

  // The arrival model is contended: two transfers over the same
  // nearest-neighbor path queue behind each other.
  auto torus = make_network_model(cfg);
  const double first = torus->arrival_vtime(0, 3, kBytes, 0.0);
  const double second = torus->arrival_vtime(0, 3, kBytes, 0.0);
  EXPECT_GT(second, first);
  // The first found its one -x hop idle, so it costs what one hop costs.
  EXPECT_DOUBLE_EQ(first, one_hop);
}

// --- arena fast path ---------------------------------------------------------

TEST(TransportArena, ScatterSharedDeliversPerRankSlices) {
  launch(5, [](Communicator& comm) {
    const int n = comm.size();
    std::vector<SharedBuffer> slices;
    PayloadArena arena;
    if (comm.rank() == 0) {
      arena.begin();
      for (int r = 0; r < n; ++r) {
        Writer(arena.staging()).write(r * 7 + 1);
        arena.end_slice();
      }
      slices = arena.finish();
    }
    const SharedBuffer shared = comm.scatter_shared(slices, 0);
    ASSERT_TRUE(shared != nullptr);
    ASSERT_EQ(shared.size(), sizeof(int));
    EXPECT_EQ(Reader(shared).read<int>(), comm.rank() * 7 + 1);
  });
}

TEST(TransportArena, AlltoallSharedExchangesSlicesBySource) {
  launch(4, [](Communicator& comm) {
    const int n = comm.size();
    const int rank = comm.rank();
    PayloadArena arena;
    arena.begin();
    for (int r = 0; r < n; ++r) {
      Writer(arena.staging()).write(rank * 100 + r);
      arena.end_slice();
    }
    const auto shared = comm.alltoall_shared(arena.finish());
    ASSERT_EQ(shared.size(), static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) {
      const auto& s = shared[static_cast<std::size_t>(r)];
      ASSERT_TRUE(s != nullptr);
      ASSERT_EQ(s.size(), sizeof(int));
      EXPECT_EQ(Reader(s).read<int>(), r * 100 + rank);
    }
  });
}

TEST(TransportArena, GatherSharedCollectsInRankOrder) {
  launch(5, [](Communicator& comm) {
    const int n = comm.size();
    const auto shared = comm.gather_shared(shared_int(comm.rank() * 13 + 2), 1);
    if (comm.rank() == 1) {
      ASSERT_EQ(shared.size(), static_cast<std::size_t>(n));
      for (int r = 0; r < n; ++r) {
        const auto& s = shared[static_cast<std::size_t>(r)];
        ASSERT_TRUE(s != nullptr);
        ASSERT_EQ(s.size(), sizeof(int));
        EXPECT_EQ(Reader(s).read<int>(), r * 13 + 2);
      }
    } else {
      EXPECT_TRUE(shared.empty());
    }
  });
}

TEST(TransportArena, CollectiveFanoutZeroCopy) {
  // The zero-copy acceptance gate (scripts/check.sh runs this by name at
  // the 8-rank trace-validation step): a full scatter / alltoall / gather
  // round over arena slices moves payload_bytes_copied by exactly zero.
  static constexpr std::size_t kChunk = 32u * 1024;
  launch(8, [](Communicator& comm) {
    const int n = comm.size();
    const int rank = comm.rank();
    comm.barrier();
    const std::uint64_t before = payload_bytes_copied();

    // scatter: one arena allocation at the root, eight views out.
    std::vector<SharedBuffer> slices;
    PayloadArena arena;
    if (rank == 0) {
      arena.begin(static_cast<std::size_t>(n) * kChunk);
      for (int r = 0; r < n; ++r) {
        const Buffer chunk(kChunk, std::byte{static_cast<unsigned char>(r)});
        arena.add(chunk.data(), chunk.size());
      }
      slices = arena.finish();
    }
    const SharedBuffer mine = comm.scatter_shared(slices, 0);
    ASSERT_EQ(mine.size(), kChunk);
    EXPECT_EQ(mine[0], std::byte{static_cast<unsigned char>(rank)});

    // alltoall: every rank's n sends are views of its own single arena.
    arena.begin();
    for (int r = 0; r < n; ++r) {
      Writer(arena.staging()).write(rank * 100 + r);
      arena.end_slice();
    }
    const auto got = comm.alltoall_shared(arena.finish());
    for (int r = 0; r < n; ++r) {
      EXPECT_EQ(Reader(got[static_cast<std::size_t>(r)]).read<int>(), r * 100 + rank);
    }

    // gather: the scatter slice travels back by reference, and the root
    // places children shared — no per-child materializing copy.
    const auto all = comm.gather_shared(mine, 0);
    if (rank == 0) {
      ASSERT_EQ(all.size(), static_cast<std::size_t>(n));
      for (int r = 0; r < n; ++r) {
        EXPECT_EQ(all[static_cast<std::size_t>(r)][0], std::byte{static_cast<unsigned char>(r)});
      }
    }

    comm.barrier();
    if (rank == 0) {
      EXPECT_EQ(payload_bytes_copied() - before, 0u);
    }
  });
}

TEST(TransportArena, KillRankMidScatterReleasesArenaStorage) {
  // Rank 2 dies on the receive side of an arena scatter (-5000 is the
  // communicator's internal scatter tag).  The survivors must finish
  // without deadlock — posts to a dead mailbox never block — and the
  // arena storage must be fully released at teardown: the dead rank's
  // undelivered envelope cannot leak its slice.
  auto faults = std::make_shared<FaultInjector>();
  FaultRule rule;
  rule.op = FaultOp::kRecv;
  rule.rank = 2;
  rule.peer = 0;
  rule.tag = -5000;
  rule.action = FaultAction::kKillRank;
  faults->add_rule(rule);
  std::weak_ptr<const Buffer> storage;
  const LaunchStats stats = launch(
      4,
      [&storage](Communicator& comm) {
        std::vector<SharedBuffer> slices;
        PayloadArena arena;
        if (comm.rank() == 0) {
          arena.begin();
          for (int r = 0; r < comm.size(); ++r) {
            Writer(arena.staging()).write(r * 3 + 1);
            arena.end_slice();
          }
          slices = arena.finish();
          storage = slices[0].storage();
        }
        // Rank 2 unwinds inside this call; everyone else completes.
        const SharedBuffer mine = comm.scatter_shared(slices, 0);
        EXPECT_EQ(Reader(mine).read<int>(), comm.rank() * 3 + 1);
      },
      NetworkConfig{}, faults);
  ASSERT_EQ(stats.ranks_killed, std::vector<int>{2});
  EXPECT_TRUE(storage.expired()) << "arena storage leaked after the launch";
}

TEST(TransportBufferPool, AdaptiveWatermarkTracksShiftingWorkload) {
  BufferPool::drain_thread_cache();
  constexpr std::size_t kSmall = 16u * 1024;
  ASSERT_EQ(BufferPool::thread_class_watermark(kSmall), BufferPool::kMaxPerClass);
  const std::uint64_t resizes_before = BufferPool::totals().resizes;

  // Phase 1: a steady working set of 24 in-flight buffers in one class.
  // Each early round's acquires outrun the kMaxPerClass retained buffers,
  // and the miss streaks double the watermark until the whole set sticks.
  constexpr int kWorkingSet = 24;
  for (int round = 0; round < 8; ++round) {
    std::vector<Buffer> live;
    live.reserve(kWorkingSet);
    for (int i = 0; i < kWorkingSet; ++i) live.push_back(BufferPool::acquire(kSmall));
    for (auto& b : live) BufferPool::release(std::move(b));
  }
  const std::size_t boosted = BufferPool::thread_class_watermark(kSmall);
  EXPECT_GE(boosted, static_cast<std::size_t>(kWorkingSet));
  EXPECT_LE(boosted, BufferPool::kMaxPerClassLimit);
  EXPECT_GT(BufferPool::totals().resizes, resizes_before);

  // Steady state: the full set now round-trips through the pool.
  const std::uint64_t hits_before = BufferPool::totals().hits;
  {
    std::vector<Buffer> live;
    live.reserve(kWorkingSet);
    for (int i = 0; i < kWorkingSet; ++i) live.push_back(BufferPool::acquire(kSmall));
    for (auto& b : live) BufferPool::release(std::move(b));
  }
  EXPECT_EQ(BufferPool::totals().hits - hits_before,
            static_cast<std::uint64_t>(kWorkingSet));

  // Phase 2: the workload shifts to jumbo buffers that fill the 32 MiB
  // byte budget.  Retaining them evicts the now-idle small class and
  // halves its watermark back to the floor — the pool converges on the
  // sizes actually in use.
  constexpr std::size_t kJumbo = 4u * 1024 * 1024;
  for (int round = 0; round < 4; ++round) {
    std::vector<Buffer> live;
    for (int i = 0; i < 9; ++i) live.push_back(BufferPool::acquire(kJumbo));
    for (auto& b : live) BufferPool::release(std::move(b));
  }
  EXPECT_EQ(BufferPool::thread_class_watermark(kSmall), BufferPool::kMaxPerClass);
  BufferPool::drain_thread_cache();
}

}  // namespace
}  // namespace smart::simmpi
