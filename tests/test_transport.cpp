// Transport-invariant tests for the sharded-mailbox / shared-payload /
// pooled-buffer data plane (run under TSan by scripts/check.sh):
//   * MPI's non-overtaking guarantee — FIFO per (source, tag) — under
//     multi-producer contention,
//   * any-source receives merge lanes by arrival order (no lane starves),
//     and a receive examines lane heads, never the queued backlog,
//   * receive_for's deadline racing a concurrent post never loses or
//     duplicates a message,
//   * collectives at non-power-of-two sizes (n = 3, 5, 7),
//   * shared fan-out payloads move zero bytes (bcast_shared, allreduce,
//     split) while the duplicate fault shares one payload instead of
//     deep-copying it,
//   * BufferPool recycling, retention bounds, and counters,
//   * the alpha-beta arrival stamp, and the rejection of out-of-domain
//     configs and of SMART_NET_* variables the network does not read.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/env.h"
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
  EXPECT_EQ(box.pending(), 1u);
  const auto stale = box.try_receive(0, 1);
  ASSERT_TRUE(stale.has_value());
  EXPECT_EQ(envelope_value(*stale), 100);
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

TEST(TransportMailbox, ReceivesExamineLaneHeadsNotMessages) {
  // bench/micro_transport.cpp's fan-in shape: a stale backlog of 4096
  // control-tag messages over 64 sources sits queued ahead of 16 data
  // messages.  A receive pays for lane heads, not queued messages: an
  // exact (source, tag) receive examines its own lane's head only, and an
  // any-source receive at most one head per active lane — where one deque
  // scanned front to back would pass the whole backlog.
  constexpr int kBacklog = 4096;
  constexpr int kStaleSources = 64;
  constexpr int kFanIn = 16;
  constexpr int kControlTag = 1;
  constexpr int kDataTag = 2;
  Mailbox box;
  for (int i = 0; i < kBacklog; ++i) box.post(make_envelope(i % kStaleSources, kControlTag, i));
  const auto post_data = [&box] {
    for (int p = 0; p < kFanIn; ++p) box.post(make_envelope(p, kDataTag, p));
  };
  post_data();
  ASSERT_EQ(box.lane_count(), static_cast<std::size_t>(kStaleSources + kFanIn));
  for (int p = 0; p < kFanIn; ++p) {
    const std::size_t lanes = box.lane_count();
    const std::uint64_t before = box.heads_examined();
    const auto e = box.try_receive(kAnySource, kDataTag);
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(envelope_value(*e), p);  // arrival order
    EXPECT_LE(box.heads_examined() - before, lanes) << "any-source receive " << p;
  }
  post_data();
  for (int p = 0; p < kFanIn; ++p) {
    const std::uint64_t before = box.heads_examined();
    const Envelope e = box.receive(p, kDataTag);
    EXPECT_EQ(envelope_value(e), p);
    EXPECT_EQ(box.heads_examined() - before, 1u) << "exact-source receive " << p;
  }
  EXPECT_EQ(box.pending(), static_cast<std::size_t>(kBacklog));
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

TEST(TransportBufferPool, SteadyLoopHitsAfterFirstAcquire) {
  // A steady loop at one message size must recycle its buffer: only the
  // first acquire may miss.  Sizes are rarely powers of two; 64 KiB and
  // 1 MiB are bench/micro_transport.cpp's BM_PooledBufferPerMessage sizes.
  for (const std::size_t size : {std::size_t{300}, std::size_t{8472}, std::size_t{65536},
                                 std::size_t{1048576}}) {
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
  // split moves each (color, key, rank) entry to rank 0 and broadcasts the
  // table as one shared payload: the whole operation copies nothing.
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

TEST(TransportNetwork, FlatArrivalIsAlphaPlusBytesOverBeta) {
  // The arrival stamp is (depart + alpha) + bytes / beta, evaluated in that
  // order so every stamp is bit-identical to the cost model it replaced.
  const NetworkConfig cfg;
  constexpr std::size_t kBytes = 1u << 20;
  constexpr double kDepart = 0.02;
  const double transfer = static_cast<double>(kBytes) / cfg.beta_bytes_per_second;
  const double expected = (kDepart + cfg.alpha_seconds) + transfer;
  // At this departure the other association rounds differently, so the
  // check below pins the order, not just the terms.
  ASSERT_NE(expected, kDepart + (cfg.alpha_seconds + transfer));
  EXPECT_EQ(cfg.arrival_vtime(kBytes, kDepart), expected);
  // Stateless: a repeated identical send costs the same.
  EXPECT_EQ(cfg.arrival_vtime(kBytes, kDepart), cfg.arrival_vtime(kBytes, kDepart));
  EXPECT_EQ(cfg.arrival_vtime(0, kDepart), kDepart + cfg.alpha_seconds);
}

TEST(TransportNetwork, OutOfDomainFieldsThrowNamingTheField) {
  // Each case breaks one field of an otherwise valid config: a zero or
  // negative bandwidth, or a negative or non-finite latency.  launch()
  // rejects it before any rank starts.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<std::string, std::function<void(NetworkConfig&)>>> cases = {
      {"alpha_seconds", [](NetworkConfig& c) { c.alpha_seconds = -1e-6; }},
      {"alpha_seconds", [&](NetworkConfig& c) { c.alpha_seconds = nan; }},
      {"beta_bytes_per_second", [](NetworkConfig& c) { c.beta_bytes_per_second = 0.0; }},
      {"beta_bytes_per_second", [](NetworkConfig& c) { c.beta_bytes_per_second = -5e9; }},
      {"beta_bytes_per_second", [&](NetworkConfig& c) { c.beta_bytes_per_second = inf; }},
  };
  const auto noop = [](Communicator&) {};
  EXPECT_NO_THROW(launch(1, noop, NetworkConfig{}));
  for (const auto& [field, corrupt] : cases) {
    NetworkConfig bad;
    corrupt(bad);
    try {
      launch(1, noop, bad);
      ADD_FAILURE() << "no throw for a bad " << field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << "'" << e.what() << "' does not name " << field;
    }
  }
  // Zero latency is a legal ideal link.
  NetworkConfig ideal;
  ideal.alpha_seconds = 0.0;
  EXPECT_NO_THROW(launch(1, noop, ideal));
}

TEST(TransportNetwork, EnvironmentIntegersAreRangeChecked) {
  // Each bad value throws naming its variable; none may wrap in a cast (a
  // negative lane cap to SIZE_MAX).  So does any SMART_NET_* variable the
  // network does not read: a setting of the removed topology models, or a
  // misspelling, would otherwise leave the run priced at the defaults.
  const std::vector<std::pair<const char*, const char*>> bad = {
      {"SMART_NET_LANE_CAP", "-1"},
      {"SMART_NET_LANE_CAP", "four"},
      {"SMART_NET_LANE_CAP_BYTES", "64k"},
      {"SMART_NET_LANE_CAP_BYTES", "18446744073709551617"},
      {"SMART_SCHED_SEED", "-7"},
      {"SMART_NET_MODEL", "dragonfly"},
      {"SMART_NET_RANKS_PER_NODE", "2"},
      {"SMART_NET_TORUS_X", "4"},
      {"SMART_NET_APLHA", "1e-6"},
  };
  for (const auto& [name, value] : bad) {
    ASSERT_EQ(setenv(name, value, 1), 0);
    try {
      (void)NetworkConfig::from_env();
      ADD_FAILURE() << name << "=" << value << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
    }
    unsetenv(name);
  }
  // A bad double is caught where launch() takes the environment's config.
  ASSERT_EQ(setenv("SMART_NET_BETA", "0", 1), 0);
  EXPECT_THROW(launch(1, [](Communicator&) {}), std::invalid_argument);
  unsetenv("SMART_NET_BETA");

  ASSERT_EQ(setenv("SMART_NET_LANE_CAP", "0", 1), 0);
  ASSERT_EQ(setenv("SMART_NET_LANE_CAP_BYTES", "4096", 1), 0);
  ASSERT_EQ(setenv("SMART_NET_MODEL", "", 1), 0);  // empty means unset
  const NetworkConfig cfg = NetworkConfig::from_env();
  EXPECT_EQ(cfg.lane_capacity_msgs, 0u);
  EXPECT_EQ(cfg.lane_capacity_bytes, 4096u);
  unsetenv("SMART_NET_LANE_CAP");
  unsetenv("SMART_NET_LANE_CAP_BYTES");
  unsetenv("SMART_NET_MODEL");
}

TEST(TransportNetwork, EnvironmentDoublesAreRangeChecked) {
  // Each bad value throws naming its variable, instead of running at the
  // default (text) or at a prefix of the value (trailing text).
  const std::vector<std::pair<const char*, const char*>> bad = {
      {"SMART_NET_BETA", "fast"},  {"SMART_NET_ALPHA", "1e-3x"}, {"SMART_NET_ALPHA", "-1e-6"},
      {"SMART_NET_ALPHA", "nan"},  {"SMART_NET_BETA", "inf"},    {"SMART_NET_BETA", "1e999"},
  };
  for (const auto& [name, value] : bad) {
    ASSERT_EQ(setenv(name, value, 1), 0);
    try {
      (void)NetworkConfig::from_env();
      ADD_FAILURE() << name << "=" << value << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
    }
    unsetenv(name);
  }
  ASSERT_EQ(setenv("SMART_NET_ALPHA", "1e-3", 1), 0);
  EXPECT_EQ(NetworkConfig::from_env().alpha_seconds, 1e-3);
  unsetenv("SMART_NET_ALPHA");

  // The bench scale multiplies sizes that are cast to std::size_t, so it
  // must be a finite positive number, and a bounded one.
  for (const char* value : {"abc", "2x", "-1", "0", "inf", "1e300"}) {
    ASSERT_EQ(setenv("SMART_BENCH_SCALE", value, 1), 0);
    try {
      (void)bench_scale();
      ADD_FAILURE() << "SMART_BENCH_SCALE=" << value << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("SMART_BENCH_SCALE"), std::string::npos) << e.what();
    }
  }
  ASSERT_EQ(setenv("SMART_BENCH_SCALE", "0.5", 1), 0);
  EXPECT_EQ(bench_scale(), 0.5);
  unsetenv("SMART_BENCH_SCALE");
  EXPECT_EQ(bench_scale(), 1.0);
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
