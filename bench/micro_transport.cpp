// Transport microbenchmarks (google-benchmark): before/after pairs for the
// simmpi data-plane overhaul, emitted to BENCH_transport.json by
// scripts/bench.sh.
//
//   * any-source fan-in: LegacyMailbox (the replaced design — one deque,
//     O(pending) matching scan, notify_all) vs the sharded-lane Mailbox,
//     with a backlog of stale control messages ahead of the data — the
//     shape a combination root sees when collective tags from other rounds
//     sit queued while it drains this round's payloads.
//   * 8-rank 1 MB broadcast: per-edge payload copies (the legacy fan-out
//     behaviour, reproduced with per-child owning sends) vs bcast_shared's
//     zero-copy shared payload, measured by the transport's own
//     payload_bytes_copied counter rather than wall time.
//   * BufferPool steady-state acquire/release vs a fresh allocation per
//     message.
//   * slow-receiver peak mailbox bytes: unbounded lanes (everything the
//     producer sends sits queued) vs bounded lanes with sender
//     backpressure (peak pinned at the lane cap) — the flow-control
//     acceptance pair, measured by Mailbox::peak_pending_bytes.
//   * topology makespans: the same fig07-style compute + tree-allreduce
//     workload under the flat, fat-tree, and dragonfly cost models; the
//     virtual_makespan_s counters record how link contention stretches the
//     modeled runtime while wall time stays flat.
#include <benchmark/benchmark.h>

#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "simmpi/world.h"

namespace {

using namespace smart;
using namespace smart::simmpi;

// --- the replaced mailbox, kept as the before side of the pairs ------------

/// The pre-lane design: one deque for every pending message, each receive a
/// linear scan for the first match, each post a notify_all to every blocked
/// receiver.  Preserved here (not in src/) so the fan-in pair in
/// BENCH_transport.json keeps measuring the claimed speedup against the
/// design it replaced.
class LegacyMailbox {
 public:
  void post(Envelope e) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      q_.push_back(std::move(e));
    }
    cv_.notify_all();
  }

  std::optional<Envelope> try_receive(int source, int tag) {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = q_.begin(); it != q_.end(); ++it) {
      if ((source == kAnySource || it->source == source) &&
          (tag == kAnyTag || it->tag == tag)) {
        Envelope e = std::move(*it);
        q_.erase(it);
        return e;
      }
    }
    return std::nullopt;
  }

  std::size_t pending() const {
    std::lock_guard<std::mutex> lock(mu_);
    return q_.size();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Envelope> q_;
};

Envelope data_envelope(int source, int tag) {
  Envelope e;
  e.source = source;
  e.tag = tag;
  Buffer b;
  Writer(b).write<std::int64_t>(source);
  e.payload = make_shared_buffer(std::move(b));
  return e;
}

// --- any-source fan-in with a stale backlog --------------------------------

constexpr int kControlTag = 1;
constexpr int kDataTag = 2;
constexpr int kStaleSources = 64;

/// Posts the stale backlog: `backlog` control-tag messages spread over
/// kStaleSources sources (deep lanes), none matching the data receives.
template <typename Box>
void fill_backlog(Box& box, int backlog) {
  for (int i = 0; i < backlog; ++i) {
    box.post(data_envelope(i % kStaleSources, kControlTag));
  }
}

void BM_LegacyAnySourceFanIn(benchmark::State& state) {
  // Every receive scans the whole stale backlog before finding its data
  // message: O(backlog) per message, O(P * backlog) per round.
  const int backlog = static_cast<int>(state.range(0));
  const int fan_in = static_cast<int>(state.range(1));
  LegacyMailbox box;
  fill_backlog(box, backlog);
  for (auto _ : state) {
    for (int p = 0; p < fan_in; ++p) box.post(data_envelope(p, kDataTag));
    for (int p = 0; p < fan_in; ++p) {
      auto e = box.try_receive(kAnySource, kDataTag);
      benchmark::DoNotOptimize(e);
    }
  }
  state.SetItemsProcessed(state.iterations() * fan_in);
}
BENCHMARK(BM_LegacyAnySourceFanIn)->Args({4096, 16})->Args({16384, 16});

void BM_ShardedAnySourceFanIn(benchmark::State& state) {
  // Lanes: the stale backlog collapses to kStaleSources lane heads; an
  // any-source receive merges lane heads instead of scanning messages.
  const int backlog = static_cast<int>(state.range(0));
  const int fan_in = static_cast<int>(state.range(1));
  Mailbox box;
  fill_backlog(box, backlog);
  for (auto _ : state) {
    for (int p = 0; p < fan_in; ++p) box.post(data_envelope(p, kDataTag));
    for (int p = 0; p < fan_in; ++p) {
      auto e = box.try_receive(kAnySource, kDataTag);
      benchmark::DoNotOptimize(e);
    }
  }
  state.SetItemsProcessed(state.iterations() * fan_in);
}
BENCHMARK(BM_ShardedAnySourceFanIn)->Args({4096, 16})->Args({16384, 16});

void BM_LegacyExactSourceRecv(benchmark::State& state) {
  const int backlog = static_cast<int>(state.range(0));
  LegacyMailbox box;
  fill_backlog(box, backlog);
  for (auto _ : state) {
    box.post(data_envelope(7, kDataTag));
    auto e = box.try_receive(7, kDataTag);
    benchmark::DoNotOptimize(e);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LegacyExactSourceRecv)->Arg(4096);

void BM_ShardedExactSourceRecv(benchmark::State& state) {
  const int backlog = static_cast<int>(state.range(0));
  Mailbox box;
  fill_backlog(box, backlog);
  for (auto _ : state) {
    box.post(data_envelope(7, kDataTag));
    auto e = box.try_receive(7, kDataTag);
    benchmark::DoNotOptimize(e);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShardedExactSourceRecv)->Arg(4096);

// --- 8-rank 1 MB broadcast payload copies ----------------------------------

constexpr int kBcastRanks = 8;
constexpr std::size_t kBcastBytes = 1u << 20;
constexpr int kBcastRoundsPerLaunch = 4;
constexpr int kBcastTagBase = 100;

/// The legacy fan-out: every binomial-tree edge ships its own owning copy
/// of the payload (what bcast did before shared payloads) — n-1 copies of
/// the full buffer per broadcast, reproduced with per-child owning sends
/// over the current transport.
void legacy_edge_copy_bcast(Communicator& comm, Buffer& buf, int root, int tag) {
  const int n = comm.size();
  const int rel = (comm.rank() - root + n) % n;
  if (rel != 0) {
    int mask = 1;
    while ((rel & mask) == 0) mask <<= 1;
    const int parent_rel = rel & ~mask;
    buf = comm.recv((parent_rel + root) % n, tag);
    for (int m = mask >> 1; m >= 1; m >>= 1) {
      if (rel + m < n) comm.send((rel + m + root) % n, tag, buf);
    }
  } else {
    int top = 1;
    while (top < n) top <<= 1;
    for (int m = top >> 1; m >= 1; m >>= 1) {
      if (m < n) comm.send((m + root) % n, tag, buf);
    }
  }
}

void BM_LegacyBcast1MiB8Ranks(benchmark::State& state) {
  std::uint64_t copied = 0;
  std::int64_t rounds = 0;
  for (auto _ : state) {
    const std::uint64_t before = payload_bytes_copied();
    launch(kBcastRanks, [](Communicator& comm) {
      Buffer buf;
      if (comm.rank() == 0) buf.assign(kBcastBytes, std::byte{1});
      for (int r = 0; r < kBcastRoundsPerLaunch; ++r) {
        legacy_edge_copy_bcast(comm, buf, 0, kBcastTagBase + r);
      }
    });
    copied += payload_bytes_copied() - before;
    rounds += kBcastRoundsPerLaunch;
  }
  state.SetItemsProcessed(rounds);
  state.counters["payload_bytes_copied_per_bcast"] =
      benchmark::Counter(static_cast<double>(copied) / static_cast<double>(rounds));
}
BENCHMARK(BM_LegacyBcast1MiB8Ranks)->Unit(benchmark::kMillisecond);

void BM_SharedBcast1MiB8Ranks(benchmark::State& state) {
  std::uint64_t copied = 0;
  std::int64_t rounds = 0;
  for (auto _ : state) {
    const std::uint64_t before = payload_bytes_copied();
    launch(kBcastRanks, [](Communicator& comm) {
      SharedBuffer data;
      if (comm.rank() == 0) data = make_shared_buffer(Buffer(kBcastBytes, std::byte{1}));
      for (int r = 0; r < kBcastRoundsPerLaunch; ++r) {
        comm.bcast_shared(data, 0);
        benchmark::DoNotOptimize(data.size());
      }
    });
    copied += payload_bytes_copied() - before;
    rounds += kBcastRoundsPerLaunch;
  }
  state.SetItemsProcessed(rounds);
  state.counters["payload_bytes_copied_per_bcast"] =
      benchmark::Counter(static_cast<double>(copied) / static_cast<double>(rounds));
}
BENCHMARK(BM_SharedBcast1MiB8Ranks)->Unit(benchmark::kMillisecond);

// --- buffer pool vs fresh allocation ---------------------------------------

// The codec hot path: serialize a message into a Buffer.  The fresh side
// grows from zero capacity — the geometric realloc-and-copy churn every
// per-round wire serialization used to pay; the pooled side acquires
// storage already sized by the previous round (the prepare_wire pattern in
// the map combiner) and appends without a single reallocation.
void serialize_message(Buffer& b, std::size_t bytes) {
  Writer w(b);
  for (std::size_t i = 0; i < bytes / sizeof(std::uint64_t); ++i) {
    w.write<std::uint64_t>(i);
  }
}

void BM_FreshBufferPerMessage(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Buffer b;
    serialize_message(b, bytes);
    benchmark::DoNotOptimize(b.data());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_FreshBufferPerMessage)->Arg(64 * 1024)->Arg(1 << 20);

void BM_PooledBufferPerMessage(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Buffer b = BufferPool::acquire(bytes);
    serialize_message(b, bytes);
    benchmark::DoNotOptimize(b.data());
    BufferPool::release(std::move(b));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bytes));
  BufferPool::drain_thread_cache();
}
BENCHMARK(BM_PooledBufferPerMessage)->Arg(64 * 1024)->Arg(1 << 20);

// --- slow-receiver peak mailbox bytes (flow-control acceptance pair) -------

constexpr std::size_t kStreamMsgBytes = 64u * 1024;
constexpr int kStreamMsgs = 64;
constexpr std::size_t kLaneCapBytes = 256u * 1024;

Envelope stream_envelope(std::size_t nbytes) {
  Envelope e;
  e.source = 0;
  e.tag = kDataTag;
  e.payload = make_shared_buffer(Buffer(nbytes, std::byte{3}));
  return e;
}

/// Producer streams 4 MiB at a consumer that drains late: with no lane
/// bound the entire stream buffers in the mailbox (peak = total).
void BM_UnboundedSlowReceiverPeakBytes(benchmark::State& state) {
  double peak = 0.0;
  for (auto _ : state) {
    Mailbox box;  // unbounded: World-applied caps absent on a raw mailbox
    for (int i = 0; i < kStreamMsgs; ++i) box.post(stream_envelope(kStreamMsgBytes));
    for (int i = 0; i < kStreamMsgs; ++i) benchmark::DoNotOptimize(box.receive(0, kDataTag));
    peak = static_cast<double>(box.peak_pending_bytes());
  }
  state.SetItemsProcessed(state.iterations() * kStreamMsgs);
  state.counters["peak_mailbox_bytes"] = benchmark::Counter(peak);
}
BENCHMARK(BM_UnboundedSlowReceiverPeakBytes);

/// Same stream through a 256 KiB lane bound: the producer blocks at the
/// cap, so peak queued bytes never exceeds it no matter how far the
/// consumer lags.
void BM_BoundedSlowReceiverPeakBytes(benchmark::State& state) {
  double peak = 0.0;
  for (auto _ : state) {
    Mailbox box;
    box.set_lane_capacity(0, kLaneCapBytes);
    std::thread producer([&box] {
      for (int i = 0; i < kStreamMsgs; ++i) box.post(stream_envelope(kStreamMsgBytes));
    });
    for (int i = 0; i < kStreamMsgs; ++i) benchmark::DoNotOptimize(box.receive(0, kDataTag));
    producer.join();
    peak = static_cast<double>(box.peak_pending_bytes());
  }
  state.SetItemsProcessed(state.iterations() * kStreamMsgs);
  state.counters["peak_mailbox_bytes"] = benchmark::Counter(peak);
}
BENCHMARK(BM_BoundedSlowReceiverPeakBytes);

// --- topology makespans -----------------------------------------------------

constexpr int kTopoRanks = 8;
constexpr std::size_t kTopoElems = 32u * 1024;  // 256 KiB of doubles
constexpr int kTopoRounds = 3;

/// fig07's shape in miniature: per-rank compute then a tree allreduce of a
/// 256 KiB vector, iterated.  The virtual makespan is what the cost model
/// says an ideal cluster of kTopoRanks one-core nodes would take; the
/// fat-tree and dragonfly models stretch it with tapered-link queueing the
/// flat model cannot see.
void topology_makespan(benchmark::State& state, const char* model) {
  NetworkConfig cfg;
  cfg.model = model;
  // 2 ranks per node, 2 nodes per pod/group: 8 ranks span 2 pods (groups),
  // so the allreduce tree crosses tapered links every round.
  cfg.ranks_per_node = 2;
  cfg.nodes_per_edge = 2;
  cfg.nodes_per_group = 2;
  double makespan = 0.0;
  for (auto _ : state) {
    const LaunchStats stats = launch(
        kTopoRanks,
        [](Communicator& comm) {
          std::vector<double> v(kTopoElems, static_cast<double>(comm.rank()));
          for (int r = 0; r < kTopoRounds; ++r) {
            comm.advance(1e-3);  // modeled compute phase
            v = comm.allreduce_sum(v);
          }
          benchmark::DoNotOptimize(v.data());
        },
        cfg);
    makespan = stats.makespan();
  }
  state.SetItemsProcessed(state.iterations() * kTopoRounds);
  state.counters["virtual_makespan_s"] = benchmark::Counter(makespan);
}

void BM_TopologyMakespanFlat(benchmark::State& state) { topology_makespan(state, "flat"); }
BENCHMARK(BM_TopologyMakespanFlat)->Unit(benchmark::kMillisecond);

void BM_TopologyMakespanFatTree(benchmark::State& state) { topology_makespan(state, "fattree"); }
BENCHMARK(BM_TopologyMakespanFatTree)->Unit(benchmark::kMillisecond);

void BM_TopologyMakespanDragonfly(benchmark::State& state) {
  topology_makespan(state, "dragonfly");
}
BENCHMARK(BM_TopologyMakespanDragonfly)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
