// Transport microbenchmarks (google-benchmark) for the simmpi data plane,
// recorded in BENCH_transport.json by scripts/bench.sh.  None is gated on
// wall time: each path's property has a deterministic test instead
// (tests/test_transport.cpp).
//
//   * any-source fan-in and exact-source receive behind a backlog of stale
//     control messages — the shape a combination root sees when collective
//     tags from other rounds sit queued while it drains this round's
//     payloads.  Lanes make a receive cost lane heads, not queued messages
//     (TransportMailbox.ReceivesExamineLaneHeadsNotMessages).
//   * 8-rank 1 MB broadcast through bcast_shared's one shared payload, with
//     the transport's own payload_bytes_copied counter (0 per bcast;
//     TransportSharedPayload.BcastSharedMovesZeroBytes).
//   * BufferPool steady-state acquire/release at 64 KiB and 1 MiB
//     (TransportBufferPool.SteadyLoopHitsAfterFirstAcquire).
#include <benchmark/benchmark.h>

#include "simmpi/world.h"

namespace {

using namespace smart;
using namespace smart::simmpi;

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
void fill_backlog(Mailbox& box, int backlog) {
  for (int i = 0; i < backlog; ++i) {
    box.post(data_envelope(i % kStaleSources, kControlTag));
  }
}

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

// --- 8-rank 1 MB broadcast ----------------------------------------------------

constexpr int kBcastRanks = 8;
constexpr std::size_t kBcastBytes = 1u << 20;
constexpr int kBcastRoundsPerLaunch = 4;

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

// --- buffer pool -------------------------------------------------------------

// The codec hot path: serialize a message into a Buffer acquired from the
// pool, storage already sized by the previous round (the prepare_wire
// pattern in the map combiner), so it appends without a reallocation.
void serialize_message(Buffer& b, std::size_t bytes) {
  Writer w(b);
  for (std::size_t i = 0; i < bytes / sizeof(std::uint64_t); ++i) {
    w.write<std::uint64_t>(i);
  }
}

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

}  // namespace

BENCHMARK_MAIN();
