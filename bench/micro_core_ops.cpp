// Microbenchmarks (google-benchmark) for the core runtime operations the
// figures aggregate: in-place reduction, map serialization, the circular
// buffer, simmpi point-to-point and collectives, and end-to-end per-element
// costs of representative analytics.
#include <benchmark/benchmark.h>

#include <cmath>
#include <map>

#include "analytics/batch_kernels.h"
#include "analytics/grid_aggregation.h"
#include "analytics/histogram.h"
#include "analytics/kmeans.h"
#include "analytics/moving_average.h"
#include "analytics/red_objs.h"
#include "analytics/summary_stats.h"
#include "common/rng.h"
#include "core/scheduler.h"
#include "simmpi/world.h"
#include "threading/circular_buffer.h"
#include "threading/thread_pool.h"

namespace {

using namespace smart;
using namespace smart::analytics;

std::vector<double> bench_data(std::size_t n) {
  Rng rng(4242);
  return rng.gaussian_vector(n);
}

// --- reduction-map operations ----------------------------------------------

void BM_ReductionMapAccumulate(benchmark::State& state) {
  // The inner loop of Smart's reduction phase: locate by key, accumulate in
  // place (no KV pair emission).
  register_red_objs();
  CombinationMap map;
  const auto keys = static_cast<int>(state.range(0));
  std::size_t i = 0;
  for (auto _ : state) {
    const int key = static_cast<int>(i++ % static_cast<std::size_t>(keys));
    auto& slot = map[key];
    if (!slot) slot = std::make_unique<Bucket>();
    static_cast<Bucket&>(*slot).count += 1;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_ReductionMapAccumulate)->Arg(100)->Arg(1200)->Arg(10000);

void BM_LegacyStdMapAccumulate(benchmark::State& state) {
  // The structure CombinationMap replaced — the same accumulate loop over a
  // std::map (red-black tree) — kept as the before side of the flat-map
  // comparison recorded in BENCH_core.json.
  register_red_objs();
  std::map<int, std::unique_ptr<RedObj>> map;
  const auto keys = static_cast<int>(state.range(0));
  std::size_t i = 0;
  for (auto _ : state) {
    const int key = static_cast<int>(i++ % static_cast<std::size_t>(keys));
    auto& slot = map[key];
    if (!slot) slot = std::make_unique<Bucket>();
    static_cast<Bucket&>(*slot).count += 1;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_LegacyStdMapAccumulate)->Arg(100)->Arg(1200)->Arg(10000);

void BM_CombinationMapInsert(benchmark::State& state) {
  // Cold-map seeding cost: N fresh inserts (hash + append) per iteration.
  register_red_objs();
  const int keys = static_cast<int>(state.range(0));
  for (auto _ : state) {
    CombinationMap map;
    for (int k = 0; k < keys; ++k) map.emplace(k, std::make_unique<Bucket>());
    benchmark::DoNotOptimize(map);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * keys);
}
BENCHMARK(BM_CombinationMapInsert)->Arg(100)->Arg(10000);

void BM_LegacyStdMapInsert(benchmark::State& state) {
  register_red_objs();
  const int keys = static_cast<int>(state.range(0));
  for (auto _ : state) {
    std::map<int, std::unique_ptr<RedObj>> map;
    for (int k = 0; k < keys; ++k) map.emplace(k, std::make_unique<Bucket>());
    benchmark::DoNotOptimize(map);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * keys);
}
BENCHMARK(BM_LegacyStdMapInsert)->Arg(100)->Arg(10000);

void BM_MapCodec(benchmark::State& state) {
  // Map wire codec round trip (interned type table, varint indices,
  // per-type factory resolution); the wire_bytes counter is the payload
  // size RUNSTATS wire_bytes lines inherit.
  register_red_objs();
  CombinationMap map;
  for (int k = 0; k < state.range(0); ++k) {
    auto b = std::make_unique<Bucket>();
    b->count = static_cast<std::size_t>(k);
    map.emplace(k, std::move(b));
  }
  std::size_t wire_bytes = 0;
  for (auto _ : state) {
    Buffer buf;
    serialize_map(map, buf);
    wire_bytes = buf.size();
    benchmark::DoNotOptimize(deserialize_map(buf));
  }
  state.counters["wire_bytes"] = benchmark::Counter(static_cast<double>(wire_bytes));
}
BENCHMARK(BM_MapCodec)->Arg(100)->Arg(10000);

void BM_LocalCombine(benchmark::State& state) {
  // The scheduler's local-combination phase in isolation: 8 worker maps of
  // N buckets each fold worker-after-worker into one.
  register_red_objs();
  const int keys = static_cast<int>(state.range(0));
  constexpr int kWorkers = 8;
  const MergeFn merge = [](const RedObj& red, std::unique_ptr<RedObj>& com) {
    static_cast<Bucket&>(*com).count += static_cast<const Bucket&>(red).count;
  };
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<CombinationMap> maps(kWorkers);
    for (auto& m : maps) {
      for (int k = 0; k < keys; ++k) {
        auto b = std::make_unique<Bucket>();
        b->count = 1;
        m.emplace(k, std::move(b));
      }
    }
    state.ResumeTiming();
    CombinationMap fresh;
    for (auto& m : maps) merge_map_into(std::move(m), fresh, merge);
    benchmark::DoNotOptimize(fresh);
  }
}
BENCHMARK(BM_LocalCombine)->Arg(512)->Arg(8192);

void BM_MapSerializeRoundTrip(benchmark::State& state) {
  // The global-combination cost unit: serialize + deserialize a map.
  register_red_objs();
  CombinationMap map;
  for (int k = 0; k < state.range(0); ++k) {
    auto b = std::make_unique<Bucket>();
    b->count = static_cast<std::size_t>(k);
    map.emplace(k, std::move(b));
  }
  for (auto _ : state) {
    Buffer buf;
    serialize_map(map, buf);
    benchmark::DoNotOptimize(deserialize_map(buf));
  }
}
BENCHMARK(BM_MapSerializeRoundTrip)->Arg(100)->Arg(1200)->Arg(10000);

void BM_RedObjClone(benchmark::State& state) {
  ClusterObj obj;
  obj.centroid.assign(64, 1.0);
  obj.sum.assign(64, 2.0);
  for (auto _ : state) benchmark::DoNotOptimize(obj.clone());
}
BENCHMARK(BM_RedObjClone);

// --- threading substrate -----------------------------------------------------

void BM_CircularBufferPushPop(benchmark::State& state) {
  CircularBuffer<std::vector<double>> buf(4);
  std::vector<double> cell(static_cast<std::size_t>(state.range(0)), 1.0);
  for (auto _ : state) {
    buf.push(cell);
    benchmark::DoNotOptimize(buf.pop());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0) *
                          static_cast<std::int64_t>(sizeof(double)));
}
BENCHMARK(BM_CircularBufferPushPop)->Arg(1024)->Arg(65536);

void BM_ThreadPoolRegionLatency(benchmark::State& state) {
  ThreadPool pool(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    pool.parallel_region([](int) {});
  }
}
BENCHMARK(BM_ThreadPoolRegionLatency)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// --- simmpi ------------------------------------------------------------------

void BM_SimmpiPingPong(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    simmpi::launch(2, [&](simmpi::Communicator& comm) {
      Buffer payload(bytes);
      if (comm.rank() == 0) {
        comm.send(1, 0, std::move(payload));
        (void)comm.recv(1, 1);
      } else {
        Buffer got = comm.recv(0, 0);
        comm.send(0, 1, std::move(got));
      }
    });
  }
}
BENCHMARK(BM_SimmpiPingPong)->Arg(64)->Arg(65536);

void BM_SimmpiAllreduce(benchmark::State& state) {
  const int nranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    simmpi::launch(nranks, [](simmpi::Communicator& comm) {
      std::vector<double> v(256, static_cast<double>(comm.rank()));
      benchmark::DoNotOptimize(comm.allreduce_sum(v));
    });
  }
}
BENCHMARK(BM_SimmpiAllreduce)->Arg(2)->Arg(4)->Arg(8);

void BM_SimmpiAllreduceAlgorithms(benchmark::State& state) {
  // The binomial tree + broadcast allreduce_sum at 4 ranks, on a small and
  // a large vector.
  const std::size_t len = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    simmpi::launch(4, [&](simmpi::Communicator& comm) {
      std::vector<double> v(len, static_cast<double>(comm.rank()));
      benchmark::DoNotOptimize(comm.allreduce_sum(v));
    });
  }
}
BENCHMARK(BM_SimmpiAllreduceAlgorithms)->Arg(1 << 10)->Arg(1 << 17);

// --- end-to-end analytics per element ---------------------------------------

void BM_HistogramEndToEnd(benchmark::State& state) {
  const auto data = bench_data(1 << 16);
  Histogram<double> hist(SchedArgs(static_cast<int>(state.range(0)), 1), -5.0, 5.0, 100);
  for (auto _ : state) {
    hist.run(data.data(), data.size(), nullptr, 0);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_HistogramEndToEnd)->Arg(1)->Arg(4);

void BM_MovingAverageEndToEnd(benchmark::State& state) {
  const auto data = bench_data(1 << 14);
  const bool trigger = state.range(0) != 0;
  RunOptions opts;
  opts.enable_trigger = trigger;
  MovingAverage<double> ma(SchedArgs(2, 1), 25, opts);
  std::vector<double> out(data.size(), 0.0);
  for (auto _ : state) {
    ma.run2(data.data(), data.size(), out.data(), out.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
  state.SetLabel(trigger ? "early-emission" : "no-trigger");
}
BENCHMARK(BM_MovingAverageEndToEnd)->Arg(1)->Arg(0);

// --- batched reduction path ---------------------------------------------------
//
// One app over one input, single-threaded, on the default batched path
// (one gen_keys_batch per batch, key-run detection, one accumulate_batch
// per run; DESIGN.md §4.8).  Recorded in BENCH_core.json, not gated: the
// call counts are pinned by RunBatched.OneAccumulateBatchPerKeyRun and the
// kernels' vectorization by check.sh's vec probe.
//
// The input is a smooth field — a slowly drifting wave, the shape an
// in-situ simulation slab actually has and the shape key-run detection is
// built for.  White noise (run length ~1) is covered by the kernel-level
// bench below, which measures gen_keys_batch vectorization alone.

std::vector<double> smooth_field(std::size_t n, std::uint64_t seed = 77) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = std::sin(static_cast<double>(i) * 1e-3) + 0.005 * rng.gaussian();
  }
  return v;
}

/// Smooth 4-d point stream: points orbit k cluster centers, switching
/// centers every ~few hundred points (a drifting particle population).
std::vector<double> smooth_points(std::size_t n, std::size_t dims, std::size_t k) {
  Rng rng(99);
  std::vector<double> v(n * dims);
  std::size_t cluster = 0;
  for (std::size_t p = 0; p < n; ++p) {
    if (rng.uniform() < 1.0 / 256.0) cluster = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(k) - 1));
    for (std::size_t d = 0; d < dims; ++d) {
      v[p * dims + d] = static_cast<double>(cluster * 10 + d) + 0.1 * rng.gaussian();
    }
  }
  return v;
}

void BM_BatchedAccumulate(benchmark::State& state, const char* app_name) {
  const std::string app = app_name;
  const auto chunks = static_cast<std::size_t>(state.range(0));
  if (app == "histogram") {
    const auto data = smooth_field(chunks);
    Histogram<double> h(SchedArgs(1, 1), -2.0, 2.0, 100);
    for (auto _ : state) h.run(data.data(), data.size(), nullptr, 0);
  } else if (app == "kmeans") {
    constexpr std::size_t dims = 4, k = 8;
    const auto data = smooth_points(chunks, dims, k);
    std::vector<double> init(k * dims);
    for (std::size_t c = 0; c < k; ++c) {
      for (std::size_t d = 0; d < dims; ++d) init[c * dims + d] = static_cast<double>(c * 10 + d);
    }
    KMeansInit seed{init.data(), k, dims};
    KMeans<double> km(SchedArgs(1, dims, &seed, 1), k, dims);
    for (auto _ : state) km.run(data.data(), data.size(), nullptr, 0);
  } else if (app == "moments") {
    const auto data = smooth_field(chunks);
    SummaryStats<double> stats(SchedArgs(1, 1));
    for (auto _ : state) stats.run(data.data(), data.size(), nullptr, 0);
  } else {  // grid
    const auto data = smooth_field(chunks * 8);
    GridAggregation<double> grid(SchedArgs(1, 8), 64);
    for (auto _ : state) grid.run(data.data(), data.size(), nullptr, 0);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(chunks));
}

// The reduction runs on pool workers while the bench thread waits, so the
// default thread-CPU clock would miss all the work: measure process CPU
// (also the stablest clock on a shared/loaded container).
#define SMART_ACCUMULATE_BENCH(tag) \
  BENCHMARK_CAPTURE(BM_BatchedAccumulate, tag, #tag)->MeasureProcessCPUTime()->UseRealTime()
SMART_ACCUMULATE_BENCH(histogram)->Arg(10000)->Arg(100000);
SMART_ACCUMULATE_BENCH(kmeans)->Arg(10000)->Arg(100000);
SMART_ACCUMULATE_BENCH(moments)->Arg(100000);
SMART_ACCUMULATE_BENCH(grid)->Arg(10000);
#undef SMART_ACCUMULATE_BENCH

// Kernel-level bench: the bucketing loop alone, one vectorizable pass over
// white noise (worst-case run length), so it measures SIMD and call
// amortization, not runs.  check.sh's vec probe guards the loop.
void BM_HistogramKeysBatched(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto data = bench_data(n);
  std::vector<int> keys(n);
  for (auto _ : state) {
    kernels::histogram_keys(data.data(), n, 1, -5.0, 0.1, 100, keys.data());
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_HistogramKeysBatched)->Arg(65536);

}  // namespace

BENCHMARK_MAIN();
