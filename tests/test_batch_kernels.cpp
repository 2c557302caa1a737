// Exactness properties for the batched reduction path (DESIGN.md §4.8).
//
// The contract under test: the batched path (gen_keys_batch /
// accumulate_batch over columnar ChunkBatch views) produces *bit-for-bit*
// the results of the per-chunk scalar path, which in turn equals the
// serial single-thread run.  The kernels may only draw SIMD/ILP from
// independent streams — per-element keys, per-dimension sums, other
// points' distance chains — never from reassociating one floating-point
// chain, so equality here is EXPECT_EQ on doubles, not EXPECT_NEAR.
//
// Also covered: the kernel-level identities the batched apps rely on
// (truncation == floor after clamping, hinted == unhinted argmin with the
// lowest-index tie rule) and trigger-driven mid-batch erase through the
// default accumulate_batch.  Registered under the `schedule` ctest label and
// run under TSan by scripts/check.sh.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <vector>

#include "analytics/batch_kernels.h"
#include "analytics/block_aggregation.h"
#include "analytics/grid_aggregation.h"
#include "analytics/histogram.h"
#include "analytics/kmeans.h"
#include "analytics/red_objs.h"
#include "analytics/summary_stats.h"
#include "common/rng.h"
#include "core/scheduler.h"

namespace smart {
namespace {

using namespace analytics;

// --- kernel-level identities -------------------------------------------------

// The reference bucketing expression the floorless kernel must equal:
// clamp(floor((x - min) / width)) with a libm floor.
int floor_bucket(double x, double min, double width, int num_buckets) {
  const double q = (x - min) / width;
  if (std::isnan(q)) return 0;  // kernel contract: NaN fails both compares, clamps low
  const double f = std::floor(q);
  if (f < 0.0) return 0;
  if (f >= static_cast<double>(num_buckets)) return num_buckets - 1;
  return static_cast<int>(f);
}

TEST(HistogramKeys, TruncationMatchesFloorReference) {
  Rng rng(901);
  const int buckets = 37;
  const double min = -3.0, width = 6.5 / buckets;
  std::vector<double> xs(20000);
  for (auto& x : xs) x = rng.uniform(-10.0, 10.0);  // well outside [min, max]
  std::vector<int> keys(xs.size());
  kernels::histogram_keys(xs.data(), xs.size(), 1, min, width, buckets, keys.data());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    ASSERT_EQ(keys[i], floor_bucket(xs[i], min, width, buckets)) << "x=" << xs[i];
  }
}

TEST(HistogramKeys, EdgeValues) {
  const int buckets = 10;
  const double min = 0.0, width = 0.1;  // range [0, 1]
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> xs = {
      0.0,   1.0,    0.9999999, -0.0,  -1e300, 1e300, -inf,
      inf,   nan,    0.1,       0.05,  5e-324, // denormal
      -5e-324,
  };
  const std::vector<int> expected = {0, 9, 9, 0, 0, 9, 0, 9, 0, 1, 0, 0, 0};
  std::vector<int> keys(xs.size());
  kernels::histogram_keys(xs.data(), xs.size(), 1, min, width, buckets, keys.data());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(keys[i], expected[i]) << "x=" << xs[i];
  }
}

TEST(HistogramKeys, StridedMatchesGatheredContiguous) {
  Rng rng(902);
  const std::size_t n = 977, stride = 4;
  std::vector<double> xs(n * stride);
  for (auto& x : xs) x = rng.uniform(-2.0, 12.0);
  std::vector<int> strided(n), contiguous(n);
  kernels::histogram_keys(xs.data(), n, stride, 0.0, 1.0, 10, strided.data());
  std::vector<double> gathered(n);
  for (std::size_t i = 0; i < n; ++i) gathered[i] = xs[i * stride];
  kernels::histogram_keys(gathered.data(), n, 1, 0.0, 1.0, 10, contiguous.data());
  EXPECT_EQ(strided, contiguous);
}

// Reference argmin: full distances, strict <, lowest index wins ties —
// the mathematical spec both the hinted and unhinted scans must realize.
int ref_nearest(const double* pt, std::size_t dims, const double* centroids, std::size_t k) {
  int best_key = 0;
  double best = std::numeric_limits<double>::max();
  for (std::size_t c = 0; c < k; ++c) {
    double dist = 0.0;
    for (std::size_t d = 0; d < dims; ++d) {
      const double diff = pt[d] - centroids[c * dims + d];
      dist += diff * diff;
    }
    if (dist < best) {
      best = dist;
      best_key = static_cast<int>(c);
    }
  }
  return best_key;
}

// The batched keys must equal both the per-point keys (n = 1, the
// KMeans::gen_key call) and the reference scan over the same points
// widened to double.
template <class T>
void expect_keys_match_reference(const std::vector<T>& pts, std::size_t dims,
                                 const std::vector<double>& centroids, std::size_t k) {
  const std::size_t n = pts.size() / dims;
  std::vector<int> keys(n);
  kernels::nearest_centroids(pts.data(), n, dims, centroids.data(), k, keys.data());
  std::vector<double> pt(dims);
  for (std::size_t p = 0; p < n; ++p) {
    int single = -1;
    kernels::nearest_centroids(pts.data() + p * dims, 1, dims, centroids.data(), k, &single);
    for (std::size_t d = 0; d < dims; ++d) pt[d] = static_cast<double>(pts[p * dims + d]);
    const int want = ref_nearest(pt.data(), dims, centroids.data(), k);
    ASSERT_EQ(keys[p], want) << "dims=" << dims << " k=" << k << " n=" << n << " p=" << p;
    ASSERT_EQ(single, want) << "dims=" << dims << " k=" << k << " n=" << n << " p=" << p;
  }
}

template <class T>
void check_random_points(Rng& rng) {
  // 2/3/4/8 take the fixed-dims kernels; 1 (heat3d_kmeans), 5, 64 (fig05,
  // fig06, perfbench kmeans_d64) and 65 take the generic blocked kernel.
  for (const std::size_t dims : {2u, 3u, 4u, 8u, 1u, 5u, 64u, 65u}) {
    for (const std::size_t k : {1u, 2u, 7u}) {
      for (const std::size_t n : {401u, 402u, 403u}) {  // n % 4 = 1, 2, 3: blocks + tail
        std::vector<double> centroids(k * dims);
        std::vector<T> pts(n * dims);
        for (auto& v : centroids) v = rng.uniform(-5.0, 5.0);
        for (auto& v : pts) v = static_cast<T>(rng.uniform(-5.0, 5.0));
        expect_keys_match_reference(pts, dims, centroids, k);
      }
    }
  }
}

TEST(NearestCentroids, HintedBlockedScanMatchesReference) {
  Rng rng(903);
  check_random_points<double>(rng);
  check_random_points<float>(rng);
}

// Duplicate centroids (every point ties across indices 0/2) and points
// exactly midway between two distinct centroids, padded with zeros to
// `dims`: the run-aware hint of the fixed-dims kernels can seed the scan at
// any index, and the generic kernel's select must keep the first of equal
// distances, so only the full lowest-index tie rule keeps the result equal
// to the reference scan.
template <class T>
void check_ties(std::size_t dims, std::size_t n) {
  std::vector<double> centroids(3 * dims, 0.0);  // c0 = 0, c1 = 2 e0, c2 = c0
  centroids[1 * dims] = 2.0;
  const std::size_t k = 3;
  std::vector<T> pts(n * dims, T{0});
  for (std::size_t i = 0; i < n; ++i) {
    const double lead = i % 3 == 0 ? 1.0    // midway c0/c1 -> key 0
                        : i % 3 == 1 ? 2.1  // nearest c1 -> key 1
                                     : -0.5;  // ties c0/c2 -> key 0
    pts[i * dims] = static_cast<T>(lead);
  }
  expect_keys_match_reference(pts, dims, centroids, k);
}

TEST(NearestCentroids, TiesBreakToLowestIndexDespiteHintSeeding) {
  for (const std::size_t dims : {4u, 1u, 5u, 64u, 65u}) {
    for (const std::size_t n : {29u, 30u, 31u}) {
      check_ties<double>(dims, n);
      check_ties<float>(dims, n);
    }
  }
}

TEST(AccumulateKernels, PointSumsMatchPerPointOrderBitForBit) {
  Rng rng(904);
  for (const std::size_t dims : {2u, 3u, 4u, 8u, 6u}) {
    const std::size_t n = 1531;
    std::vector<double> pts(n * dims);
    for (auto& v : pts) v = rng.gaussian(0.0, 3.0);
    std::vector<double> got(dims, 0.25), want(dims, 0.25);  // nonzero resume state
    kernels::accumulate_points(pts.data(), n, dims, got.data());
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t d = 0; d < dims; ++d) want[d] += pts[p * dims + d];
    }
    EXPECT_EQ(got, want) << "dims=" << dims;
  }
}

TEST(AccumulateKernels, MomentsResumeAcrossSegmentsBitForBit) {
  // Resuming the kernel across arbitrary segment boundaries continues the
  // same scalar chains, so the result equals one manual pass exactly.
  Rng rng(905);
  std::vector<double> xs(4096);
  for (auto& x : xs) x = rng.gaussian(1.0, 2.0);
  double sum = 0.0, sum_sq = 0.0;
  double mn = std::numeric_limits<double>::infinity(), mx = -mn;
  std::size_t at = 0;
  while (at < xs.size()) {
    const auto seg = std::min<std::size_t>(
        static_cast<std::size_t>(rng.uniform_int(1, 700)), xs.size() - at);
    kernels::accumulate_moments(xs.data() + at, seg, sum, sum_sq, mn, mx);
    at += seg;
  }
  double wsum = 0.0, wsq = 0.0;
  double wmn = std::numeric_limits<double>::infinity(), wmx = -wmn;
  for (const double x : xs) {
    wsum += x;
    wsq += x * x;
    if (x < wmn) wmn = x;
    if (x > wmx) wmx = x;
  }
  EXPECT_EQ(sum, wsum);
  EXPECT_EQ(sum_sq, wsq);
  EXPECT_EQ(mn, wmn);
  EXPECT_EQ(mx, wmx);
  EXPECT_EQ(kernels::accumulate_sum(xs.data(), xs.size(), 0.5), [&] {
    double s = 0.5;
    for (const double x : xs) s += x;
    return s;
  }());
}

// --- end-to-end: batched == scalar == serial --------------------------------

RunOptions with_batch(std::size_t batch_chunks) {
  RunOptions opts;
  opts.batch_chunks = batch_chunks;
  return opts;
}

std::vector<std::size_t> run_histogram(const std::vector<double>& data, int threads,
                                       std::size_t batch_chunks) {
  Histogram<double> hist(SchedArgs(threads, 1), -1.0, 1.0, 23, with_batch(batch_chunks));
  std::vector<std::size_t> out(23, 0);
  hist.run(data.data(), data.size(), out.data(), out.size());
  return out;
}

TEST(BatchedExactness, HistogramAcrossThreadsAndBatchSizes) {
  Rng rng(910);
  std::vector<double> data(4096 + 17);  // odd length: uneven worker ranges
  for (auto& x : data) x = rng.uniform(-1.5, 1.5);  // clamping in play
  const auto serial = run_histogram(data, 1, 0);
  // Bucket counts are integers, so every thread count, batch size, and the
  // scalar path must agree exactly — including batch sizes that don't
  // divide the range and one larger than the whole input.
  for (const int threads : {1, 3}) {
    for (const std::size_t batch : {2u, 3u, 64u, 100000u}) {
      EXPECT_EQ(run_histogram(data, threads, batch), serial)
          << "threads=" << threads << " batch=" << batch;
    }
  }
  EXPECT_EQ(run_histogram(data, 3, 0), serial);
}

std::vector<double> run_kmeans(const std::vector<double>& data, int threads,
                               std::size_t batch_chunks) {
  const std::size_t dims = 4, k = 3;
  const std::vector<double> init = {0.0, 0.0, 0.0, 0.0, 5.0, 5.0, 5.0, 5.0,
                                    -5.0, -5.0, -5.0, -5.0};
  KMeansInit seed{init.data(), k, dims};
  KMeans<double> km(SchedArgs(threads, dims, &seed, 4), k, dims, with_batch(batch_chunks));
  km.run(data.data(), data.size(), nullptr, 0);
  return km.centroids();
}

TEST(BatchedExactness, KMeansCentroidsBitForBit) {
  Rng rng(911);
  const std::size_t dims = 4, n = 1200;
  std::vector<double> data(n * dims + 2);  // +2: ragged tail, dropped by both paths
  for (std::size_t p = 0; p < n; ++p) {
    const double base = (p % 3 == 0) ? 0.0 : (p % 3 == 1 ? 5.0 : -5.0);
    for (std::size_t d = 0; d < dims; ++d) {
      data[p * dims + d] = base + rng.gaussian(0.0, 0.8);
    }
  }
  // Same thread count -> same chunk partition -> identical FP merge order:
  // batched and scalar must agree bit-for-bit at T=1 and at T=3.
  for (const int threads : {1, 3}) {
    const auto scalar = run_kmeans(data, threads, 0);
    const auto batched = run_kmeans(data, threads, 64);
    EXPECT_EQ(scalar, batched) << "threads=" << threads;
  }
}

Summary run_moments(const std::vector<double>& data, int threads, std::size_t batch_chunks) {
  SummaryStats<double> stats(SchedArgs(threads, 1), with_batch(batch_chunks));
  stats.run(data.data(), data.size(), nullptr, 0);
  return stats.summary();
}

TEST(BatchedExactness, SummaryMomentsBitForBit) {
  Rng rng(912);
  std::vector<double> data(8192 + 3);
  for (auto& x : data) x = rng.gaussian(2.0, 5.0);
  for (const int threads : {1, 3}) {
    const auto scalar = run_moments(data, threads, 0);
    const auto batched = run_moments(data, threads, 64);
    EXPECT_EQ(scalar.count, batched.count);
    EXPECT_EQ(scalar.mean, batched.mean) << "threads=" << threads;
    EXPECT_EQ(scalar.stddev, batched.stddev);
    EXPECT_EQ(scalar.min, batched.min);
    EXPECT_EQ(scalar.max, batched.max);
  }
}

std::vector<double> run_grid(const std::vector<double>& data, std::size_t chunk_size,
                             int threads, std::size_t batch_chunks) {
  const std::size_t grid_size = 32;
  GridAggregation<double> grid(SchedArgs(threads, chunk_size), grid_size,
                               with_batch(batch_chunks));
  std::vector<double> out((data.size() + grid_size - 1) / grid_size, 0.0);
  grid.run(data.data(), data.size(), out.data(), out.size());
  return out;
}

TEST(BatchedExactness, GridAggregationWithRaggedTail) {
  Rng rng(913);
  std::vector<double> data(8 * 500 + 5);  // chunk_size 8 -> 5-element ragged tail
  for (auto& x : data) x = rng.gaussian(0.0, 1.0);
  for (const int threads : {1, 3}) {
    const auto scalar = run_grid(data, 8, threads, 0);
    const auto batched = run_grid(data, 8, threads, 64);
    EXPECT_EQ(scalar, batched) << "threads=" << threads;
  }
  // Batch-size invariance: any batch granularity walks the same chunks in
  // the same order within a run of equal keys.
  const auto base = run_grid(data, 8, 1, 64);
  for (const std::size_t batch : {2u, 3u, 7u, 1000u}) {
    EXPECT_EQ(run_grid(data, 8, 1, batch), base) << "batch=" << batch;
  }
}

TEST(BatchedExactness, BlockAggregationBitForBit) {
  Rng rng(914);
  BlockAggregation<double>::Shape shape;
  shape.nx = 16; shape.ny = 8; shape.nz = 4;
  shape.bx = 4;  shape.by = 4; shape.bz = 2;
  std::vector<double> data(shape.nx * shape.ny * shape.nz);
  for (auto& x : data) x = rng.gaussian(3.0, 2.0);
  auto run_block = [&](int threads, std::size_t batch_chunks) {
    BlockAggregation<double> block(SchedArgs(threads, 1), shape, with_batch(batch_chunks));
    std::vector<double> out(block.num_blocks(), 0.0);
    block.run(data.data(), data.size(), out.data(), out.size());
    return out;
  };
  for (const int threads : {1, 3}) {
    EXPECT_EQ(run_block(threads, 0), run_block(threads, 64)) << "threads=" << threads;
  }
}

// --- trigger mid-batch -------------------------------------------------------

// A windowed sum that triggers every `window` values: batch 64 with window
// 7 forces the default accumulate_batch to stop mid-run on nearly every
// batch, exercising the consumed-count contract and the erase/re-insert
// resume inside a key run.
struct WindowSumObj : RedObj {
  static constexpr std::size_t kWindow = 7;
  std::size_t count = 0;
  double sum = 0.0;

  std::string type_name() const override { return "WindowSumObj"; }
  std::unique_ptr<RedObj> clone() const override {
    return std::make_unique<WindowSumObj>(*this);
  }
  void serialize(Writer& w) const override {
    w.write<std::uint64_t>(count);
    w.write(sum);
  }
  void deserialize(Reader& r) override {
    count = r.read<std::uint64_t>();
    sum = r.read<double>();
  }
  bool trigger() const override { return count == kWindow; }
};

class SegmentWindow : public Scheduler<double, double> {
 public:
  SegmentWindow(const SchedArgs& args, RunOptions opts)
      : Scheduler<double, double>(args, opts) {}

 protected:
  // 64-element segments: long same-key runs, so batches span many windows.
  int gen_key(const Chunk& chunk, const double*, const CombinationMap&) const override {
    return static_cast<int>(chunk.start / 64);
  }
  // Default gen_keys_batch / accumulate_batch (scalar replay honoring
  // stop_after_trigger) — the path every app gets without an override.
  void accumulate(const Chunk& chunk, const double* data,
                  std::unique_ptr<RedObj>& obj) override {
    if (!obj) obj = std::make_unique<WindowSumObj>();
    auto& w = static_cast<WindowSumObj&>(*obj);
    w.sum += data[chunk.start];
    w.count += 1;
  }
  void merge(const RedObj& src, std::unique_ptr<RedObj>& dst) override {
    auto& d = static_cast<WindowSumObj&>(*dst);
    const auto& s = static_cast<const WindowSumObj&>(src);
    d.sum += s.sum;
    d.count += s.count;
  }
  // A segment straddling a split boundary completes windows in both
  // workers, so their early emissions store into one output slot
  // concurrently; the atomic store keeps that well-defined.  The final
  // value stays deterministic: 64 is not a multiple of the window, so a
  // straddled segment always leaves a partial window in some worker, and
  // the merged object's conversion after local combination writes last.
  void convert(const RedObj& obj, double* out) const override {
    std::atomic_ref<double>(*out).store(static_cast<const WindowSumObj&>(obj).sum,
                                        std::memory_order_relaxed);
  }
};

TEST(TriggerMidBatch, BatchedEmissionsMatchScalarBitForBit) {
  Rng rng(915);
  std::vector<double> data(64 * 9 + 13);  // partial last segment + windows astride batches
  for (auto& x : data) x = rng.uniform(0.0, 1.0);
  const std::size_t segments = (data.size() + 63) / 64;
  auto run_one = [&](int threads, std::size_t batch_chunks) {
    SegmentWindow sched(SchedArgs(threads, 1), with_batch(batch_chunks));
    std::vector<double> out(segments, -1.0);
    sched.run(data.data(), data.size(), out.data(), out.size());
    return std::pair(out, sched.stats().early_emissions);
  };
  for (const int threads : {1, 2}) {
    const auto [scalar_out, scalar_emits] = run_one(threads, 0);
    const auto [batched_out, batched_emits] = run_one(threads, 64);
    EXPECT_EQ(scalar_out, batched_out) << "threads=" << threads;
    EXPECT_EQ(scalar_emits, batched_emits);
    // 64-element segments with window 7 -> 9 emissions per full segment.
    EXPECT_GT(batched_emits, 0u);
  }
  // With the trigger off nothing is emitted mid-run on either path, and the
  // paths still agree on the surviving per-segment totals.
  RunOptions no_trigger = with_batch(64);
  no_trigger.enable_trigger = false;
  SegmentWindow sched(SchedArgs(1, 1), no_trigger);
  sched.run(data.data(), data.size(), nullptr, 0);
  EXPECT_EQ(sched.stats().early_emissions, 0u);
  EXPECT_EQ(sched.get_combination_map().size(), segments);
}

}  // namespace
}  // namespace smart
