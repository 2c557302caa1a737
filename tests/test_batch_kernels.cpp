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
// (truncation == floor after clamping, the 2-lane and the 4-lane
// nearest-centroid kernel's argmin == the reference scan at every width,
// lowest index winning ties across lanes and groups, the width chosen from
// the CPU), trigger-driven mid-batch erase through the
// default accumulate_batch, run2's key-range walk against the per-chunk
// walk, the walk's recycled scratch object (its construction count), the
// call counts of both batched paths (range calls per block of a split
// included), and the consumed-count check on accumulate_batch overrides.
// Registered under the `schedule` ctest label and run under TSan by
// scripts/check.sh.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "analytics/batch_kernels.h"
#include "analytics/grid_aggregation.h"
#include "analytics/histogram.h"
#include "analytics/kde.h"
#include "analytics/kmeans.h"
#include "analytics/moving_average.h"
#include "analytics/moving_median.h"
#include "analytics/red_objs.h"
#include "analytics/savitzky_golay.h"
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
// the mathematical spec both kernel widths must realize at every width.
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

// The lanes-wide kernel's keys, over the centroid groups that width reads,
// must equal both its per-point keys (n = 1, the KMeans::gen_key call) and
// the reference scan over the same points widened to double.  At the width
// this CPU picks, the public path (CentroidTable + nearest_centroids) must
// give the same keys.
template <class T>
void expect_keys_match_reference(std::size_t lanes, const std::vector<T>& pts, std::size_t dims,
                                 const std::vector<double>& centroids, std::size_t k) {
  const std::size_t n = pts.size() / dims;
  const std::vector<double> groups =
      kernels::detail::centroid_groups(centroids.data(), k, dims, lanes);
  const std::size_t num_groups = (k + lanes - 1) / lanes;
  std::vector<int> keys(n);
  kernels::detail::scan_groups(lanes, pts.data(), n, dims, groups.data(), num_groups, keys.data());
  std::vector<int> table_keys;
  if (lanes == kernels::nearest_centroid_lanes()) {
    table_keys.resize(n);
    kernels::nearest_centroids(pts.data(), n, kernels::CentroidTable(centroids.data(), k, dims),
                               table_keys.data());
  }
  std::vector<double> pt(dims);
  for (std::size_t p = 0; p < n; ++p) {
    int single = -1;
    kernels::detail::scan_groups(lanes, pts.data() + p * dims, 1, dims, groups.data(), num_groups,
                                 &single);
    for (std::size_t d = 0; d < dims; ++d) pt[d] = static_cast<double>(pts[p * dims + d]);
    const int want = ref_nearest(pt.data(), dims, centroids.data(), k);
    ASSERT_EQ(keys[p], want) << "lanes=" << lanes << " dims=" << dims << " k=" << k
                             << " n=" << n << " p=" << p;
    ASSERT_EQ(single, want) << "lanes=" << lanes << " dims=" << dims << " k=" << k
                            << " n=" << n << " p=" << p;
    if (!table_keys.empty()) {
      ASSERT_EQ(table_keys[p], want) << "lanes=" << lanes << " p=" << p;
    }
  }
}

// Runs `check` with the 2-lane kernel (SSE2, the one a baseline x86-64 CPU
// runs) and then the 4-lane one (AVX2), each called directly whatever
// width nearest_centroid_lanes() picks here.  Without AVX2 the 4-lane half
// is skipped, with its reason.
template <class Check>
void for_each_kernel_width(Check check) {
  check(std::size_t{2});
  if (!__builtin_cpu_supports("avx2")) {
    GTEST_SKIP() << "this CPU has no AVX2: the 2-lane half ran, the 4-lane half cannot";
  }
  check(std::size_t{4});
}

// Both widths take every dims: 4 is Heat3D's (Fig 1, 7, 8), 1
// heat3d_kmeans', 64 that of fig05, fig06 and perfbench kmeans_d64; 2, 3,
// 5, 8 and 65 cover widths no workload runs, odd ones included.
constexpr std::size_t kWidths[] = {2, 3, 4, 8, 1, 5, 64, 65};

template <class T>
void check_random_points(std::size_t lanes, Rng& rng) {
  // k = 1..9 leaves every k % 4 (and k % 2) count of padded lanes, and
  // runs every 2-lane tile shape (8 points x 1 pair for k <= 2, 4 x 2 for
  // k = 3..6, 2 x 4 from k = 7) with and without leftover groups; n = 1..9
  // runs each tile with every tail length, n = 403 many full tiles before
  // a tail.
  for (const std::size_t dims : kWidths) {
    for (std::size_t k = 1; k <= 9; ++k) {
      for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 403u}) {
        std::vector<double> centroids(k * dims);
        std::vector<T> pts(n * dims);
        for (auto& v : centroids) v = rng.uniform(-5.0, 5.0);
        for (auto& v : pts) v = static_cast<T>(rng.uniform(-5.0, 5.0));
        expect_keys_match_reference(lanes, pts, dims, centroids, k);
      }
    }
  }
}

// Every k that leaves padded lanes at either width, every centroid at least
// 100 from the origin and every point at the origin: a zero-filled padding
// lane would sit at distance 0 and win as a key >= k; the copies of
// centroid k - 1 tie it and lose on index.
template <class T>
void check_far_centroids_padded_k(std::size_t lanes, Rng& rng) {
  for (const std::size_t dims : kWidths) {
    for (const std::size_t k : {1u, 2u, 3u, 5u, 6u, 7u, 9u}) {
      std::vector<double> centroids(k * dims);
      for (auto& v : centroids) v = rng.uniform(-5.0, 5.0);
      for (std::size_t c = 0; c < k; ++c) {
        centroids[c * dims] = (c % 2 == 0 ? 1.0 : -1.0) * rng.uniform(100.0, 110.0);
      }
      for (const std::size_t n : {1u, 2u, 8u, 9u}) {
        expect_keys_match_reference(lanes, std::vector<T>(n * dims, T{0}), dims, centroids, k);
      }
    }
  }
}

TEST(NearestCentroids, EveryWidthMatchesReference) {
  for_each_kernel_width([](std::size_t lanes) {
    Rng rng(903);
    check_random_points<double>(lanes, rng);
    check_random_points<float>(lanes, rng);
    check_far_centroids_padded_k<double>(lanes, rng);
    check_far_centroids_padded_k<float>(lanes, rng);
  });
}

// Centroids a < b tie and every other centroid c sits far away, at
// (10 + 5c) e0; the points lie on the e0 axis, padded with zeros to
// `dims`.  Layout 0: c_a = c_b = 0 (duplicates: every point ties).
// Layout 1: c_a = 2 e0, c_b = 0 (a point at 1.0 is midway, and key a must
// win although b is the nearer centroid for a point at -0.5).  Over every
// pair a < b < k for k = 2..9 the tied centroids sit in each of the four
// lanes of a group, in the same group and in different ones, and next to
// padded lanes, so only the lowest-index tie rule, applied in index order
// across lanes and groups, keeps the result equal to the reference scan.
template <class T>
void check_ties(std::size_t lanes, std::size_t dims, std::size_t n, std::size_t k,
                std::size_t a, std::size_t b, int layout) {
  std::vector<double> centroids(k * dims, 0.0);
  for (std::size_t c = 0; c < k; ++c) centroids[c * dims] = 10.0 + 5.0 * static_cast<double>(c);
  centroids[a * dims] = layout == 0 ? 0.0 : 2.0;
  centroids[b * dims] = 0.0;
  std::vector<T> pts(n * dims, T{0});
  for (std::size_t i = 0; i < n; ++i) {
    const double lead = i % 3 == 0 ? 1.0    // midway between 0 and 2 e0
                        : i % 3 == 1 ? 2.1  // nearest 2 e0
                                     : -0.5;  // nearest 0
    pts[i * dims] = static_cast<T>(lead);
  }
  expect_keys_match_reference(lanes, pts, dims, centroids, k);
}

TEST(NearestCentroids, TiesBreakToLowestIndexAcrossLanes) {
  for_each_kernel_width([](std::size_t lanes) {
    for (const std::size_t dims : kWidths) {
      for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 29u, 30u, 31u}) {
        for (std::size_t k = 2; k <= 9; ++k) {
          for (std::size_t b = 1; b < k; ++b) {
            for (std::size_t a = 0; a < b; ++a) {
              for (const int layout : {0, 1}) {
                check_ties<double>(lanes, dims, n, k, a, b, layout);
                check_ties<float>(lanes, dims, n, k, a, b, layout);
              }
            }
          }
        }
      }
    }
  });
}

// The one place the width is chosen: 4 lanes exactly where the CPU has
// AVX2.
TEST(NearestCentroids, FourLanesExactlyWhenTheCpuHasAvx2) {
  EXPECT_EQ(kernels::nearest_centroid_lanes(), __builtin_cpu_supports("avx2") ? 4u : 2u);
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

// --- run2: the key-range walk == the per-chunk walk --------------------------

// Batched run2 walks a range app's split key by key: each key's chunks are
// one contiguous run and go through one accumulate_batch call.  Each object
// still receives its chunks in ascending position order, so outputs and
// early emissions must equal the per-chunk walk (batch_chunks 0) exactly,
// at every thread count and with the trigger on or off.

constexpr std::size_t kWindow = 25;

// Input lengths: one element, one short of a window, a round size, and a
// multiple of the batch plus a ragged remainder.
const std::size_t kRun2Sizes[] = {1, kWindow - 1, 1000, 64 * 20 + 13};

struct Run2Result {
  std::vector<double> out;
  std::size_t early_emissions = 0;
};

// `make(args, opts)` builds the app under test.
template <class Make>
Run2Result run2_once(const Make& make, const std::vector<double>& data, std::size_t out_len,
                     int threads, bool trigger, std::size_t batch_chunks) {
  RunOptions opts = with_batch(batch_chunks);
  opts.enable_trigger = trigger;
  auto app = make(SchedArgs(threads, 1), opts);
  Run2Result r{std::vector<double>(out_len, -1.0), 0};
  app->run2(data.data(), data.size(), r.out.data(), r.out.size());
  r.early_emissions = app->stats().early_emissions;
  return r;
}

template <class Make>
void expect_run2_batched_matches_per_chunk(const char* name, const Make& make,
                                           const std::vector<double>& data,
                                           std::size_t out_len) {
  for (const int threads : {1, 2, 3}) {
    for (const bool trigger : {true, false}) {
      const Run2Result per_chunk = run2_once(make, data, out_len, threads, trigger, 0);
      const Run2Result batched = run2_once(make, data, out_len, threads, trigger, 64);
      EXPECT_EQ(batched.out, per_chunk.out)
          << name << " n=" << data.size() << " threads=" << threads << " trigger=" << trigger;
      EXPECT_EQ(batched.early_emissions, per_chunk.early_emissions)
          << name << " n=" << data.size() << " threads=" << threads << " trigger=" << trigger;
    }
  }
}

std::vector<double> gaussian_data(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> data(n);
  for (auto& x : data) x = rng.gaussian(0.0, 1.0);
  return data;
}

TEST(Run2Batched, MovingAverageMatchesPerChunkWalk) {
  for (const std::size_t n : kRun2Sizes) {
    expect_run2_batched_matches_per_chunk(
        "MovingAverage",
        [](const SchedArgs& a, RunOptions o) {
          return std::make_unique<MovingAverage<double>>(a, kWindow, o);
        },
        gaussian_data(n, 920), n);
  }
}

TEST(Run2Batched, MovingMedianMatchesPerChunkWalk) {
  for (const std::size_t n : kRun2Sizes) {
    expect_run2_batched_matches_per_chunk(
        "MovingMedian",
        [](const SchedArgs& a, RunOptions o) {
          return std::make_unique<MovingMedian<double>>(a, kWindow, o);
        },
        gaussian_data(n, 921), n);
  }
}

TEST(Run2Batched, KernelDensityMatchesPerChunkWalk) {
  for (const std::size_t n : kRun2Sizes) {
    expect_run2_batched_matches_per_chunk(
        "KernelDensity",
        [](const SchedArgs& a, RunOptions o) {
          return std::make_unique<KernelDensity<double>>(a, kWindow, 0.5, o);
        },
        gaussian_data(n, 922), n);
  }
}

TEST(Run2Batched, SavitzkyGolayMatchesPerChunkWalk) {
  for (const std::size_t n : kRun2Sizes) {
    expect_run2_batched_matches_per_chunk(
        "SavitzkyGolay",
        [](const SchedArgs& a, RunOptions o) {
          return std::make_unique<SavitzkyGolay<double>>(a, static_cast<int>(kWindow), 3, o);
        },
        gaussian_data(n, 923), n);
  }
}

// On a window run the key-range walk hands each key exactly its window, so
// the stop at the window size never cuts a run short there; this pins the
// override's stop_after_trigger contract directly.
class ExposedMovingMedian : public MovingMedian<double> {
 public:
  using MovingMedian<double>::MovingMedian;
  using MovingMedian<double>::accumulate_batch;
};

TEST(Run2Batched, MovingMedianBatchStopsWhereTheWindowFills) {
  ExposedMovingMedian med(SchedArgs(1, 1), kWindow);
  const auto data = gaussian_data(64, 930);
  for (const bool stop : {true, false}) {
    auto obj = std::make_unique<WinMedianObj>();
    obj->window = kWindow;
    obj->elems.assign(10, -1.0);
    std::unique_ptr<RedObj> red = std::move(obj);
    const std::size_t consumed =
        med.accumulate_batch(ChunkBatch{5, 1, 40}, data.data(), red, stop);
    const auto& elems = static_cast<const WinMedianObj&>(*red).elems;
    EXPECT_EQ(consumed, stop ? kWindow - 10 : 40u);
    ASSERT_EQ(elems.size(), 10 + consumed);
    EXPECT_EQ(elems[10], data[5]);
    EXPECT_EQ(elems.back(), data[5 + consumed - 1]);
    EXPECT_EQ(red->trigger(), stop);
  }
}

// A windowed sum over caller-chosen keys: each key's object triggers at
// `window` elements.  KeysFn either pushes an element's keys (an app with
// only gen_keys) or returns them as a KeyRange (a range app).  Keys may
// repeat within a chunk and may be negative (those reach no output slot and
// survive in the map).
template <class KeysFn>
class KeyedWindowSum : public Scheduler<double, double> {
  static constexpr bool kRanges = std::is_invocable_r_v<KeyRange, KeysFn, std::size_t>;

 public:
  KeyedWindowSum(const SchedArgs& args, RunOptions opts, std::size_t window, KeysFn keys_fn)
      : Scheduler<double, double>(args, opts), window_(window), keys_fn_(keys_fn) {
    register_red_objs();
  }

  std::atomic<std::size_t> batch_calls{0};  ///< accumulate_batch calls, all workers

 protected:
  bool gen_key_ranges(const ChunkBatch& batch, const double*, KeyRange* ranges,
                      const CombinationMap&) const override {
    if constexpr (kRanges) {
      for (std::size_t i = 0; i < batch.count; ++i) ranges[i] = keys_fn_(batch.chunk(i).start);
    }
    return kRanges;
  }
  void gen_keys(const Chunk& chunk, const double* data, std::vector<int>& keys,
                const CombinationMap& map) const override {
    if constexpr (kRanges) {
      Scheduler<double, double>::gen_keys(chunk, data, keys, map);
    } else {
      keys_fn_(chunk.start, keys);
    }
  }
  void accumulate(const Chunk& chunk, const double* data,
                  std::unique_ptr<RedObj>& obj) override {
    if (!obj) {
      auto win = std::make_unique<WinObj>();
      win->window = window_;
      obj = std::move(win);
    }
    auto& win = static_cast<WinObj&>(*obj);
    win.sum += data[chunk.start];
    win.count += 1;
  }
  std::size_t accumulate_batch(const ChunkBatch& batch, const double* data,
                               std::unique_ptr<RedObj>& obj, bool stop_after_trigger) override {
    batch_calls.fetch_add(1, std::memory_order_relaxed);
    return Scheduler<double, double>::accumulate_batch(batch, data, obj, stop_after_trigger);
  }
  void merge(const RedObj& src, std::unique_ptr<RedObj>& dst) override {
    auto& d = static_cast<WinObj&>(*dst);
    const auto& s = static_cast<const WinObj&>(src);
    d.sum += s.sum;
    d.count += s.count;
  }
  // Two workers can both fill a window of a key whose elements straddle
  // their split, and both emit it into one slot at once; the atomic store
  // keeps that well-defined.  The apps below keep the final value
  // deterministic: a key either fills its window in one worker only, or
  // its total is not a multiple of its window, so the merged leftover's
  // conversion after local combination writes last.
  void convert(const RedObj& obj, double* out) const override {
    std::atomic_ref<double>(*out).store(static_cast<const WinObj&>(obj).sum,
                                        std::memory_order_relaxed);
  }

 private:
  std::size_t window_;
  KeysFn keys_fn_;
};

struct KeyedRun {
  std::vector<double> out;
  std::size_t early_emissions = 0;
  std::vector<std::pair<int, double>> survivors;  ///< (key, sum), key order
  std::size_t batch_calls = 0;
};

template <class KeysFn>
KeyedRun run_keyed(KeysFn keys_fn, std::size_t window, const std::vector<double>& data,
                   std::size_t out_len, int threads, bool trigger, std::size_t batch_chunks) {
  RunOptions opts = with_batch(batch_chunks);
  opts.enable_trigger = trigger;
  KeyedWindowSum<KeysFn> app(SchedArgs(threads, 1), opts, window, keys_fn);
  KeyedRun r;
  r.out.assign(out_len, -1.0);
  app.run2(data.data(), data.size(), r.out.data(), r.out.size());
  r.early_emissions = app.stats().early_emissions;
  for (const auto& [key, obj] : app.get_combination_map()) {
    r.survivors.emplace_back(key, static_cast<const WinObj&>(*obj).sum);
  }
  r.batch_calls = app.batch_calls.load();
  return r;
}

template <class KeysFn>
void expect_keyed_batched_matches_per_chunk(const char* name, KeysFn keys_fn, std::size_t window,
                                            std::size_t out_len_per_element) {
  for (const std::size_t n : kRun2Sizes) {
    const auto data = gaussian_data(n, 926);
    const std::size_t out_len = n * out_len_per_element + 8;
    for (const int threads : {1, 2, 3}) {
      for (const bool trigger : {true, false}) {
        const auto per_chunk = run_keyed(keys_fn, window, data, out_len, threads, trigger, 0);
        const auto batched = run_keyed(keys_fn, window, data, out_len, threads, trigger, 64);
        EXPECT_EQ(batched.out, per_chunk.out)
            << name << " n=" << n << " threads=" << threads << " trigger=" << trigger;
        EXPECT_EQ(batched.early_emissions, per_chunk.early_emissions)
            << name << " n=" << n << " threads=" << threads << " trigger=" << trigger;
        EXPECT_EQ(batched.survivors, per_chunk.survivors)
            << name << " n=" << n << " threads=" << threads << " trigger=" << trigger;
      }
    }
  }
}

// The next three apps have only gen_keys, so batched run2 takes the
// per-chunk walk for them (no accumulate_batch call) and must still equal
// batch_chunks 0 exactly.

TEST(Run2Batched, SparseNegativeKeysFallBackToPerChunkWalk) {
  // Each group of 3 elements feeds one negative and one positive key, 100
  // apart.
  auto keys_fn = [](std::size_t pos, std::vector<int>& keys) {
    const int group = static_cast<int>(pos / 3);
    keys.push_back(-1 - 100 * group);
    keys.push_back(7 + 100 * group);
  };
  expect_keyed_batched_matches_per_chunk("sparse", keys_fn, 3, 34);
  const auto data = gaussian_data(1000, 927);
  const auto r = run_keyed(keys_fn, 3, data, 34 * data.size() + 8, 1, true, 64);
  EXPECT_EQ(r.batch_calls, 0u);
  EXPECT_GT(r.early_emissions, 0u);
  EXPECT_LT(r.survivors.front().first, 0);  // negative keys were accumulated
}

TEST(Run2Batched, KeyEmittedTwicePerChunkAccumulatesTwiceInOrder) {
  // Element p feeds key p / 4 twice and key p / 4 + 1 once, so each key
  // takes 12 elements.  Window 5 fills twice per key, and mid-chunk: the
  // object must be emitted and restarted between a chunk's two feeds of
  // one key, in order.
  auto keys_fn = [](std::size_t pos, std::vector<int>& keys) {
    const int group = static_cast<int>(pos / 4);
    keys.push_back(group);
    keys.push_back(group + 1);
    keys.push_back(group);
  };
  expect_keyed_batched_matches_per_chunk("duplicate", keys_fn, 5, 1);
  const auto data = gaussian_data(1000, 928);
  const auto r = run_keyed(keys_fn, 5, data, data.size() + 8, 1, true, 64);
  EXPECT_EQ(r.batch_calls, 0u);
  EXPECT_GT(r.early_emissions, 0u);
}

TEST(Run2Batched, KeysThatSkipChunksMatchPerChunkWalk) {
  // Element p feeds key p % 5 + 5 * (p / 35): each key's chunks step by 5.
  // Every element has its own value, so a walk that gave a key the chunks
  // between its own would change that key's sum.  Each key gets 7
  // elements, one window, and so writes its output slot once.
  auto keys_fn = [](std::size_t pos, std::vector<int>& keys) {
    keys.push_back(static_cast<int>(pos % 5 + 5 * (pos / 35)));
  };
  expect_keyed_batched_matches_per_chunk("strided", keys_fn, 7, 1);
  const auto data = gaussian_data(1000, 931);
  const auto r = run_keyed(keys_fn, 7, data, data.size() + 8, 1, true, 64);
  EXPECT_EQ(r.batch_calls, 0u);
  EXPECT_GT(r.early_emissions, 0u);
}

// Range app: element p feeds [3p - 3(p % 2), 3p + 1], so even and odd
// neighbours share two keys, one key in six is covered by no chunk, and
// every eighth element feeds none (an empty range between its neighbours').
// Window 2 fills on the shared keys only.  The walk must skip the uncovered
// keys and the empty chunks and still equal the per-chunk walk.
TEST(Run2Batched, KeyRangesWithGapsAndEmptyChunksMatchPerChunkWalk) {
  auto ranges = [](std::size_t pos) {
    const int p = static_cast<int>(pos);
    return p % 8 == 7 ? KeyRange{3 * p, 3 * p - 1} : KeyRange{3 * p - 3 * (p % 2), 3 * p + 1};
  };
  expect_keyed_batched_matches_per_chunk("ranges", ranges, 2, 4);
  const auto data = gaussian_data(1000, 933);
  const auto r = run_keyed(ranges, 2, data, 4 * data.size() + 8, 1, true, 64);
  EXPECT_GT(r.batch_calls, 0u);
  EXPECT_GT(r.early_emissions, 0u);
}

// The walk needs monotone ranges; a range whose first or last key steps
// below the previous chunk's throws std::logic_error naming the chunk.
// The per-chunk walk does not need the order and runs.
TEST(Run2Batched, KeyRangesThatStepBackwardsThrowNamingTheChunk) {
  const auto first_back = [](std::size_t pos) {
    const int p = static_cast<int>(pos);
    return pos == 500 ? KeyRange{p - 10, p + 5} : KeyRange{p, p + 5};
  };
  const auto last_back = [](std::size_t pos) {
    const int p = static_cast<int>(pos);
    return pos == 700 ? KeyRange{p, p + 2} : KeyRange{p, p + 5};
  };
  const auto data = gaussian_data(1000, 932);
  const std::size_t out_len = data.size() + 8;
  const auto error_of = [&](auto ranges) {
    try {
      (void)run_keyed(ranges, 6, data, out_len, 1, true, 64);
    } catch (const std::logic_error& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  EXPECT_NE(error_of(first_back).find("chunk 500 "), std::string::npos) << error_of(first_back);
  EXPECT_NE(error_of(last_back).find("chunk 700 "), std::string::npos) << error_of(last_back);
  EXPECT_NO_THROW((void)run_keyed(first_back, 6, data, out_len, 1, true, 0));
  EXPECT_NO_THROW((void)run_keyed(last_back, 6, data, out_len, 1, true, 0));
}

// The deterministic guard for the key-range walk: on a W = 25 window app
// each window key is one run of the split, never cut at a batch boundary,
// so every key costs exactly one accumulate_batch call (an interior window
// fills at its last chunk, and an edge window never fills) and a
// single-thread run2 makes exactly n calls.  The per-chunk walk makes none.
TEST(Run2Batched, OneAccumulateBatchPerWindowRun) {
  auto window_ranges = [](std::size_t total) {
    return [total](std::size_t pos) { return window_center_range(pos, total, kWindow); };
  };
  for (const std::size_t n : {std::size_t{1000}, std::size_t{64 * 20 + 13}}) {
    const auto data = gaussian_data(n, 929);
    for (const bool trigger : {true, false}) {
      const auto r = run_keyed(window_ranges(n), kWindow, data, n, 1, trigger, 64);
      EXPECT_EQ(r.batch_calls, n) << "n=" << n << " trigger=" << trigger;
      EXPECT_EQ(run_keyed(window_ranges(n), kWindow, data, n, 1, trigger, 0).batch_calls, 0u);
    }
  }
}

/// Counts the reduction-path calls a window app receives and delegates
/// each to it.  Every worker calls, so the counters are atomic.
template <class App>
class WindowCallCounting : public App {
 public:
  using App::App;
  mutable std::atomic<std::size_t> range_batches{0};  ///< gen_key_ranges calls
  std::atomic<std::size_t> accumulates{0};            ///< per-chunk accumulate calls
  std::atomic<std::size_t> accumulate_batches{0};     ///< accumulate_batch calls

 protected:
  bool gen_key_ranges(const ChunkBatch& batch, const double* data, KeyRange* ranges,
                      const CombinationMap& map) const override {
    range_batches.fetch_add(1, std::memory_order_relaxed);
    return App::gen_key_ranges(batch, data, ranges, map);
  }
  void accumulate(const Chunk& chunk, const double* data, std::unique_ptr<RedObj>& obj) override {
    accumulates.fetch_add(1, std::memory_order_relaxed);
    App::accumulate(chunk, data, obj);
  }
  std::size_t accumulate_batch(const ChunkBatch& batch, const double* data,
                               std::unique_ptr<RedObj>& obj, bool stop_after_trigger) override {
    accumulate_batches.fetch_add(1, std::memory_order_relaxed);
    return App::accumulate_batch(batch, data, obj, stop_after_trigger);
  }
};

// The deterministic guard for the range hook: batched run2 asks for a
// split's ranges batch_chunks chunks at a time, so a worker split of S full
// chunks costs exactly ceil(S / B) gen_key_ranges calls.  The per-chunk walk
// asks once per chunk.
TEST(Run2Batched, OneRangeCallPerBlockOfTheSplit) {
  using CountingAverage = WindowCallCounting<MovingAverage<double>>;
  for (const std::size_t n : {std::size_t{1000}, std::size_t{64 * 20 + 13}}) {
    const auto data = gaussian_data(n, 936);
    std::vector<double> out(n);
    for (const int threads : {1, 2, 3}) {
      const auto t = static_cast<std::size_t>(threads);
      for (const std::size_t b : {std::size_t{64}, std::size_t{7}}) {
        std::size_t blocks = 0;
        for (std::size_t w = 0; w < t; ++w) {
          const std::size_t split = n / t + (w < n % t ? 1 : 0);
          blocks += (split + b - 1) / b;
        }
        CountingAverage app(SchedArgs(threads, 1), kWindow, with_batch(b));
        app.run2(data.data(), n, out.data(), n);
        EXPECT_EQ(app.range_batches.load(), blocks)
            << "n=" << n << " threads=" << threads << " batch_chunks=" << b;
      }
      CountingAverage per_chunk(SchedArgs(threads, 1), kWindow, with_batch(0));
      per_chunk.run2(data.data(), n, out.data(), n);
      EXPECT_EQ(per_chunk.range_batches.load(), n) << "n=" << n << " threads=" << threads;
    }
  }
}

// MovingAverage, KernelDensity and SavitzkyGolay, like MovingMedian,
// accumulate each window's run in one accumulate_batch call and never
// through the per-chunk accumulate: with the trigger on, a single-thread
// batched run2 makes one call per window key, n - `keyless` of them
// (Savitzky-Golay keys only the full windows).  That the batched outputs
// equal the per-chunk walk's bit for bit is checked by the apps'
// MatchesPerChunkWalk tests above.
template <class Make>
void expect_one_accumulate_batch_per_window(const char* name, const Make& make,
                                            std::size_t keyless) {
  for (const std::size_t n : {std::size_t{1000}, std::size_t{64 * 20 + 13}}) {
    const auto data = gaussian_data(n, 937);
    std::vector<double> out(n);
    auto batched = make(SchedArgs(1, 1), with_batch(64));
    batched->run2(data.data(), n, out.data(), n);
    EXPECT_EQ(batched->accumulates.load(), 0u) << name << " n=" << n;
    EXPECT_EQ(batched->accumulate_batches.load(), n - keyless) << name << " n=" << n;
  }
}

TEST(Run2Batched, AlgebraicWindowAppsTakeOneAccumulateBatchPerWindow) {
  expect_one_accumulate_batch_per_window(
      "MovingAverage",
      [](const SchedArgs& a, RunOptions o) {
        return std::make_unique<WindowCallCounting<MovingAverage<double>>>(a, kWindow, o);
      },
      0);
  expect_one_accumulate_batch_per_window(
      "KernelDensity",
      [](const SchedArgs& a, RunOptions o) {
        return std::make_unique<WindowCallCounting<KernelDensity<double>>>(a, kWindow, 0.5, o);
      },
      0);
  expect_one_accumulate_batch_per_window(
      "SavitzkyGolay",
      [](const SchedArgs& a, RunOptions o) {
        return std::make_unique<WindowCallCounting<SavitzkyGolay<double>>>(
            a, static_cast<int>(kWindow), 3, o);
      },
      kWindow - 1);
}

// --- run2: triggered windows never enter the map -----------------------------

/// A window sum that counts its constructions.
struct CountedWinObj : WinObj {
  explicit CountedWinObj(std::atomic<std::size_t>& constructed) {
    constructed.fetch_add(1, std::memory_order_relaxed);
  }
};

/// Sums each centered window of kWindow elements, clipped at the partition
/// edges, and triggers at the clipped size or at `trigger_at` elements,
/// whichever is smaller.  emit() writes the sum and recycles the object.
/// With trigger_at below the window a key's run is longer than its window:
/// the object triggers mid-run and the rest of the run is left pending.
class RecyclingWindowSum : public Scheduler<double, double> {
 public:
  RecyclingWindowSum(const SchedArgs& args, RunOptions opts, std::size_t trigger_at)
      : Scheduler<double, double>(args, opts), trigger_at_(trigger_at) {}

  std::atomic<std::size_t> constructed{0};  ///< CountedWinObj constructions, all workers

 protected:
  bool gen_key_ranges(const ChunkBatch& batch, const double*, KeyRange* ranges,
                      const CombinationMap&) const override {
    window_center_ranges(batch, total_len(), kWindow, ranges);
    return true;
  }
  void accumulate(const Chunk& chunk, const double* data,
                  std::unique_ptr<RedObj>& obj) override {
    if (!obj) obj = std::make_unique<CountedWinObj>(constructed);
    auto& win = static_cast<WinObj&>(*obj);
    if (win.count == 0) {
      const auto center = static_cast<std::size_t>(current_key());
      win.window = std::min(clipped_window_size(center, total_len(), kWindow), trigger_at_);
    }
    win.sum += data[chunk.start];
    win.count += 1;
  }
  void merge(const RedObj& src, std::unique_ptr<RedObj>& dst) override {
    auto& d = static_cast<WinObj&>(*dst);
    const auto& s = static_cast<const WinObj&>(src);
    d.sum += s.sum;
    d.count += s.count;
  }
  // Relaxed atomic store, as in KeyedWindowSum: with trigger_at below the
  // window, two workers may both emit a key whose window a split cuts.
  void convert(const RedObj& obj, double* out) const override {
    std::atomic_ref<double>(*out).store(static_cast<const WinObj&>(obj).sum,
                                        std::memory_order_relaxed);
  }
  void emit(std::unique_ptr<RedObj>& obj, double* out) override {
    auto& win = static_cast<WinObj&>(*obj);
    if (out != nullptr) convert(win, out);
    win.sum = 0.0;
    win.count = 0;
  }

 private:
  std::size_t trigger_at_;
};

struct RecyclingRun {
  std::vector<double> out;
  std::size_t early_emissions = 0;
  std::vector<std::pair<int, double>> survivors;  ///< (key, sum), key order
  std::size_t constructed = 0;
};

RecyclingRun run_recycling(const std::vector<double>& data, int threads, bool trigger,
                           std::size_t batch_chunks, std::size_t trigger_at) {
  RunOptions opts = with_batch(batch_chunks);
  opts.enable_trigger = trigger;
  RecyclingWindowSum app(SchedArgs(threads, 1), opts, trigger_at);
  RecyclingRun r;
  r.out.assign(data.size(), -1.0);
  app.run2(data.data(), data.size(), r.out.data(), r.out.size());
  r.early_emissions = app.stats().early_emissions;
  for (const auto& [key, obj] : app.get_combination_map()) {
    r.survivors.emplace_back(key, static_cast<const WinObj&>(*obj).sum);
  }
  r.constructed = app.constructed.load();
  return r;
}

// The deterministic guard for the walk's scratch object.  With the trigger
// on, a whole window triggers and its object is recycled by emit(), so one
// worker constructs exactly 1 object for n windows.  A split boundary cuts
// kWindow - 1 windows into a piece on each side; each piece ends its run
// untriggered and enters its worker's map as an object of its own, and
// only the last worker's scratch object is never handed over, so t workers
// construct 2 (kWindow - 1) (t - 1) + 1 objects.  With the trigger off
// every window piece enters the map: n + (kWindow - 1) (t - 1) objects.  A
// walk that accumulated in the map would construct that many in every
// case, as the per-chunk walk does.
TEST(Run2Batched, TriggeredWindowsRecycleOneScratchObjectPerWorker) {
  for (const std::size_t n : {std::size_t{1000}, std::size_t{64 * 20 + 13}}) {
    const auto data = gaussian_data(n, 934);
    for (const int threads : {1, 2, 3}) {
      const auto t = static_cast<std::size_t>(threads);
      const std::size_t cut_windows = (kWindow - 1) * (t - 1);
      for (const bool trigger : {true, false}) {
        const auto per_chunk = run_recycling(data, threads, trigger, 0, kWindow);
        const auto batched = run_recycling(data, threads, trigger, 64, kWindow);
        const std::string where =
            "n=" + std::to_string(n) + " threads=" + std::to_string(threads) +
            " trigger=" + std::to_string(trigger);
        EXPECT_EQ(batched.out, per_chunk.out) << where;
        EXPECT_EQ(batched.early_emissions, per_chunk.early_emissions) << where;
        EXPECT_EQ(batched.survivors, per_chunk.survivors) << where;
        EXPECT_EQ(batched.constructed, trigger ? 2 * cut_windows + 1 : n + cut_windows) << where;
        EXPECT_EQ(per_chunk.constructed, n + cut_windows) << where;
        EXPECT_EQ(batched.early_emissions, trigger ? n - cut_windows : 0u) << where;
      }
    }
  }
}

// trigger_at 10 < kWindow: an interior window's run of 25 chunks triggers
// after 10 and again after 20, and the last 5 are handed to the map, where
// they survive local combination and write the key's output last.
TEST(Run2Batched, RunLongerThanItsWindowHandsItsRestToTheMap) {
  constexpr std::size_t kTriggerAt = 10;
  const std::size_t n = 1000;
  const auto data = gaussian_data(n, 935);
  for (const int threads : {1, 2, 3}) {
    for (const bool trigger : {true, false}) {
      const auto per_chunk = run_recycling(data, threads, trigger, 0, kTriggerAt);
      const auto batched = run_recycling(data, threads, trigger, 64, kTriggerAt);
      const std::string where =
          "threads=" + std::to_string(threads) + " trigger=" + std::to_string(trigger);
      EXPECT_EQ(batched.out, per_chunk.out) << where;
      EXPECT_EQ(batched.early_emissions, per_chunk.early_emissions) << where;
      EXPECT_EQ(batched.survivors, per_chunk.survivors) << where;
    }
  }
  // One worker: each of the n - 24 interior windows triggers twice and
  // leaves 5 elements pending.  Of the 24 clipped edge windows, the ten of
  // 20..24 elements trigger twice and leave 0..4, the fourteen of 13..19
  // trigger once and leave 3..9, so only the two 20-element windows leave
  // nothing in the map.
  const auto one = run_recycling(data, 1, true, 64, kTriggerAt);
  EXPECT_EQ(one.survivors.size(), n - 2);
  EXPECT_EQ(one.early_emissions, 2 * (n - 24) + 2 * 10 + 14);
}

// --- run(): one accumulate_batch per key run ---------------------------------

/// Counts the batched-path calls `App` receives and delegates each to it.
template <class App>
class CallCounting : public App {
 public:
  using App::App;
  mutable std::size_t key_batches = 0;      ///< gen_keys_batch calls
  mutable std::size_t full_chunk_keys = 0;  ///< gen_key calls on a full chunk
  std::size_t accumulate_batches = 0;       ///< accumulate_batch calls

 protected:
  int gen_key(const Chunk& chunk, const double* data, const CombinationMap& map) const override {
    if (chunk.length == this->chunk_size()) ++full_chunk_keys;
    return App::gen_key(chunk, data, map);
  }
  void gen_keys_batch(const ChunkBatch& batch, const double* data, int* keys,
                      const CombinationMap& map) const override {
    ++key_batches;
    App::gen_keys_batch(batch, data, keys, map);
  }
  std::size_t accumulate_batch(const ChunkBatch& batch, const double* data,
                               std::unique_ptr<RedObj>& obj, bool stop_after_trigger) override {
    ++accumulate_batches;
    return App::accumulate_batch(batch, data, obj, stop_after_trigger);
  }
};

// The single-key twin of Run2Batched.OneAccumulateBatchPerWindowRun, and the
// deterministic guard of the batched run() path.  Each input holds 1000 full
// chunks whose key changes every 16 chunks (SummaryStats' key never does).
// With one thread a run keys them in ceil(1000 / 64) = 16 gen_keys_batch
// calls, accumulates each key run of a batch in one accumulate_batch call —
// ceil(1000 / 16) = 63 runs, as 16 divides the batch — and keys no full
// chunk one at a time.
constexpr std::size_t kCountedChunks = 1000;
constexpr std::size_t kKeyRun = 16;

template <class App>
void expect_one_call_per_key_run(const char* app_name, CallCounting<App>& app,
                                 const std::vector<double>& data, std::size_t key_runs) {
  app.run(data.data(), data.size(), nullptr, 0);
  EXPECT_EQ(app.key_batches, (kCountedChunks + 63) / 64) << app_name;
  EXPECT_EQ(app.accumulate_batches, key_runs) << app_name;
  EXPECT_EQ(app.full_chunk_keys, 0u) << app_name;
}

TEST(RunBatched, OneAccumulateBatchPerKeyRun) {
  const std::size_t runs = (kCountedChunks + kKeyRun - 1) / kKeyRun;
  // Histogram: unit buckets over [0, 8), chunk i in bucket (i / 16) % 8.
  std::vector<double> values(kCountedChunks);
  for (std::size_t i = 0; i < kCountedChunks; ++i) {
    values[i] = static_cast<double>(i / kKeyRun % 8) + 0.5;
  }
  CallCounting<Histogram<double>> hist(SchedArgs(1, 1), 0.0, 8.0, 8, with_batch(64));
  expect_one_call_per_key_run("histogram", hist, values, runs);

  // K-means: point i sits on centroid (i / 16) % 4; two ragged elements
  // at the end are dropped, never keyed.
  constexpr std::size_t dims = 4, k = 4;
  std::vector<double> init(k * dims);
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t d = 0; d < dims; ++d) init[c * dims + d] = 10.0 * static_cast<double>(c);
  }
  std::vector<double> points;
  for (std::size_t i = 0; i < kCountedChunks; ++i) {
    const std::size_t c = i / kKeyRun % k;
    points.insert(points.end(), init.begin() + static_cast<std::ptrdiff_t>(c * dims),
                  init.begin() + static_cast<std::ptrdiff_t>((c + 1) * dims));
  }
  points.insert(points.end(), {1.0, 2.0});
  KMeansInit seed{init.data(), k, dims};
  CallCounting<KMeans<double>> km(SchedArgs(1, dims, &seed, 1), k, dims, with_batch(64));
  expect_one_call_per_key_run("kmeans", km, points, runs);

  // Summary moments: one key, so one run per batch.
  CallCounting<SummaryStats<double>> stats(SchedArgs(1, 1), with_batch(64));
  expect_one_call_per_key_run("moments", stats, values, (kCountedChunks + 63) / 64);

  // Grid aggregation: 2-element chunks under 32-element cells, plus a
  // one-element ragged tail keyed by gen_key as a short chunk.
  const std::vector<double> field(2 * kCountedChunks + 1, 1.0);
  CallCounting<GridAggregation<double>> grid(SchedArgs(1, 2), 2 * kKeyRun, with_batch(64));
  expect_one_call_per_key_run("grid", grid, field, runs);
}

// --- accumulate_batch must report what it consumed ---------------------------

// Accumulates every chunk it is handed but reports `reported(count)` —
// a miscounting override.  A report of 0 used to skip a chunk
// unaccumulated and a report past the run skipped the next run's chunks;
// both now raise std::logic_error naming the count.
class MiscountingSum : public Scheduler<double, double> {
 public:
  explicit MiscountingSum(std::size_t (*reported)(std::size_t))
      : Scheduler<double, double>(SchedArgs(1, 1), with_batch(64)), reported_(reported) {}

 protected:
  int gen_key(const Chunk&, const double*, const CombinationMap&) const override { return 0; }
  bool gen_key_ranges(const ChunkBatch& batch, const double*, KeyRange* ranges,
                      const CombinationMap&) const override {
    for (std::size_t i = 0; i < batch.count; ++i) ranges[i] = KeyRange{0, 0};
    return true;
  }
  void accumulate(const Chunk& chunk, const double* data, std::unique_ptr<RedObj>& obj) override {
    if (!obj) obj = std::make_unique<WinObj>();
    static_cast<WinObj&>(*obj).sum += data[chunk.start];
  }
  std::size_t accumulate_batch(const ChunkBatch& batch, const double* data,
                               std::unique_ptr<RedObj>& obj, bool) override {
    for (std::size_t i = 0; i < batch.count; ++i) accumulate(batch.chunk(i), data, obj);
    return reported_(batch.count);
  }
  void merge(const RedObj&, std::unique_ptr<RedObj>&) override {}

 private:
  std::size_t (*reported_)(std::size_t);
};

// Runs run() and run2() over 64 elements, all keyed 0 (one batch for run(),
// one key run for run2()'s walk), and returns each call's logic_error
// message, or "" if none.
std::vector<std::string> miscount_errors(std::size_t (*reported)(std::size_t)) {
  const std::vector<double> data(64, 1.0);
  std::vector<std::string> errors;
  for (const bool multi_key : {false, true}) {
    MiscountingSum app(reported);
    std::string what;
    try {
      if (multi_key) {
        app.run2(data.data(), data.size(), nullptr, 0);
      } else {
        app.run(data.data(), data.size(), nullptr, 0);
      }
    } catch (const std::logic_error& e) {
      what = e.what();
    }
    errors.push_back(what);
  }
  return errors;
}

TEST(BadAccumulateBatch, ZeroConsumedThrowsNamingTheCount) {
  for (const auto& what : miscount_errors([](std::size_t) -> std::size_t { return 0; })) {
    EXPECT_NE(what.find("returned 0 for a run of 64 chunks"), std::string::npos) << what;
  }
}

TEST(BadAccumulateBatch, ConsumedPastTheRunThrowsNamingTheCount) {
  for (const auto& what :
       miscount_errors([](std::size_t count) -> std::size_t { return count + 1; })) {
    EXPECT_NE(what.find("returned 65 for a run of 64 chunks"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace smart
