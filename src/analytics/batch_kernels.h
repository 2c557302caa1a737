// Auto-vectorizable inner loops for the batched reduction kernels
// (DESIGN.md §4.8).  These are the free-function hearts of the numeric
// apps' gen_keys_batch / accumulate_batch overrides, factored out so
//
//   * the scalar per-chunk virtuals call the same code with n = 1 — the
//     batched and scalar paths literally cannot diverge, which is what the
//     bit-for-bit exactness property tests pin down; and
//   * a standalone TU (scripts/vec_probe.cpp) can compile just these loops
//     with -fopt-info-vec, and check.sh can assert that the compiler
//     vectorizes every loop marked `// vec-probe: must vectorize` and that
//     the pair kernel's disassembly adds in packed, not scalar, doubles and
//     stores no packed register to the stack, at -O2 and -O3.
//
// Exactness contract: every kernel preserves the scalar accumulation order.
// SIMD lanes come only from *independent* streams — per-element bucket
// keys, per-dimension k-means sums, other points' or other centroids'
// distance chains — never from reassociating one floating-point reduction
// chain.  That rules out
// horizontal-sum tricks on `sum += x[i]`, and it is why the summary
// moments keep a scalar dependency chain while min/max and the squared
// terms still vectorize.
//
// Nearest-centroid assignment has one kernel at every width, the pair
// kernel, over the pair-interleaved copy a CentroidTable holds: two
// centroids per SSE2 vector, one per lane, so the adds of two distance
// chains go in one packed instruction and each lane still adds in dim
// order.  No scan exits early or is seeded by the previous point's winner:
// a per-dim exit test would be control flow in the dim loop, and summing
// one chain at a time leaves the adds scalar however the subtractions are
// packed.  At d = 64 (Fig 5, Fig 6, perfbench kmeans_d64) the pair kernel
// scores a point-dim-centroid in 0.25-0.36 ns against 0.41-0.58 ns for
// four scalar chains per pass (one thread, 6,144 points, k = 8, -O3).  At
// d = 4, on the Heat3D fields of Fig 1, 7 and 8, a scan that exits and
// seeds was no faster at converged centroids and slower at the initial
// ones, once the pair kernel's tiles keep every accumulator in a register
// (GCC 12, baseline x86-64, shared 4-CPU Xeon; DESIGN.md §4.8).
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace smart::analytics::kernels {

/// Equi-width histogram bucketing over a contiguous (stride 1) or strided
/// value stream: keys[i] = clamp(floor((x[i*stride] - min) / width)).
/// Element-independent, so the stride-1 loop vectorizes.
///
/// The clamp range makes floor redundant: for quotients in [0, num_buckets)
/// truncation IS floor, and everything negative lands in bucket 0 whether
/// floored or truncated.  Comparing in the double domain before the cast
/// keeps huge quotients (and NaN, which fails both compares and clamps
/// low) away from undefined int conversions — and leaves a branch-free
/// div / cmp / blend / cvttpd2dq sequence that needs nothing past SSE2,
/// where std::floor would have cost a libm call on baseline x86-64.
template <class In>
inline void histogram_keys(const In* x, std::size_t n, std::size_t stride, double min,
                           double width, int num_buckets, int* keys) {
  const double hi = static_cast<double>(num_buckets);
  if (stride == 1) {
    for (std::size_t i = 0; i < n; ++i) {  // vec-probe: must vectorize
      const double q = (static_cast<double>(x[i]) - min) / width;
      keys[i] = q >= hi ? num_buckets - 1 : (q > 0.0 ? static_cast<int>(q) : 0);
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {  // vec-probe: must vectorize
      const double q = (static_cast<double>(x[i * stride]) - min) / width;
      keys[i] = q >= hi ? num_buckets - 1 : (q > 0.0 ? static_cast<int>(q) : 0);
    }
  }
}

namespace detail {

/// Two doubles in one SSE2 register (plain GCC vector extension: baseline
/// x86-64 codegen, no intrinsics header).  Its arithmetic is lane-wise, so
/// each lane is its own IEEE chain.
using pair_vec = double __attribute__((vector_size(16)));

/// One tile of the pair kernel: P points against Q consecutive centroid
/// pairs starting at pair q0, one pass over the dims.  Each (point, pair)
/// accumulator holds two independent chains, one per lane, and each lane
/// adds (x[d] - c[d])^2 in dim order: the same expression and order as the
/// serial reference scan (ref::kmeans), so every distance is bit-identical.
/// The tile then folds its distances into the running argmin in index order
/// (2q before 2q + 1, pairs in order) with a strict <, so the lowest index
/// wins ties.
template <std::size_t P, std::size_t Q, class T>
inline void pair_tile(const T* pts, std::size_t dims, const pair_vec* pairs, std::size_t q0,
                      double* best, int* key) {
  // The P x Q accumulators, and the P best/key slots, only live in
  // registers once every loop over P or Q is unrolled, the folds included,
  // which -O2 (the default RelWithDebInfo build) does not do on its own: a
  // rolled loop indexes acc[p][q] through the stack.  The pragmas unroll
  // them at every optimization level; check.sh's vec probe fails on a
  // packed store to the stack in this kernel at -O2 and -O3.
  pair_vec acc[P][Q] = {};
  const pair_vec* tile = pairs + q0 * dims;
  for (std::size_t d = 0; d < dims; ++d) {
    pair_vec c[Q];
#pragma GCC unroll 8
    for (std::size_t q = 0; q < Q; ++q) c[q] = tile[q * dims + d];
#pragma GCC unroll 8
    for (std::size_t p = 0; p < P; ++p) {
      const double x = static_cast<double>(pts[p * dims + d]);
      const pair_vec xx = {x, x};
#pragma GCC unroll 8
      for (std::size_t q = 0; q < Q; ++q) {
        const pair_vec e = xx - c[q];
        acc[p][q] += e * e;
      }
    }
  }
#pragma GCC unroll 8
  for (std::size_t p = 0; p < P; ++p) {
#pragma GCC unroll 8
    for (std::size_t q = 0; q < Q; ++q) {
      const int c0 = static_cast<int>(2 * (q0 + q));
      const double d0 = acc[p][q][0], d1 = acc[p][q][1];
      const bool win0 = d0 < best[p];
      key[p] = win0 ? c0 : key[p];
      best[p] = win0 ? d0 : best[p];
      const bool win1 = d1 < best[p];
      key[p] = win1 ? c0 + 1 : key[p];
      best[p] = win1 ? d1 : best[p];
    }
  }
}

/// P points against every pair, Q pairs per pass over the dims and the
/// leftover pairs one at a time.
template <std::size_t P, std::size_t Q, class T>
inline void pair_points(const T* pts, std::size_t dims, const pair_vec* pairs,
                        std::size_t num_pairs, int* keys) {
  double best[P];
  int key[P];
#pragma GCC unroll 8
  for (std::size_t p = 0; p < P; ++p) {
    best[p] = std::numeric_limits<double>::max();
    key[p] = 0;
  }
  std::size_t q = 0;
  for (; q + Q <= num_pairs; q += Q) pair_tile<P, Q>(pts, dims, pairs, q, best, key);
  for (; q < num_pairs; ++q) pair_tile<P, 1>(pts, dims, pairs, q, best, key);
#pragma GCC unroll 8
  for (std::size_t p = 0; p < P; ++p) keys[p] = key[p];
}

template <std::size_t P, std::size_t Q, class T>
inline void pair_scan(const T* pts, std::size_t n, std::size_t dims, const pair_vec* pairs,
                      std::size_t num_pairs, int* keys) {
  std::size_t p = 0;
  for (; p + P <= n; p += P) pair_points<P, Q>(pts + p * dims, dims, pairs, num_pairs, keys + p);
  for (; p < n; ++p) pair_points<1, Q>(pts + p * dims, dims, pairs, num_pairs, keys + p);
}

/// Assignment at every width over the pair-interleaved centroids of a
/// CentroidTable: two centroids per SSE2 vector, one per lane, every
/// distance scanned to the end (no exit, no seeding).  The tile shape comes
/// from the pair count so that about eight accumulators are in flight: 2
/// points x 4 pairs from 4 pairs up, 4 x 2 for 2-3 pairs, 8 x 1 for one.
/// Leftover points (n % P, and the n = 1 calls from KMeans::gen_key) take
/// a one-point tile, which sums each distance in the same order, so batched
/// and scalar keys are bit-identical.
template <class T>
inline void nearest_centroids_pairs(const T* pts, std::size_t n, std::size_t dims,
                                    const pair_vec* pairs, std::size_t num_pairs, int* keys) {
  if (num_pairs >= 4) {
    pair_scan<2, 4>(pts, n, dims, pairs, num_pairs, keys);
  } else if (num_pairs >= 2) {
    pair_scan<4, 2>(pts, n, dims, pairs, num_pairs, keys);
  } else {
    pair_scan<8, 1>(pts, n, dims, pairs, num_pairs, keys);
  }
}

}  // namespace detail

/// The k centroids pair-interleaved, the layout nearest_centroids scans.
/// Pair q holds centroids 2q and 2q + 1 dim-major,
/// [c0[0], c1[0], c0[1], c1[1], ...].  For odd k the last pair's second
/// lane is a copy of centroid k - 1: its distance ties the first lane's
/// exactly and loses on index, so key k is never returned.
class CentroidTable {
 public:
  CentroidTable() = default;

  /// `rows` holds k rows of `dims` doubles.
  CentroidTable(const double* rows, std::size_t k, std::size_t dims) : k_(k), dims_(dims) {
    pairs_.resize((k + 1) / 2 * dims);
    for (std::size_t c = 0; c < k + k % 2; c += 2) {
      const double* lo = rows + c * dims;
      const double* hi = c + 1 < k ? lo + dims : lo;
      for (std::size_t d = 0; d < dims; ++d) {
        pairs_[c / 2 * dims + d] = detail::pair_vec{lo[d], hi[d]};
      }
    }
  }

 private:
  template <class T>
  friend void nearest_centroids(const T* pts, std::size_t n, const CentroidTable& table,
                                int* keys);

  std::size_t k_ = 0;
  std::size_t dims_ = 0;
  std::vector<detail::pair_vec> pairs_;
};

/// Nearest centroid of each of n points of the table's width (row-major):
/// the lowest index among the smallest squared distances, from the pair
/// kernel at every width.
template <class T>
inline void nearest_centroids(const T* pts, std::size_t n, const CentroidTable& table,
                              int* keys) {
  detail::nearest_centroids_pairs(pts, n, table.dims_, table.pairs_.data(), (table.k_ + 1) / 2,
                                  keys);
}

/// Accumulates n dims-length points into sum[0..dims): point-major order
/// per dimension — bit-exact vs per-point accumulate — with the common
/// fixed widths keeping each dimension's chain in a register for the whole
/// run instead of store-forwarding through sum[] every point.  The chains
/// stay independent (one per dimension); no chain is reassociated.
namespace detail {

template <class T, std::size_t Dims>
inline void accumulate_points_fixed(const T* pts, std::size_t n, double* sum) {
  double s[Dims];
  for (std::size_t d = 0; d < Dims; ++d) s[d] = sum[d];
  for (std::size_t p = 0; p < n; ++p) {  // vec-probe: must vectorize
    const T* pt = pts + p * Dims;
    for (std::size_t d = 0; d < Dims; ++d) s[d] += static_cast<double>(pt[d]);
  }
  for (std::size_t d = 0; d < Dims; ++d) sum[d] = s[d];
}

}  // namespace detail

template <class T>
inline void accumulate_points(const T* pts, std::size_t n, std::size_t dims, double* sum) {
  switch (dims) {
    case 2: detail::accumulate_points_fixed<T, 2>(pts, n, sum); return;
    case 3: detail::accumulate_points_fixed<T, 3>(pts, n, sum); return;
    case 4: detail::accumulate_points_fixed<T, 4>(pts, n, sum); return;
    case 8: detail::accumulate_points_fixed<T, 8>(pts, n, sum); return;
    default: break;
  }
  for (std::size_t p = 0; p < n; ++p) {
    const T* pt = pts + p * dims;
    for (std::size_t d = 0; d < dims; ++d) {  // vec-probe: must vectorize
      sum[d] += static_cast<double>(pt[d]);
    }
  }
}

/// One-pass moments over n contiguous values, resuming from (and writing
/// back) the caller's running state.  sum / sum_sq stay one scalar chain
/// each (exactness contract), which keeps GCC from vectorizing the loop;
/// its guard is the call count of RunBatched.OneAccumulateBatchPerKeyRun.
template <class In>
inline void accumulate_moments(const In* x, std::size_t n, double& sum, double& sum_sq,
                               double& min, double& max) {
  double s = sum, sq = sum_sq, mn = min, mx = max;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = static_cast<double>(x[i]);
    s += v;
    sq += v * v;
    if (v < mn) mn = v;
    if (v > mx) mx = v;
  }
  sum = s;
  sum_sq = sq;
  min = mn;
  max = mx;
}

/// Plain running sum over n contiguous values, scalar chain order (the
/// grid/block aggregation accumulate).  Returned rather than written
/// through a pointer so the caller's += keeps its own order.
template <class In>
inline double accumulate_sum(const In* x, std::size_t n, double sum) {
  for (std::size_t i = 0; i < n; ++i) {  // vec-probe: must vectorize
    sum += static_cast<double>(x[i]);
  }
  return sum;
}

}  // namespace smart::analytics::kernels
