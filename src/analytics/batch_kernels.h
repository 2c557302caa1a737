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
//     the pair kernel's disassembly adds in packed, not scalar, doubles.
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
// Nearest-centroid assignment has two shapes, and a CentroidTable holds
// the centroids in the layout each one scans.  The fixed widths d in
// {2, 3, 4, 8} scan row-major centroids: they unroll the dim loop, exit a
// centroid as soon as its distance prefix can no longer win (monotone
// early exit) and seed each 4-point block with the previous block's
// winner; at d = 4, k = 8 the exits are worth 15-25% of
// BM_BatchedAccumulate/kmeans, and they pay most where consecutive points
// share a winner, as on the smooth Heat3D fields of Fig 1, 7 and 8.  Every
// other width takes the pair kernel over a pair-interleaved copy: two
// centroids per SSE2 vector, one per lane, so the adds of two distance
// chains go in one packed instruction and each lane still adds in dim
// order.  A per-dim exit test would be control flow in the dim loop, and
// summing one chain at a time leaves the adds scalar however the
// subtractions are packed: at d = 64 (Fig 5, Fig 6, perfbench kmeans_d64)
// the pair kernel scores a point-dim-centroid in 0.25-0.36 ns against
// 0.41-0.58 ns for four scalar chains per pass (one thread, 6,144 points,
// k = 8, -O3; GCC 12, baseline x86-64, shared 4-CPU Xeon; DESIGN.md §4.8).
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

/// Nearest centroid for one point; distances accumulate per centroid in
/// the scalar dim order (bit-exact vs KMeans::gen_key, first index wins
/// ties).  Dims as a template constant lets the compiler fully unroll the
/// distance loop and keep the per-centroid accumulators in registers.
template <class T, std::size_t Dims>
inline int nearest_centroid_fixed(const T* pt, const double* centroids, std::size_t k) {
  int best_key = 0;
  double best = std::numeric_limits<double>::max();
  for (std::size_t c = 0; c < k; ++c) {
    const double* centroid = centroids + c * Dims;
    double dist = 0.0;
    for (std::size_t d = 0; d < Dims; ++d) {
      const double diff = static_cast<double>(pt[d]) - centroid[d];
      dist += diff * diff;
      // Monotone early exit: partial sums of squares only grow, so once
      // the prefix reaches `best` this centroid cannot win — the argmin
      // (ties included: strict <, first index wins) is unchanged, and the
      // winning distances still accumulate in the full scalar order.
      if (dist >= best) break;
    }
    if (dist < best) {
      best = dist;
      best_key = static_cast<int>(c);
    }
  }
  return best_key;
}

/// One lane's full (all dims, no exit) squared distance — the same
/// expression every path uses for a centroid it scans to completion.
template <class T, std::size_t Dims>
inline double dist_sq_fixed(const T* pt, const double* centroid) {
  double dist = 0.0;
  for (std::size_t d = 0; d < Dims; ++d) {
    const double diff = static_cast<double>(pt[d]) - centroid[d];
    dist += diff * diff;
  }
  return dist;
}

/// Batched assignment, blocked 4 points at a time: each centroid row is
/// loaded once per block instead of once per point, and the four distance
/// chains are independent, so they interleave in the FMA pipeline instead
/// of serializing on one chain's add latency.  Per point the adds happen
/// in the exact dim order of nearest_centroid_fixed — identical keys, the
/// ILP comes from *other points'* chains, never from reassociating one.
///
/// The scan of each block is *seeded* with the previous block's winning
/// centroid (run-aware candidate seeding): consecutive chunks usually
/// share a key, so the seed is almost always the true winner and every
/// other centroid early-exits after a dim or two against its tight bound.
/// Seeding changes the scan order, so exactness needs the full
/// lowest-index-argmin tie rule: a centroid is exited only when its
/// prefix STRICTLY exceeds the bound (a tie could still win on index),
/// and it replaces the best on a tie only when its index is lower.  Under
/// that rule the result is the mathematical argmin with lowest index —
/// per-centroid distances don't depend on scan order — so hinted and
/// unhinted scans agree bit-for-bit on every input, ties included.
template <class T, std::size_t Dims>
inline void nearest_centroids_fixed(const T* pts, std::size_t n, const double* centroids,
                                    std::size_t k, int* keys) {
  int hint = 0;
  std::size_t p = 0;
  for (; p + 4 <= n; p += 4) {
    const T* p0 = pts + (p + 0) * Dims;
    const T* p1 = pts + (p + 1) * Dims;
    const T* p2 = pts + (p + 2) * Dims;
    const T* p3 = pts + (p + 3) * Dims;
    const double* seed = centroids + static_cast<std::size_t>(hint) * Dims;
    double best0 = dist_sq_fixed<T, Dims>(p0, seed);
    double best1 = dist_sq_fixed<T, Dims>(p1, seed);
    double best2 = dist_sq_fixed<T, Dims>(p2, seed);
    double best3 = dist_sq_fixed<T, Dims>(p3, seed);
    int key0 = hint, key1 = hint, key2 = hint, key3 = hint;
    for (std::size_t c = 0; c < k; ++c) {
      if (static_cast<int>(c) == hint) continue;  // already the seed
      const double* centroid = centroids + c * Dims;
      double d0 = 0.0, d1 = 0.0, d2 = 0.0, d3 = 0.0;
      for (std::size_t d = 0; d < Dims; ++d) {
        const double ce = centroid[d];
        const double e0 = static_cast<double>(p0[d]) - ce;
        const double e1 = static_cast<double>(p1[d]) - ce;
        const double e2 = static_cast<double>(p2[d]) - ce;
        const double e3 = static_cast<double>(p3[d]) - ce;
        d0 += e0 * e0;
        d1 += e1 * e1;
        d2 += e2 * e2;
        d3 += e3 * e3;
        // Joint early exit, strict >: once every lane's prefix strictly
        // exceeds its bound no lane can win or tie-win.  Bitwise & folds
        // the four compares into one predictable branch.
        if ((d0 > best0) & (d1 > best1) & (d2 > best2) & (d3 > best3)) break;
      }
      const int key = static_cast<int>(c);
      // Lanes that exited hold partial sums strictly above their bound,
      // so they fail the <= gate by construction.  The gate keeps the
      // common miss a single predictable branch; the tie arm (equal
      // distance, lower index wins) only runs on a hit.
      if (d0 <= best0 && (d0 < best0 || key < key0)) { best0 = d0; key0 = key; }
      if (d1 <= best1 && (d1 < best1 || key < key1)) { best1 = d1; key1 = key; }
      if (d2 <= best2 && (d2 < best2 || key < key2)) { best2 = d2; key2 = key; }
      if (d3 <= best3 && (d3 < best3 || key < key3)) { best3 = d3; key3 = key; }
    }
    keys[p + 0] = key0;
    keys[p + 1] = key1;
    keys[p + 2] = key2;
    keys[p + 3] = key3;
    hint = key3;
  }
  for (; p < n; ++p) {
    keys[p] = nearest_centroid_fixed<T, Dims>(pts + p * Dims, centroids, k);
  }
}

/// Two doubles in one SSE2 register (plain GCC vector extension: baseline
/// x86-64 codegen, no intrinsics header).  Its arithmetic is lane-wise, so
/// each lane is its own IEEE chain.
using pair_vec = double __attribute__((vector_size(16)));

/// One tile of the pair kernel: P points against Q consecutive centroid
/// pairs starting at pair q0, one pass over the dims.  Each (point, pair)
/// accumulator holds two independent chains, one per lane, and each lane
/// adds (x[d] - c[d])^2 in dim order: the same expression and order as
/// nearest_centroid_fixed's scan to completion, so every distance is
/// bit-identical.  The tile then folds its distances into the running
/// argmin in index order (2q before 2q + 1, pairs in order) with a strict
/// <, so the lowest index wins ties.
template <std::size_t P, std::size_t Q, class T>
inline void pair_tile(const T* pts, std::size_t dims, const pair_vec* pairs, std::size_t q0,
                      double* best, int* key) {
  // The P x Q accumulators only live in registers once the tile's loops are
  // unrolled, which -O2 does not do on its own (the default RelWithDebInfo
  // build): the pragmas unroll them at every optimization level.
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
  for (std::size_t p = 0; p < P; ++p) {
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
  for (std::size_t p = 0; p < P; ++p) {
    best[p] = std::numeric_limits<double>::max();
    key[p] = 0;
  }
  std::size_t q = 0;
  for (; q + Q <= num_pairs; q += Q) pair_tile<P, Q>(pts, dims, pairs, q, best, key);
  for (; q < num_pairs; ++q) pair_tile<P, 1>(pts, dims, pairs, q, best, key);
  for (std::size_t p = 0; p < P; ++p) keys[p] = key[p];
}

template <std::size_t P, std::size_t Q, class T>
inline void pair_scan(const T* pts, std::size_t n, std::size_t dims, const pair_vec* pairs,
                      std::size_t num_pairs, int* keys) {
  std::size_t p = 0;
  for (; p + P <= n; p += P) pair_points<P, Q>(pts + p * dims, dims, pairs, num_pairs, keys + p);
  for (; p < n; ++p) pair_points<1, Q>(pts + p * dims, dims, pairs, num_pairs, keys + p);
}

/// Generic-width assignment over the pair-interleaved centroids of a
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

/// The k centroids in the layout nearest_centroids scans for their width:
/// row-major for the fixed widths {2, 3, 4, 8}; pair-interleaved for every
/// other width.  Pair q holds centroids 2q and 2q + 1 dim-major,
/// [c0[0], c1[0], c0[1], c1[1], ...].  For odd k the last pair's second
/// lane is a copy of centroid k - 1: its distance ties the first lane's
/// exactly and loses on index, so key k is never returned.
class CentroidTable {
 public:
  CentroidTable() = default;

  /// `rows` holds k rows of `dims` doubles.
  CentroidTable(const double* rows, std::size_t k, std::size_t dims) : k_(k), dims_(dims) {
    if (dims == 2 || dims == 3 || dims == 4 || dims == 8) {
      rows_.assign(rows, rows + k * dims);
      return;
    }
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
  std::vector<double> rows_;             // fixed widths
  std::vector<detail::pair_vec> pairs_;  // every other width
};

/// Nearest centroid of each of n points of the table's width (row-major):
/// the lowest index among the smallest squared distances.  The fixed
/// widths dispatch to a specialization whose distance loop fully unrolls;
/// anything else takes the pair kernel.
template <class T>
inline void nearest_centroids(const T* pts, std::size_t n, const CentroidTable& table,
                              int* keys) {
  const double* rows = table.rows_.data();
  switch (table.dims_) {
    case 2: detail::nearest_centroids_fixed<T, 2>(pts, n, rows, table.k_, keys); return;
    case 3: detail::nearest_centroids_fixed<T, 3>(pts, n, rows, table.k_, keys); return;
    case 4: detail::nearest_centroids_fixed<T, 4>(pts, n, rows, table.k_, keys); return;
    case 8: detail::nearest_centroids_fixed<T, 8>(pts, n, rows, table.k_, keys); return;
    default:
      detail::nearest_centroids_pairs(pts, n, table.dims_, table.pairs_.data(),
                                      (table.k_ + 1) / 2, keys);
      return;
  }
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
