// Auto-vectorizable inner loops for the batched reduction kernels
// (DESIGN.md §4.8).  These are the free-function hearts of the numeric
// apps' gen_keys_batch / accumulate_batch overrides, factored out so
//
//   * the scalar per-chunk virtuals call the same code with n = 1 — the
//     batched and scalar paths literally cannot diverge, which is what the
//     bit-for-bit exactness property tests pin down; and
//   * a standalone TU (scripts/vec_probe.cpp) can compile just these loops
//     with -fopt-info-vec, and check.sh can assert that the compiler
//     vectorizes every loop marked `// vec-probe: must vectorize`.
//
// Exactness contract: every kernel preserves the scalar accumulation order.
// SIMD lanes come only from *independent* streams — per-element bucket
// keys, per-dimension k-means sums, other points' distance chains — never
// from reassociating one floating-point reduction chain.  That rules out
// horizontal-sum tricks on `sum += x[i]`, and it is why the summary
// moments keep a scalar dependency chain while min/max and the squared
// terms still vectorize.
//
// Nearest-centroid assignment has two shapes.  The fixed widths d in
// {2, 3, 4, 8} unroll the dim loop, exit a centroid as soon as its
// distance prefix can no longer win (monotone early exit) and seed each
// 4-point block with the previous block's winner; at d = 4, k = 8 the
// exits are worth 15-25% of BM_BatchedAccumulate/kmeans.  Every other
// width takes a branch-free blocked kernel with neither: a per-dim exit
// test is control flow in the dim loop, which stops GCC vectorizing it,
// and at d = 64 (Fig 5, Fig 6, perfbench kmeans_d64) that loop left
// Smart's k-means step 1.8x as long as the hand-written one.  Routing
// d = 64 through the fixed widths' exit-and-seed blocked scan lost too
// (+27-46% Fig 6 overhead, against -17..+17% for the plain loop with its
// exit deleted); the branch-free blocked kernel brings kmeans_d64's
// lowlevel_ratio to 0.81-0.90.  (GCC 12, baseline x86-64, shared 4-CPU
// Xeon; DESIGN.md §4.8.)
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>

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

/// Generic-width assignment, blocked 4 points at a time like
/// nearest_centroids_fixed but with no early exit and no seeding: every
/// centroid row is scanned to the end for every point.  The four distance
/// chains are independent, so they interleave in the add pipeline, and at
/// -O3 the compiler vectorizes the dim loop: the subtractions and squares
/// go two doubles to a vector, and each chain's adds stay in scalar dim
/// order.  The argmin is a branch-free select: strict <, scanned in index
/// order, so the lowest index wins ties exactly as in the reference scan.
///
/// Leftover points (n % 4, and the n = 1 calls from KMeans::gen_key) take
/// the same loop for one point, which sums each distance in the same order
/// — batched and scalar keys are bit-identical.  No exit test goes in
/// either dim loop (see the file comment): check.sh fails the build if one
/// stops vectorizing.
template <class T>
inline void nearest_centroids_blocked(const T* pts, std::size_t n, std::size_t dims,
                                      const double* centroids, std::size_t k, int* keys) {
  constexpr double kFar = std::numeric_limits<double>::max();
  std::size_t p = 0;
  for (; p + 4 <= n; p += 4) {
    const T* p0 = pts + p * dims;
    const T* p1 = p0 + dims;
    const T* p2 = p1 + dims;
    const T* p3 = p2 + dims;
    double best0 = kFar, best1 = kFar, best2 = kFar, best3 = kFar;
    int key0 = 0, key1 = 0, key2 = 0, key3 = 0;
    for (std::size_t c = 0; c < k; ++c) {
      const double* centroid = centroids + c * dims;
      double d0 = 0.0, d1 = 0.0, d2 = 0.0, d3 = 0.0;
      for (std::size_t d = 0; d < dims; ++d) {  // vec-probe: must vectorize
        const double ce = centroid[d];
        const double e0 = static_cast<double>(p0[d]) - ce;
        const double e1 = static_cast<double>(p1[d]) - ce;
        const double e2 = static_cast<double>(p2[d]) - ce;
        const double e3 = static_cast<double>(p3[d]) - ce;
        d0 += e0 * e0;
        d1 += e1 * e1;
        d2 += e2 * e2;
        d3 += e3 * e3;
      }
      const int key = static_cast<int>(c);
      const bool win0 = d0 < best0, win1 = d1 < best1, win2 = d2 < best2, win3 = d3 < best3;
      key0 = win0 ? key : key0;
      key1 = win1 ? key : key1;
      key2 = win2 ? key : key2;
      key3 = win3 ? key : key3;
      best0 = win0 ? d0 : best0;
      best1 = win1 ? d1 : best1;
      best2 = win2 ? d2 : best2;
      best3 = win3 ? d3 : best3;
    }
    keys[p + 0] = key0;
    keys[p + 1] = key1;
    keys[p + 2] = key2;
    keys[p + 3] = key3;
  }
  for (; p < n; ++p) {
    const T* p0 = pts + p * dims;
    double best0 = kFar;
    int key0 = 0;
    for (std::size_t c = 0; c < k; ++c) {
      const double* centroid = centroids + c * dims;
      double d0 = 0.0;
      for (std::size_t d = 0; d < dims; ++d) {  // vec-probe: must vectorize
        const double e0 = static_cast<double>(p0[d]) - centroid[d];
        d0 += e0 * e0;
      }
      const bool win0 = d0 < best0;
      key0 = win0 ? static_cast<int>(c) : key0;
      best0 = win0 ? d0 : best0;
    }
    keys[p] = key0;
  }
}

}  // namespace detail

/// Nearest-centroid assignment for n dims-length points (row-major).
/// Common feature widths dispatch to a fixed-dims specialization whose
/// distance loop fully unrolls; anything else takes the blocked generic
/// kernel.
template <class T>
inline void nearest_centroids(const T* pts, std::size_t n, std::size_t dims,
                              const double* centroids, std::size_t k, int* keys) {
  switch (dims) {
    case 2: detail::nearest_centroids_fixed<T, 2>(pts, n, centroids, k, keys); return;
    case 3: detail::nearest_centroids_fixed<T, 3>(pts, n, centroids, k, keys); return;
    case 4: detail::nearest_centroids_fixed<T, 4>(pts, n, centroids, k, keys); return;
    case 8: detail::nearest_centroids_fixed<T, 8>(pts, n, centroids, k, keys); return;
    default: detail::nearest_centroids_blocked(pts, n, dims, centroids, k, keys); return;
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
  for (std::size_t p = 0; p < n; ++p) {
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
    for (std::size_t d = 0; d < dims; ++d) {
      sum[d] += static_cast<double>(pt[d]);
    }
  }
}

/// One-pass moments over n contiguous values, resuming from (and writing
/// back) the caller's running state.  sum / sum_sq stay one scalar chain
/// each (exactness contract); min / max and the v*v products are still
/// lane-parallel for the compiler to pick up.
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
  for (std::size_t i = 0; i < n; ++i) sum += static_cast<double>(x[i]);
  return sum;
}

}  // namespace smart::analytics::kernels
