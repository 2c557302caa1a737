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
//     both nearest-centroid kernels' disassembly adds in packed, not
//     scalar, doubles on their width's registers and keeps the
//     accumulators in them (no packed xmm store to the stack in the 2-lane
//     kernel, no spilled ymm register in the 4-lane one), at -O2 and -O3.
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
// Nearest-centroid assignment has one kernel template at every width,
// instantiated twice over the centroid groups a CentroidTable holds: L
// centroids per vector, one per lane, so the adds of L distance chains go
// in one packed instruction and each lane still adds in dim order.  L = 2
// is the SSE2 kernel every x86-64 CPU runs; L = 4 is compiled for AVX2
// (a target attribute on one function, so the build stays portable) and
// runs where the CPU has it.  nearest_centroid_lanes() picks the width
// once per process; nothing sets it, and SMART_NATIVE does not change it.
// Both widths give the reference scan's keys bit for bit.  No scan exits
// early or is seeded by the previous point's winner: a per-dim exit test
// would be control flow in the dim loop, and summing one chain at a time
// leaves the adds scalar however the subtractions are packed.  The 4-lane
// kernel takes 0.33-0.56 of the 2-lane kernel's time at every width from 2
// to 128: per point-dim-centroid 0.14-0.23 against 0.28-0.45 ns at d = 64
// (Fig 5, Fig 6, perfbench kmeans_d64), 0.26-0.42 against 0.54-0.83 ns at
// d = 4 (Heat3D in Fig 1, 7 and 8); one pinned thread, 6,144 points,
// k = 8, GCC 12, -O2 and -O3, shared 4-CPU Xeon (DESIGN.md §4.8).
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

/// L doubles in one vector register, L centroids per group: L = 2 is an
/// SSE2 register (baseline x86-64), L = 4 an AVX2 one.  Plain GCC vector
/// extensions, no intrinsics header; the arithmetic is lane-wise, so each
/// lane is its own IEEE chain.  A CentroidTable stores its groups as plain
/// doubles, which both types may alias: outside AVX code GCC aligns a
/// 32-byte vector type to 16 bytes only, so a std::vector of it would not
/// be 32-byte aligned either, and one of an aligned(8) typedef trips
/// -Wignored-attributes.  The doubles are 16-byte aligned, as operator new
/// aligns any block of 16 bytes or more, so a 2-lane group is aligned and
/// SSE2 takes it as a memory operand; a 4-lane group is not 32-byte
/// aligned, so its type is loaded through at 8-byte alignment.
template <std::size_t L>
struct lane_vec;
template <>
struct lane_vec<2> {
  using type = double __attribute__((vector_size(16), may_alias));
};
template <>
struct lane_vec<4> {
  using type = double __attribute__((vector_size(32), aligned(8), may_alias));
};

// Every template below is always_inline, so it is compiled inside the
// entry function that calls it: the SSE2 one, or the one compiled for
// AVX2.  An out-of-line copy would be compiled for baseline x86-64.

/// One tile of the L-lane kernel: P points against Q consecutive centroid
/// groups starting at group q0, one pass over the dims.  Each (point,
/// group) accumulator holds L independent chains, one per lane, and each
/// lane adds (x[d] - c[d])^2 in dim order: the same expression and order as
/// the serial reference scan (ref::kmeans), so every distance is
/// bit-identical.  The tile then folds its distances into the running
/// argmin in index order (lanes 0 to L - 1 within a group, groups in
/// order) with a strict <, so the lowest index wins ties.
template <std::size_t L, std::size_t P, std::size_t Q, class T>
[[gnu::always_inline]] inline void lane_tile(const T* pts, std::size_t dims,
                                             const double* groups, std::size_t q0,
                                             double* best, int* key) {
  // The P x Q accumulators, and the P best/key slots, only live in
  // registers once every loop over P, Q or L is unrolled, the folds
  // included, which -O2 (the default RelWithDebInfo build) does not do on
  // its own: a rolled loop indexes acc[p][q] through the stack.  The
  // pragmas unroll them at every optimization level; check.sh's vec probe
  // fails on a packed store to the stack in this kernel at -O2 and -O3.
  using vec = typename lane_vec<L>::type;
  vec acc[P][Q] = {};
  const double* tile = groups + q0 * dims * L;
  for (std::size_t d = 0; d < dims; ++d) {
    vec c[Q];
#pragma GCC unroll 8
    for (std::size_t q = 0; q < Q; ++q) {
      c[q] = *reinterpret_cast<const vec*>(tile + (q * dims + d) * L);
    }
#pragma GCC unroll 8
    for (std::size_t p = 0; p < P; ++p) {
      const double x = static_cast<double>(pts[p * dims + d]);
#pragma GCC unroll 8
      for (std::size_t q = 0; q < Q; ++q) {
        const vec e = x - c[q];
        acc[p][q] += e * e;
      }
    }
  }
#pragma GCC unroll 8
  for (std::size_t p = 0; p < P; ++p) {
#pragma GCC unroll 8
    for (std::size_t q = 0; q < Q; ++q) {
      const int c0 = static_cast<int>(L * (q0 + q));
#pragma GCC unroll 4
      for (std::size_t l = 0; l < L; ++l) {
        const double dist = acc[p][q][l];
        const bool win = dist < best[p];
        key[p] = win ? c0 + static_cast<int>(l) : key[p];
        best[p] = win ? dist : best[p];
      }
    }
  }
}

/// P points against every group, Q groups per pass over the dims and the
/// leftover groups one at a time.
template <std::size_t L, std::size_t P, std::size_t Q, class T>
[[gnu::always_inline]] inline void lane_points(const T* pts, std::size_t dims,
                                               const double* groups, std::size_t num_groups,
                                               int* keys) {
  double best[P];
  int key[P];
#pragma GCC unroll 8
  for (std::size_t p = 0; p < P; ++p) {
    best[p] = std::numeric_limits<double>::max();
    key[p] = 0;
  }
  std::size_t q = 0;
  for (; q + Q <= num_groups; q += Q) lane_tile<L, P, Q>(pts, dims, groups, q, best, key);
  for (; q < num_groups; ++q) lane_tile<L, P, 1>(pts, dims, groups, q, best, key);
#pragma GCC unroll 8
  for (std::size_t p = 0; p < P; ++p) keys[p] = key[p];
}

/// n points, P at a time, and the leftover points (n % P, and the n = 1
/// calls from KMeans::gen_key) one at a time: a one-point tile sums each
/// distance in the same order, so batched and scalar keys are
/// bit-identical.
template <std::size_t L, std::size_t P, std::size_t Q, class T>
[[gnu::always_inline]] inline void lane_scan(const T* pts, std::size_t n, std::size_t dims,
                                             const double* groups, std::size_t num_groups,
                                             int* keys) {
  std::size_t p = 0;
  for (; p + P <= n; p += P) {
    lane_points<L, P, Q>(pts + p * dims, dims, groups, num_groups, keys + p);
  }
  for (; p < n; ++p) lane_points<L, 1, Q>(pts + p * dims, dims, groups, num_groups, keys + p);
}

/// The 2-lane kernel, baseline SSE2: two centroids per vector.  The tile
/// shape comes from the group count so that about eight accumulators are
/// in flight: 2 points x 4 groups from 4 groups up, 4 x 2 for 2-3 groups,
/// 8 x 1 for one.
template <class T>
inline void nearest_centroids_sse2(const T* pts, std::size_t n, std::size_t dims,
                                   const double* groups, std::size_t num_groups, int* keys) {
  if (num_groups >= 4) {
    lane_scan<2, 2, 4>(pts, n, dims, groups, num_groups, keys);
  } else if (num_groups >= 2) {
    lane_scan<2, 4, 2>(pts, n, dims, groups, num_groups, keys);
  } else {
    lane_scan<2, 8, 1>(pts, n, dims, groups, num_groups, keys);
  }
}

/// The 4-lane kernel, compiled for AVX2 (without FMA, which the build's
/// -ffp-contract=off would not use anyway): four centroids per vector, in
/// tiles of 8 points x 1 group at every group count.  Tiles of 2 groups (4
/// x 2, 2 x 2) were no faster at d = 64 and up to twice as slow at d = 4
/// (DESIGN.md §4.8).
template <class T>
__attribute__((target("avx2"))) inline void nearest_centroids_avx2(
    const T* pts, std::size_t n, std::size_t dims, const double* groups,
    std::size_t num_groups, int* keys) {
  lane_scan<4, 8, 1>(pts, n, dims, groups, num_groups, keys);
}

/// The kernel of `lanes` lanes over groups of that many centroids, every
/// distance scanned to the end (no exit, no seeding).
template <class T>
inline void scan_groups(std::size_t lanes, const T* pts, std::size_t n, std::size_t dims,
                        const double* groups, std::size_t num_groups, int* keys) {
  if (lanes == 4) {
    nearest_centroids_avx2(pts, n, dims, groups, num_groups, keys);
  } else {
    nearest_centroids_sse2(pts, n, dims, groups, num_groups, keys);
  }
}

/// The k centroids (k rows of `dims` doubles) in groups of `lanes`, the
/// layout the lanes-wide kernel reads.  Group g holds centroids
/// g * lanes, ..., g * lanes + lanes - 1 dim-major: [c0[0], c1[0], ...,
/// c0[1], c1[1], ...].  A tail group that k does not fill is padded with
/// copies of centroid k - 1: each ties it exactly and loses on index, so
/// no key >= k is returned.
inline std::vector<double> centroid_groups(const double* rows, std::size_t k, std::size_t dims,
                                           std::size_t lanes) {
  const std::size_t num_groups = (k + lanes - 1) / lanes;
  std::vector<double> groups(num_groups * lanes * dims);
  for (std::size_t c = 0; c < num_groups * lanes; ++c) {
    const double* row = rows + (c < k ? c : k - 1) * dims;
    double* out = groups.data() + c / lanes * lanes * dims + c % lanes;
    for (std::size_t d = 0; d < dims; ++d) out[d * lanes] = row[d];
  }
  return groups;
}

}  // namespace detail

/// The width of the nearest-centroid kernel on this CPU, chosen once per
/// process and the one place it is chosen: 4 lanes where the CPU has AVX2,
/// 2 (SSE2, baseline x86-64) otherwise.  Nothing sets it; every build
/// carries both kernels.
inline std::size_t nearest_centroid_lanes() {
  static const std::size_t lanes = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") ? std::size_t{4} : std::size_t{2};
  }();
  return lanes;
}

/// The k centroids in groups of nearest_centroid_lanes(), the layout
/// nearest_centroids scans (detail::centroid_groups).
class CentroidTable {
 public:
  CentroidTable() = default;

  /// `rows` holds k rows of `dims` doubles.
  CentroidTable(const double* rows, std::size_t k, std::size_t dims)
      : k_(k),
        dims_(dims),
        lanes_(nearest_centroid_lanes()),
        groups_(detail::centroid_groups(rows, k, dims, lanes_)) {}

 private:
  template <class T>
  friend void nearest_centroids(const T* pts, std::size_t n, const CentroidTable& table,
                                int* keys);

  std::size_t k_ = 0;
  std::size_t dims_ = 0;
  std::size_t lanes_ = 2;
  std::vector<double> groups_;
};

/// Nearest centroid of each of n points of the table's width (row-major):
/// the lowest index among the smallest squared distances, from the kernel
/// of the table's lane count at every width.
template <class T>
inline void nearest_centroids(const T* pts, std::size_t n, const CentroidTable& table,
                              int* keys) {
  detail::scan_groups(table.lanes_, pts, n, table.dims_, table.groups_.data(),
                      (table.k_ + table.lanes_ - 1) / table.lanes_, keys);
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
