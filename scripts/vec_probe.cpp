// Vectorization probe for the batched reduction kernels (check.sh).
//
// This TU exists only to be compiled with -fopt-info-vec-optimized:
// check.sh asserts the compiler reports "loop vectorized" on every loop
// that batch_kernels.h marks with a `// vec-probe: must vectorize`
// comment, for the kernels instantiated here, and that the disassembled
// pair kernel does its distance arithmetic in packed SSE2 instructions
// and keeps its accumulators in registers.  If a change to batch_kernels.h
// silently breaks vectorization (a reintroduced libm call, a loop-carried
// dependence, an aliasing hazard, pair accumulators split back into
// scalars, a tile loop left rolled so its accumulators spill to the
// stack), the probe fails the build matrix rather than letting the
// regression ride to a bench diff weeks later.
//
// Never linked into anything; compiled standalone at -O3 (the loop reports
// and the disassembly) and at -O2 (the disassembly; the default
// RelWithDebInfo level):
//   g++ -O3 -std=c++20 -Isrc -fopt-info-vec-optimized -c scripts/vec_probe.cpp
//   g++ -O2 -std=c++20 -Isrc -c scripts/vec_probe.cpp
#include "analytics/batch_kernels.h"

namespace smart::analytics::kernels {

// The stride-1 and strided bucketing loops, over both element types the
// apps instantiate.
template void histogram_keys<double>(const double*, std::size_t, std::size_t, double, double,
                                     int, int*);
template void histogram_keys<float>(const float*, std::size_t, std::size_t, double, double,
                                    int, int*);

// Nearest-centroid assignment's pair kernel, the one kernel at every width
// (d = 4 in Fig 1, 7 and 8, d = 64 in Fig 5 and Fig 6).  Its arithmetic is
// explicit two-lane vector code, which draws no "loop vectorized" report;
// check.sh disassembles this instantiation instead and requires packed
// subtract, multiply and add, no scalar add and no packed store to the
// stack.
template void detail::nearest_centroids_pairs<double>(const double*, std::size_t, std::size_t,
                                                      const detail::pair_vec*, std::size_t,
                                                      int*);

// K-means sums: the fixed widths' point loop and the generic dim loop.
template void accumulate_points<double>(const double*, std::size_t, std::size_t, double*);

// Grid aggregation's running sum (vectorized in order: no reassociation).
template double accumulate_sum<double>(const double*, std::size_t, double);

}  // namespace smart::analytics::kernels
