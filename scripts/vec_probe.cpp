// Vectorization probe for the batched reduction kernels (check.sh).
//
// This TU exists only to be compiled with -fopt-info-vec-optimized:
// check.sh asserts the compiler reports "loop vectorized" on every loop
// that batch_kernels.h marks with a `// vec-probe: must vectorize`
// comment, for the kernels instantiated here, and that both disassembled
// nearest-centroid kernels do their distance arithmetic in packed
// instructions and keep their accumulators in registers: the 2-lane kernel
// in SSE2 xmm registers, the 4-lane one in AVX2 ymm registers, with no
// fused multiply-add.  If a change to batch_kernels.h silently breaks
// vectorization (a reintroduced libm call, a loop-carried dependence, an
// aliasing hazard, lane accumulators split back into scalars, a tile loop
// left rolled so its accumulators spill to the stack, a 4-lane function
// compiled without its AVX2 target), the probe fails the build matrix
// rather than letting the regression ride to a bench diff weeks later.
//
// Never linked into anything; compiled standalone with the build's
// -ffp-contract=off at -O3 (the loop reports and the disassembly) and at
// -O2 (the disassembly; the default RelWithDebInfo level):
//   g++ -O3 -std=c++20 -ffp-contract=off -Isrc -fopt-info-vec-optimized -c scripts/vec_probe.cpp
//   g++ -O2 -std=c++20 -ffp-contract=off -Isrc -c scripts/vec_probe.cpp
#include "analytics/batch_kernels.h"

namespace smart::analytics::kernels {

// The stride-1 and strided bucketing loops, over both element types the
// apps instantiate.
template void histogram_keys<double>(const double*, std::size_t, std::size_t, double, double,
                                     int, int*);
template void histogram_keys<float>(const float*, std::size_t, std::size_t, double, double,
                                    int, int*);

// Nearest-centroid assignment's two kernels, each the one kernel at every
// width on its CPUs (d = 4 in Fig 1, 7 and 8, d = 64 in Fig 5 and Fig 6):
// the 2-lane kernel (SSE2) and the 4-lane kernel (compiled for AVX2).
// Their arithmetic is explicit vector code, which draws no "loop
// vectorized" report; check.sh disassembles these instantiations instead
// and requires packed subtract, multiply and add on the width's registers,
// no scalar add, no fused multiply-add and no packed store to the stack.
template void detail::nearest_centroids_sse2<double>(const double*, std::size_t, std::size_t,
                                                     const double*, std::size_t, int*);
template void detail::nearest_centroids_avx2<double>(const double*, std::size_t, std::size_t,
                                                     const double*, std::size_t, int*);

// K-means sums: the fixed widths' point loop and the generic dim loop.
template void accumulate_points<double>(const double*, std::size_t, std::size_t, double*);

// Grid aggregation's running sum (vectorized in order: no reassociation).
template double accumulate_sum<double>(const double*, std::size_t, double);

}  // namespace smart::analytics::kernels
