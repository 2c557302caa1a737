// Vectorization probe for the batched reduction kernels (check.sh).
//
// This TU exists only to be compiled with -fopt-info-vec-optimized:
// check.sh asserts the compiler reports "loop vectorized" on every loop
// that batch_kernels.h marks with a `// vec-probe: must vectorize`
// comment, for the kernels instantiated here.  If a change to
// batch_kernels.h silently breaks auto-vectorization (a reintroduced libm
// call, an early exit in a distance loop, a loop-carried dependence, an
// aliasing hazard), the probe fails the build matrix rather than letting
// the regression ride to a bench diff weeks later.
//
// Never linked into anything; compiled standalone:
//   g++ -O3 -std=c++20 -Isrc -fopt-info-vec-optimized -c scripts/vec_probe.cpp
#include "analytics/batch_kernels.h"

namespace smart::analytics::kernels {

// The stride-1 and strided bucketing loops, over both element types the
// apps instantiate.
template void histogram_keys<double>(const double*, std::size_t, std::size_t, double, double,
                                     int, int*);
template void histogram_keys<float>(const float*, std::size_t, std::size_t, double, double,
                                    int, int*);

// Nearest-centroid assignment: the generic kernel's 4-point and 1-point
// dim loops (every width outside {2, 3, 4, 8}, d = 64 in Fig 5 and Fig 6).
template void nearest_centroids<double>(const double*, std::size_t, std::size_t, const double*,
                                        std::size_t, int*);

}  // namespace smart::analytics::kernels
