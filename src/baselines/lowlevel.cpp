#include "baselines/lowlevel.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace smart::baselines {

namespace {
/// Contiguous split [begin, end) of n items for worker w of nw.
std::pair<std::size_t, std::size_t> split(std::size_t n, int nw, int w) {
  const std::size_t base = n / static_cast<std::size_t>(nw);
  const std::size_t extra = n % static_cast<std::size_t>(nw);
  const auto uw = static_cast<std::size_t>(w);
  const std::size_t begin = uw * base + std::min(uw, extra);
  return {begin, begin + base + (uw < extra ? 1 : 0)};
}
}  // namespace

std::vector<double> lowlevel_kmeans(const double* points, std::size_t num_points,
                                    std::size_t dims, std::size_t k, int iterations,
                                    const std::vector<double>& init_centroids,
                                    ThreadPool& pool, simmpi::Communicator* comm) {
  if (init_centroids.size() != k * dims) {
    throw std::invalid_argument("lowlevel_kmeans: bad init centroid size");
  }
  std::vector<double> centroids = init_centroids;
  const int nw = pool.size();
  // Contiguous per-thread partials: k*dims sums then k counts, all in one
  // flat array so the global synchronization is a single allreduce.
  const std::size_t partial_len = k * dims + k;
  std::vector<double> partials(static_cast<std::size_t>(nw) * partial_len, 0.0);

  for (int it = 0; it < iterations; ++it) {
    std::fill(partials.begin(), partials.end(), 0.0);
    const double* critic_centroids = centroids.data();
    const auto busy = pool.parallel_region([&](int w) {
      double* mine = partials.data() + static_cast<std::size_t>(w) * partial_len;
      const auto [begin, end] = split(num_points, nw, w);
      for (std::size_t p = begin; p < end; ++p) {
        const double* x = points + p * dims;
        std::size_t best = 0;
        double best_dist = std::numeric_limits<double>::max();
        for (std::size_t c = 0; c < k; ++c) {
          double dist = 0.0;
          for (std::size_t d = 0; d < dims; ++d) {
            const double diff = x[d] - critic_centroids[c * dims + d];
            dist += diff * diff;
          }
          if (dist < best_dist) {
            best_dist = dist;
            best = c;
          }
        }
        for (std::size_t d = 0; d < dims; ++d) mine[best * dims + d] += x[d];
        mine[k * dims + best] += 1.0;
      }
    });
    if (comm != nullptr) comm->advance_region(busy);

    // Thread-local partials fold into one contiguous buffer ...
    std::vector<double> local(partial_len, 0.0);
    for (int w = 0; w < nw; ++w) {
      const double* mine = partials.data() + static_cast<std::size_t>(w) * partial_len;
      for (std::size_t i = 0; i < partial_len; ++i) local[i] += mine[i];
    }
    // ... and one allreduce synchronizes the iteration (MPI_Allreduce).
    if (comm != nullptr && comm->size() > 1) local = comm->allreduce_sum(local);

    for (std::size_t c = 0; c < k; ++c) {
      const double count = local[k * dims + c];
      if (count <= 0.0) continue;
      for (std::size_t d = 0; d < dims; ++d) centroids[c * dims + d] = local[c * dims + d] / count;
    }
  }
  return centroids;
}

std::vector<double> lowlevel_logreg(const double* records, std::size_t num_records,
                                    std::size_t dim, int iterations, double learning_rate,
                                    ThreadPool& pool, simmpi::Communicator* comm) {
  std::vector<double> w(dim, 0.0);
  const int nw = pool.size();
  const std::size_t stride = dim + 1;
  // grad per thread plus a count slot, contiguous for the single allreduce.
  const std::size_t partial_len = dim + 1;
  std::vector<double> partials(static_cast<std::size_t>(nw) * partial_len, 0.0);

  for (int it = 0; it < iterations; ++it) {
    std::fill(partials.begin(), partials.end(), 0.0);
    const double* weights = w.data();
    const auto busy = pool.parallel_region([&](int worker) {
      double* mine = partials.data() + static_cast<std::size_t>(worker) * partial_len;
      const auto [begin, end] = split(num_records, nw, worker);
      for (std::size_t r = begin; r < end; ++r) {
        const double* x = records + r * stride;
        double dot = 0.0;
        for (std::size_t d = 0; d < dim; ++d) dot += weights[d] * x[d];
        const double residual = 1.0 / (1.0 + std::exp(-dot)) - x[dim];
        for (std::size_t d = 0; d < dim; ++d) mine[d] += residual * x[d];
        mine[dim] += 1.0;
      }
    });
    if (comm != nullptr) comm->advance_region(busy);

    std::vector<double> local(partial_len, 0.0);
    for (int worker = 0; worker < nw; ++worker) {
      const double* mine = partials.data() + static_cast<std::size_t>(worker) * partial_len;
      for (std::size_t i = 0; i < partial_len; ++i) local[i] += mine[i];
    }
    if (comm != nullptr && comm->size() > 1) local = comm->allreduce_sum(local);

    const double count = local[dim];
    if (count > 0.0) {
      for (std::size_t d = 0; d < dim; ++d) w[d] -= learning_rate * local[d] / count;
    }
  }
  return w;
}

}  // namespace smart::baselines
