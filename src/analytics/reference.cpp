#include "analytics/reference.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/linalg.h"

namespace smart::analytics::ref {

namespace {
int clamp_bucket(double x, double min, double width, int buckets) {
  const int b = static_cast<int>(std::floor((x - min) / width));
  return b < 0 ? 0 : (b >= buckets ? buckets - 1 : b);
}
}  // namespace

std::vector<double> grid_aggregation(const double* data, std::size_t len, std::size_t grid_size) {
  const std::size_t grids = (len + grid_size - 1) / grid_size;
  std::vector<double> out(grids, 0.0);
  for (std::size_t g = 0; g < grids; ++g) {
    const std::size_t lo = g * grid_size;
    const std::size_t hi = std::min(lo + grid_size, len);
    double sum = 0.0;
    for (std::size_t i = lo; i < hi; ++i) sum += data[i];
    out[g] = sum / static_cast<double>(hi - lo);
  }
  return out;
}

std::vector<std::size_t> histogram(const double* data, std::size_t len, double min, double max,
                                   int num_buckets) {
  const double width = (max - min) / num_buckets;
  std::vector<std::size_t> counts(static_cast<std::size_t>(num_buckets), 0);
  for (std::size_t i = 0; i < len; ++i) {
    counts[static_cast<std::size_t>(clamp_bucket(data[i], min, width, num_buckets))] += 1;
  }
  return counts;
}

double mutual_information(const double* pairs, std::size_t num_pairs, double min, double max,
                          int buckets_x, int buckets_y) {
  const double wx = (max - min) / buckets_x;
  const double wy = (max - min) / buckets_y;
  std::vector<double> joint(static_cast<std::size_t>(buckets_x * buckets_y), 0.0);
  for (std::size_t p = 0; p < num_pairs; ++p) {
    const int ix = clamp_bucket(pairs[2 * p], min, wx, buckets_x);
    const int iy = clamp_bucket(pairs[2 * p + 1], min, wy, buckets_y);
    joint[static_cast<std::size_t>(ix * buckets_y + iy)] += 1.0;
  }
  std::vector<double> px(static_cast<std::size_t>(buckets_x), 0.0);
  std::vector<double> py(static_cast<std::size_t>(buckets_y), 0.0);
  double total = 0.0;
  for (int i = 0; i < buckets_x; ++i) {
    for (int j = 0; j < buckets_y; ++j) {
      const double c = joint[static_cast<std::size_t>(i * buckets_y + j)];
      px[static_cast<std::size_t>(i)] += c;
      py[static_cast<std::size_t>(j)] += c;
      total += c;
    }
  }
  if (total == 0.0) return 0.0;
  double mi = 0.0;
  for (int i = 0; i < buckets_x; ++i) {
    for (int j = 0; j < buckets_y; ++j) {
      const double c = joint[static_cast<std::size_t>(i * buckets_y + j)];
      if (c == 0.0) continue;
      const double pxy = c / total;
      mi += pxy * std::log(pxy / ((px[static_cast<std::size_t>(i)] / total) *
                                  (py[static_cast<std::size_t>(j)] / total)));
    }
  }
  return mi;
}

std::vector<double> logistic_regression(const double* records, std::size_t num_records,
                                        std::size_t dim, int iterations, double learning_rate,
                                        const std::vector<double>& init_weights) {
  std::vector<double> w = init_weights.empty() ? std::vector<double>(dim, 0.0) : init_weights;
  if (w.size() != dim) throw std::invalid_argument("ref::logistic_regression: bad init size");
  const std::size_t stride = dim + 1;
  std::vector<double> grad(dim, 0.0);
  for (int it = 0; it < iterations; ++it) {
    std::fill(grad.begin(), grad.end(), 0.0);
    for (std::size_t r = 0; r < num_records; ++r) {
      const double* x = records + r * stride;
      double dot = 0.0;
      for (std::size_t d = 0; d < dim; ++d) dot += w[d] * x[d];
      const double residual = 1.0 / (1.0 + std::exp(-dot)) - x[dim];
      for (std::size_t d = 0; d < dim; ++d) grad[d] += residual * x[d];
    }
    if (num_records > 0) {
      for (std::size_t d = 0; d < dim; ++d) {
        w[d] -= learning_rate * grad[d] / static_cast<double>(num_records);
      }
    }
  }
  return w;
}

std::vector<double> kmeans(const double* points, std::size_t num_points, std::size_t dims,
                           std::size_t k, int iterations,
                           const std::vector<double>& init_centroids) {
  if (init_centroids.size() != k * dims) {
    throw std::invalid_argument("ref::kmeans: bad init centroid size");
  }
  std::vector<double> centroids = init_centroids;
  std::vector<double> sums(k * dims, 0.0);
  std::vector<std::size_t> sizes(k, 0);
  for (int it = 0; it < iterations; ++it) {
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(sizes.begin(), sizes.end(), 0);
    for (std::size_t p = 0; p < num_points; ++p) {
      const double* x = points + p * dims;
      std::size_t best = 0;
      double best_dist = std::numeric_limits<double>::max();
      for (std::size_t c = 0; c < k; ++c) {
        double dist = 0.0;
        for (std::size_t d = 0; d < dims; ++d) {
          const double diff = x[d] - centroids[c * dims + d];
          dist += diff * diff;
        }
        if (dist < best_dist) {
          best_dist = dist;
          best = c;
        }
      }
      for (std::size_t d = 0; d < dims; ++d) sums[best * dims + d] += x[d];
      sizes[best] += 1;
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (sizes[c] == 0) continue;
      for (std::size_t d = 0; d < dims; ++d) {
        centroids[c * dims + d] = sums[c * dims + d] / static_cast<double>(sizes[c]);
      }
    }
  }
  return centroids;
}

std::vector<double> moving_average(const double* data, std::size_t len, std::size_t window) {
  const std::size_t half = window / 2;
  std::vector<double> out(len, 0.0);
  for (std::size_t i = 0; i < len; ++i) {
    const std::size_t lo = i >= half ? i - half : 0;
    const std::size_t hi = std::min(i + half, len - 1);
    double sum = 0.0;
    for (std::size_t j = lo; j <= hi; ++j) sum += data[j];
    out[i] = sum / static_cast<double>(hi - lo + 1);
  }
  return out;
}

std::vector<double> moving_median(const double* data, std::size_t len, std::size_t window) {
  const std::size_t half = window / 2;
  std::vector<double> out(len, 0.0);
  std::vector<double> buf;
  for (std::size_t i = 0; i < len; ++i) {
    const std::size_t lo = i >= half ? i - half : 0;
    const std::size_t hi = std::min(i + half, len - 1);
    buf.assign(data + lo, data + hi + 1);
    const std::size_t mid = buf.size() / 2;
    std::nth_element(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(mid), buf.end());
    if (buf.size() % 2 == 1) {
      out[i] = buf[mid];
    } else {
      const double hi_mid = buf[mid];
      const double lo_mid =
          *std::max_element(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(mid));
      out[i] = 0.5 * (lo_mid + hi_mid);
    }
  }
  return out;
}

std::vector<double> kernel_density(const double* data, std::size_t len, std::size_t window,
                                   double h) {
  constexpr double kSqrt2Pi = 2.5066282746310002;
  const std::size_t half = window / 2;
  std::vector<double> out(len, 0.0);
  for (std::size_t i = 0; i < len; ++i) {
    const std::size_t lo = i >= half ? i - half : 0;
    const std::size_t hi = std::min(i + half, len - 1);
    double sum = 0.0;
    for (std::size_t j = lo; j <= hi; ++j) {
      const double u = (data[j] - data[i]) / h;
      sum += std::exp(-0.5 * u * u);
    }
    out[i] = sum / (static_cast<double>(hi - lo + 1) * h * kSqrt2Pi);
  }
  return out;
}

std::vector<double> savitzky_golay(const double* data, std::size_t len, int window,
                                   int poly_order) {
  const std::vector<double> c = smart::savitzky_golay_coefficients(window, poly_order);
  const std::size_t w = static_cast<std::size_t>(window);
  const std::size_t half = w / 2;
  std::vector<double> out(len, 0.0);
  if (len < w) return out;
  for (std::size_t i = half; i + half < len; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < w; ++j) acc += c[j] * data[i - half + j];
    out[i] = acc;
  }
  return out;
}

}  // namespace smart::analytics::ref
