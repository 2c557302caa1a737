#include "common/linalg.h"

#include <cmath>
#include <stdexcept>

namespace smart {

std::vector<double> solve_linear_system(Matrix a, std::vector<double> b) {
  const std::size_t n = a.rows();
  if (a.cols() != n || b.size() != n) {
    throw std::invalid_argument("solve_linear_system: dimension mismatch");
  }
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivoting: bring the largest remaining entry to the diagonal.
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(a(r, col)) > std::abs(a(pivot, col))) pivot = r;
    }
    if (std::abs(a(pivot, col)) < 1e-12) {
      throw std::runtime_error("solve_linear_system: singular matrix");
    }
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a(pivot, c), a(col, c));
      std::swap(b[pivot], b[col]);
    }
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = a(r, col) / a(col, col);
      if (f == 0.0) continue;
      for (std::size_t c = col; c < n; ++c) a(r, c) -= f * a(col, c);
      b[r] -= f * b[col];
    }
  }
  std::vector<double> x(n, 0.0);
  for (std::size_t ri = n; ri-- > 0;) {
    double s = b[ri];
    for (std::size_t c = ri + 1; c < n; ++c) s -= a(ri, c) * x[c];
    x[ri] = s / a(ri, ri);
  }
  return x;
}

Matrix gram(const Matrix& a) {
  Matrix g(a.cols(), a.cols());
  for (std::size_t i = 0; i < a.cols(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      double s = 0.0;
      for (std::size_t r = 0; r < a.rows(); ++r) s += a(r, i) * a(r, j);
      g(i, j) = s;
    }
  }
  return g;
}

std::vector<double> savitzky_golay_coefficients(int window, int poly_order) {
  if (window <= 0 || window % 2 == 0) {
    throw std::invalid_argument("savitzky_golay_coefficients: window must be odd and positive");
  }
  if (poly_order < 0 || poly_order >= window) {
    throw std::invalid_argument("savitzky_golay_coefficients: need 0 <= order < window");
  }
  const int half = window / 2;
  const auto terms = static_cast<std::size_t>(poly_order + 1);
  // Design matrix V: row per window offset, column per monomial power.
  Matrix v(static_cast<std::size_t>(window), terms);
  for (int r = 0; r < window; ++r) {
    double t = 1.0;
    for (std::size_t c = 0; c < terms; ++c) {
      v(static_cast<std::size_t>(r), c) = t;
      t *= static_cast<double>(r - half);
    }
  }
  // The smoothed center value is e0^T (V^T V)^-1 V^T x, so the coefficient
  // for offset r is row 0 of the pseudo-inverse: solve (V^T V) a = e0 and
  // take c[r] = sum_k a[k] * V[r][k].
  Matrix g = gram(v);
  std::vector<double> e0(terms, 0.0);
  e0[0] = 1.0;
  const std::vector<double> a = solve_linear_system(g, e0);
  std::vector<double> coeff(static_cast<std::size_t>(window), 0.0);
  for (int r = 0; r < window; ++r) {
    double s = 0.0;
    for (std::size_t k = 0; k < terms; ++k) s += a[k] * v(static_cast<std::size_t>(r), k);
    coeff[static_cast<std::size_t>(r)] = s;
  }
  return coeff;
}

}  // namespace smart
