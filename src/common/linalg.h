// Small dense linear algebra: just enough to derive Savitzky–Golay
// smoothing coefficients (least-squares polynomial fit over a window) and
// to support the analytics reference implementations in tests.
#pragma once

#include <cstddef>
#include <vector>

namespace smart {

/// Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<double> data_;
};

/// Solves A x = b by Gaussian elimination with partial pivoting.
/// Throws std::runtime_error on a (numerically) singular system.
std::vector<double> solve_linear_system(Matrix a, std::vector<double> b);

/// A^T * A for a (possibly rectangular) design matrix.
Matrix gram(const Matrix& a);

/// Savitzky–Golay convolution coefficients for a centered window.
///
/// window must be odd; poly_order < window.  The returned vector c has
/// `window` entries such that the smoothed value at position i is
/// sum_j c[j] * x[i - window/2 + j]  — the least-squares fit of a
/// poly_order polynomial over the window, evaluated at the center
/// (Schafer, IEEE SPM 2011, the paper's reference [39]).
std::vector<double> savitzky_golay_coefficients(int window, int poly_order);

}  // namespace smart
