#include "linalg/lu.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace mtdgrid::linalg {

namespace {
constexpr double kPivotTolerance = 1e-12;
}

LuDecomposition::LuDecomposition(const Matrix& a) : lu_(a), p_(a.rows()) {
  assert(a.rows() == a.cols() && "LU requires a square matrix");
  const std::size_t n = a.rows();
  std::iota(p_.begin(), p_.end(), std::size_t{0});

  // The loops index the row-major storage directly: the element accessor
  // is compiled out of line, and two calls per inner iteration made this
  // O(n^3) loop slow and its speed hostage to code placement.
  double* lu = lu_.data();
  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: bring the largest remaining |element| to (k, k).
    std::size_t pivot_row = k;
    double pivot_mag = std::abs(lu[k * n + k]);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double mag = std::abs(lu[i * n + k]);
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = i;
      }
    }
    if (pivot_mag < kPivotTolerance) {
      singular_ = true;
      continue;
    }
    double* row_k = lu + k * n;
    if (pivot_row != k) {
      std::swap_ranges(row_k, row_k + n, lu + pivot_row * n);
      std::swap(p_[k], p_[pivot_row]);
    }
    for (std::size_t i = k + 1; i < n; ++i) {
      double* row_i = lu + i * n;
      const double factor = row_i[k] / row_k[k];
      row_i[k] = factor;
      for (std::size_t j = k + 1; j < n; ++j) row_i[j] -= factor * row_k[j];
    }
  }
}

Vector LuDecomposition::solve(const Vector& b) const {
  assert(!singular_ && "cannot solve with a singular factorization");
  assert(b.size() == lu_.rows());
  const std::size_t n = lu_.rows();
  const double* lu = lu_.data();

  // Forward substitution with permuted right-hand side: L y = P b.
  Vector y(n);
  double* yd = y.data().data();
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = lu + i * n;
    double acc = b[p_[i]];
    for (std::size_t j = 0; j < i; ++j) acc -= row[j] * yd[j];
    yd[i] = acc;
  }
  // Back substitution: U x = y.
  Vector x(n);
  double* xd = x.data().data();
  for (std::size_t ii = n; ii-- > 0;) {
    const double* row = lu + ii * n;
    double acc = yd[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= row[j] * xd[j];
    xd[ii] = acc / row[ii];
  }
  return x;
}

Matrix LuDecomposition::solve(const Matrix& b) const {
  assert(b.rows() == lu_.rows());
  Matrix x(b.rows(), b.cols());
  for (std::size_t j = 0; j < b.cols(); ++j) x.set_col(j, solve(b.col(j)));
  return x;
}

Vector solve(const Matrix& a, const Vector& b) {
  LuDecomposition lu(a);
  if (lu.singular()) throw std::runtime_error("linalg::solve: singular matrix");
  return lu.solve(b);
}

Matrix inverse(const Matrix& a) {
  LuDecomposition lu(a);
  if (lu.singular())
    throw std::runtime_error("linalg::inverse: singular matrix");
  return lu.solve(Matrix::identity(a.rows()));
}

}  // namespace mtdgrid::linalg
