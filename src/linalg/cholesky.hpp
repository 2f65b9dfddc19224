#pragma once

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace mtdgrid::linalg {

/// Dense Cholesky factorization `A = L L^T` of a symmetric
/// positive-definite matrix: the reference the `SparseCholesky` property
/// tests compare against (production solves use `SparseCholesky`).
class CholeskyDecomposition {
 public:
  /// Factorizes the symmetric matrix `a`; only the lower triangle is read.
  explicit CholeskyDecomposition(const Matrix& a);

  /// True when the matrix was not positive definite within tolerance.
  bool failed() const { return failed_; }

  /// Solves `A x = b`. Requires `!failed()`.
  Vector solve(const Vector& b) const;

 private:
  Matrix l_;
  bool failed_ = false;
};

}  // namespace mtdgrid::linalg
