#pragma once

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace mtdgrid::linalg {

/// LU factorization with partial pivoting of a square matrix: `P A = L U`.
///
/// Used for small general linear systems (the k x k `I + S` solve in
/// `mtd::SpaEvaluator::gamma`). Construction performs the factorization
/// once; `solve` can then be called repeatedly.
class LuDecomposition {
 public:
  /// Factorizes the square matrix `a`.
  explicit LuDecomposition(const Matrix& a);

  /// True when a pivot below `tolerance` was encountered (singular matrix).
  bool singular() const { return singular_; }

  /// Solves `A x = b`. Requires `!singular()`.
  Vector solve(const Vector& b) const;

  /// Solves `A X = B` column by column. Requires `!singular()`.
  Matrix solve(const Matrix& b) const;

 private:
  Matrix lu_;                   // packed L (unit diagonal) and U
  std::vector<std::size_t> p_;  // row permutation
  bool singular_ = false;
};

/// Convenience wrapper: solves `A x = b` for square non-singular `A`.
/// Throws std::runtime_error when `A` is singular.
Vector solve(const Matrix& a, const Vector& b);

/// Convenience wrapper: inverse of a square non-singular matrix.
/// Throws std::runtime_error when `A` is singular.
Matrix inverse(const Matrix& a);

}  // namespace mtdgrid::linalg
