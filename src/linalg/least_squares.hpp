#pragma once

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace mtdgrid::linalg {

/// Ordinary least squares `min_x ||A x - b||` via Householder QR.
/// Requires A to have full column rank. Throws std::runtime_error otherwise.
///
/// Weighted least squares lives in `estimation::StateEstimator` (one
/// sparse Gram factor); this dense QR solve of the row-scaled problem
/// W^{1/2} A is its differential oracle in the test suite.
Vector solve_least_squares(const Matrix& a, const Vector& b);

}  // namespace mtdgrid::linalg
