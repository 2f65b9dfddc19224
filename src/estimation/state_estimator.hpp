#pragma once

#include "linalg/matrix.hpp"
#include "linalg/sparse_cholesky.hpp"
#include "linalg/sparse_matrix.hpp"
#include "linalg/vector.hpp"

namespace mtdgrid::estimation {

/// Weighted-least-squares DC state estimator (paper Section III):
///
///   theta_hat = (H^T W H)^{-1} H^T W z,
///
/// with W = diag(1/sigma_i^2).
///
/// One representation and one code path for every H: the measurement
/// matrix is held in CSR (a dense `Matrix` is compressed with
/// `SparseMatrix::from_dense`, so dense and CSR input give bit-identical
/// results), the weighted Gram matrix is factored once at construction
/// with the minimum-degree `linalg::SparseCholesky`, `estimate` is one
/// factor solve and `residual` is z - H theta_hat. The M x M residual
/// operator (I - K) is never formed. DESIGN.md "One state estimator"
/// documents the differential oracle that pins these results.
class StateEstimator {
 public:
  /// Builds the estimator for measurement matrix `h` (M x n, full column
  /// rank) with homogeneous sensor noise standard deviation `sigma`.
  StateEstimator(const linalg::Matrix& h, double sigma);

  /// Builds the estimator with per-sensor noise standard deviations.
  StateEstimator(const linalg::Matrix& h, linalg::Vector sigmas);

  /// CSR input, homogeneous noise `sigma`.
  StateEstimator(linalg::SparseMatrix h, double sigma);

  /// CSR input, per-sensor noise standard deviations.
  StateEstimator(linalg::SparseMatrix h, linalg::Vector sigmas);

  std::size_t num_measurements() const { return h_.rows(); }
  std::size_t state_dimension() const { return h_.cols(); }

  /// Degrees of freedom of the residual: M - n.
  std::size_t residual_dof() const {
    return num_measurements() - state_dimension();
  }

  /// Per-sensor noise standard deviations.
  const linalg::Vector& sigmas() const { return sigmas_; }

  /// WLS state estimate for measurement vector `z`.
  linalg::Vector estimate(const linalg::Vector& z) const;

  /// Raw residual vector r = z - H theta_hat.
  linalg::Vector residual(const linalg::Vector& z) const;

  /// Noise-normalized residual norm || W^{1/2} (z - H theta_hat) ||.
  /// With homogeneous sigma this equals ||z - H theta_hat|| / sigma; its
  /// square is chi-square distributed with `residual_dof()` degrees of
  /// freedom under attack-free Gaussian noise.
  double normalized_residual_norm(const linalg::Vector& z) const;

  /// Norm of the *attack component* of the normalized residual,
  /// || W^{1/2} (I - K) a ||. This is the paper's ||r'_a|| (Appendix B)
  /// and the square root of the noncentral-chi-square noncentrality.
  double attack_residual_norm(const linalg::Vector& attack) const;

 private:
  linalg::SparseMatrix h_;
  linalg::Vector sigmas_;
  linalg::Vector weights_;       // 1 / sigma_i^2
  linalg::SparseCholesky gram_;  // factor of H^T W H
};

}  // namespace mtdgrid::estimation
