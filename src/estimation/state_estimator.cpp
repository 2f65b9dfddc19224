#include "estimation/state_estimator.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace mtdgrid::estimation {

namespace {

// Validates the model and returns the WLS weights 1 / sigma_i^2.
linalg::Vector checked_weights(const linalg::SparseMatrix& h,
                               const linalg::Vector& sigmas) {
  if (sigmas.size() != h.rows())
    throw std::invalid_argument("state estimator: sigma vector length");
  for (double s : sigmas)
    if (s <= 0.0)
      throw std::invalid_argument("state estimator: sigma must be positive");
  if (h.rows() <= h.cols())
    throw std::invalid_argument(
        "state estimator: needs more measurements than states");
  linalg::Vector weights(h.rows());
  for (std::size_t i = 0; i < h.rows(); ++i)
    weights[i] = 1.0 / (sigmas[i] * sigmas[i]);
  return weights;
}

linalg::SparseCholesky factor_gram(const linalg::SparseMatrix& h,
                                   const linalg::Vector& weights) {
  linalg::SparseCholesky gram(h.weighted_gram(weights));
  if (gram.failed())
    throw std::runtime_error(
        "state estimator: measurement matrix is rank deficient");
  return gram;
}

}  // namespace

StateEstimator::StateEstimator(const linalg::Matrix& h, double sigma)
    : StateEstimator(linalg::SparseMatrix::from_dense(h), sigma) {}

StateEstimator::StateEstimator(const linalg::Matrix& h, linalg::Vector sigmas)
    : StateEstimator(linalg::SparseMatrix::from_dense(h), std::move(sigmas)) {}

StateEstimator::StateEstimator(linalg::SparseMatrix h, double sigma)
    : h_(std::move(h)),
      sigmas_(h_.rows(), sigma),
      weights_(checked_weights(h_, sigmas_)),
      gram_(factor_gram(h_, weights_)) {}

StateEstimator::StateEstimator(linalg::SparseMatrix h, linalg::Vector sigmas)
    : h_(std::move(h)),
      sigmas_(std::move(sigmas)),
      weights_(checked_weights(h_, sigmas_)),
      gram_(factor_gram(h_, weights_)) {}

linalg::Vector StateEstimator::estimate(const linalg::Vector& z) const {
  assert(z.size() == num_measurements());
  return gram_.solve(h_.transpose_times(weights_.hadamard(z)));
}

linalg::Vector StateEstimator::residual(const linalg::Vector& z) const {
  return z - h_ * estimate(z);
}

double StateEstimator::normalized_residual_norm(
    const linalg::Vector& z) const {
  const linalg::Vector r = residual(z);
  double acc = 0.0;
  for (std::size_t i = 0; i < r.size(); ++i) {
    const double scaled = r[i] / sigmas_[i];
    acc += scaled * scaled;
  }
  return std::sqrt(acc);
}

double StateEstimator::attack_residual_norm(
    const linalg::Vector& attack) const {
  return normalized_residual_norm(attack);
}

}  // namespace mtdgrid::estimation
