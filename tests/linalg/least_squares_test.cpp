#include "linalg/least_squares.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "estimation/state_estimator.hpp"
#include "stats/rng.hpp"
#include "test_util.hpp"

// Weighted least squares is served by estimation::StateEstimator (one
// sparse Gram factor); these tests pin its WLS properties against the
// dense QR `solve_least_squares`.
namespace mtdgrid::linalg {
namespace {

using estimation::StateEstimator;

// The estimator parameterizes W = diag(1 / sigma_i^2).
Vector sigmas_for(const Vector& weights) {
  Vector sigmas(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i)
    sigmas[i] = 1.0 / std::sqrt(weights[i]);
  return sigmas;
}

Vector wls(const Matrix& a, const Vector& weights, const Vector& b) {
  return StateEstimator(a, sigmas_for(weights)).estimate(b);
}

TEST(LeastSquaresTest, UniformWeightsMatchOls) {
  stats::Rng rng(1);
  const Matrix a = test::random_matrix(9, 4, rng);
  const Vector b = test::random_vector(9, rng);
  const Vector x_wls = wls(a, Vector(9, 1.0), b);
  const Vector x_ols = solve_least_squares(a, b);
  EXPECT_NEAR(max_abs_diff(x_wls, x_ols), 0.0, 1e-8);
}

TEST(LeastSquaresTest, RecoverExactSolution) {
  stats::Rng rng(2);
  const Matrix a = test::random_matrix(10, 3, rng);
  const Vector x_true = test::random_vector(3, rng);
  const Vector x = wls(a, Vector(10, 2.0), a * x_true);
  EXPECT_NEAR(max_abs_diff(x, x_true), 0.0, 1e-9);
}

TEST(LeastSquaresTest, WeightedResidualOrthogonality) {
  // WLS optimality: A^T W r = 0.
  stats::Rng rng(3);
  const Matrix a = test::random_matrix(8, 3, rng);
  const Vector b = test::random_vector(8, rng);
  Vector w(8);
  for (std::size_t i = 0; i < 8; ++i) w[i] = 0.5 + rng.uniform();
  const Vector x = wls(a, w, b);
  const Vector r = b - a * x;
  const Vector atwr = a.transpose_times(w.hadamard(r));
  EXPECT_NEAR(atwr.norm_inf(), 0.0, 1e-9);
}

TEST(LeastSquaresTest, HeavyWeightPullsFitTowardThatRow) {
  // Two inconsistent equations for one unknown: x = 0 and x = 1.
  Matrix a{{1.0}, {1.0}};
  Vector b{0.0, 1.0};
  const Vector balanced = wls(a, Vector{1.0, 1.0}, b);
  EXPECT_NEAR(balanced[0], 0.5, 1e-12);
  const Vector skewed = wls(a, Vector{1.0, 99.0}, b);
  EXPECT_NEAR(skewed[0], 0.99, 1e-12);
}

TEST(LeastSquaresTest, ThrowsOnRankDeficiency) {
  Matrix a(5, 2);
  for (std::size_t i = 0; i < 5; ++i) {
    a(i, 0) = 1.0;
    a(i, 1) = 3.0;
  }
  EXPECT_THROW(wls(a, Vector(5, 1.0), Vector(5, 1.0)), std::runtime_error);
}

// The hat matrix K = A (A^T W A)^{-1} A^T W is never formed; its
// properties show through the residual r(b) = (I - K) b.

TEST(HatMatrixTest, IsIdempotentProjection) {
  // K^2 = K  <=>  (I - K) is idempotent: r(r(b)) = r(b).
  stats::Rng rng(4);
  const Matrix a = test::random_matrix(7, 3, rng);
  Vector w(7);
  for (std::size_t i = 0; i < 7; ++i) w[i] = 1.0 + rng.uniform();
  const StateEstimator est(a, sigmas_for(w));
  const Vector b = test::random_vector(7, rng);
  const Vector r = est.residual(b);
  EXPECT_NEAR(max_abs_diff(est.residual(r), r), 0.0, 1e-8);
}

TEST(HatMatrixTest, FixesColumnSpace) {
  // K A = A: every column of A has a zero residual.
  stats::Rng rng(5);
  const Matrix a = test::random_matrix(8, 3, rng);
  const StateEstimator est(a, 1.0);
  for (std::size_t j = 0; j < a.cols(); ++j)
    EXPECT_NEAR(est.residual(a.col(j)).norm_inf(), 0.0, 1e-8);
}

TEST(HatMatrixTest, ResidualOperatorAnnihilatesColumnSpace) {
  // (I - K) H c == 0: exactly why a = Hc bypasses the BDD (paper App. A).
  stats::Rng rng(6);
  const Matrix h = test::random_matrix(9, 4, rng);
  const StateEstimator est(h, 0.5);
  const Vector c = test::random_vector(4, rng);
  EXPECT_NEAR(est.residual(h * c).norm_inf(), 0.0, 1e-8);
}

// Property: WLS solution minimizes the weighted residual against random
// competitor points.
class WlsOptimalityProperty : public ::testing::TestWithParam<int> {};

TEST_P(WlsOptimalityProperty, BeatsRandomCompetitors) {
  stats::Rng rng(GetParam() + 40);
  const Matrix a = test::random_matrix(10, 3, rng);
  const Vector b = test::random_vector(10, rng);
  Vector w(10);
  for (std::size_t i = 0; i < 10; ++i) w[i] = 0.1 + rng.uniform();
  const Vector x = wls(a, w, b);
  const auto weighted_ss = [&](const Vector& point) {
    const Vector r = b - a * point;
    return r.hadamard(r).dot(w);
  };
  const double best = weighted_ss(x);
  for (int trial = 0; trial < 20; ++trial) {
    const Vector competitor = x + test::random_vector(3, rng, 0.3);
    EXPECT_LE(best, weighted_ss(competitor) + 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WlsOptimalityProperty,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace mtdgrid::linalg
