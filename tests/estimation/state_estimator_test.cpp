#include "estimation/state_estimator.hpp"

#include <gtest/gtest.h>

#include "grid/cases.hpp"
#include "grid/measurement.hpp"
#include "stats/rng.hpp"
#include "test_util.hpp"

namespace mtdgrid::estimation {
namespace {

linalg::Matrix ieee14_h() {
  const grid::PowerSystem sys = grid::make_case_ieee14();
  return grid::measurement_matrix(sys);
}

TEST(StateEstimatorTest, RecoversStateFromNoiselessMeasurements) {
  const linalg::Matrix h = ieee14_h();
  stats::Rng rng(1);
  const linalg::Vector theta = test::random_vector(h.cols(), rng, 0.05);
  StateEstimator est(h, 1.0);
  const linalg::Vector estimate = est.estimate(h * theta);
  EXPECT_NEAR(linalg::max_abs_diff(estimate, theta), 0.0, 1e-9);
}

TEST(StateEstimatorTest, ResidualZeroForColumnSpaceVectors) {
  const linalg::Matrix h = ieee14_h();
  stats::Rng rng(2);
  StateEstimator est(h, 0.5);
  const linalg::Vector z = h * test::random_vector(h.cols(), rng);
  EXPECT_NEAR(est.normalized_residual_norm(z), 0.0, 1e-8);
}

TEST(StateEstimatorTest, StealthyAttackLeavesResidualUnchanged) {
  // z and z + Hc give identical residuals: the BDD-bypass condition.
  const linalg::Matrix h = ieee14_h();
  stats::Rng rng(3);
  StateEstimator est(h, 1.0);
  const linalg::Vector z = test::random_vector(h.rows(), rng);
  const linalg::Vector attack = h * test::random_vector(h.cols(), rng);
  EXPECT_NEAR(est.normalized_residual_norm(z),
              est.normalized_residual_norm(z + attack), 1e-8);
}

TEST(StateEstimatorTest, ResidualDofIsMMinusN) {
  const linalg::Matrix h = ieee14_h();
  StateEstimator est(h, 1.0);
  EXPECT_EQ(est.residual_dof(), 54u - 13u);
}

TEST(StateEstimatorTest, NormalizedResidualFollowsChiSquare) {
  // Mean of the squared normalized residual under pure noise ~ dof.
  const linalg::Matrix h = ieee14_h();
  const double sigma = 0.7;
  StateEstimator est(h, sigma);
  stats::Rng rng(4);
  const int trials = 3000;
  double mean_sq = 0.0;
  linalg::Vector z(h.rows());
  for (int t = 0; t < trials; ++t) {
    for (std::size_t i = 0; i < z.size(); ++i)
      z[i] = rng.gaussian(0.0, sigma);
    const double r = est.normalized_residual_norm(z);
    mean_sq += r * r;
  }
  mean_sq /= trials;
  const double dof = static_cast<double>(est.residual_dof());
  EXPECT_NEAR(mean_sq, dof, 0.05 * dof);
}

TEST(StateEstimatorTest, PerSensorSigmasWeightResiduals) {
  const linalg::Matrix h = ieee14_h();
  linalg::Vector sigmas(h.rows(), 1.0);
  sigmas[0] = 10.0;  // first sensor very noisy -> heavily discounted
  StateEstimator est(h, sigmas);
  linalg::Vector z(h.rows());
  z[0] = 5.0;  // gross error on the noisy sensor
  const double r_noisy = est.normalized_residual_norm(z);
  StateEstimator est_uniform(h, 1.0);
  const double r_uniform = est_uniform.normalized_residual_norm(z);
  EXPECT_LT(r_noisy, r_uniform);
}

TEST(StateEstimatorTest, AttackResidualNormBounds) {
  // 0 <= ||r'_a|| <= ||a|| / sigma (paper Appendix B, eq. (6)).
  const linalg::Matrix h = ieee14_h();
  const grid::PowerSystem sys = grid::make_case_ieee14();
  linalg::Vector x = sys.reactances();
  for (std::size_t l : sys.dfacts_branches()) x[l] *= 1.4;
  const linalg::Matrix h_new = grid::measurement_matrix(sys, x);

  const double sigma = 0.5;
  StateEstimator est(h_new, sigma);
  stats::Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    const linalg::Vector a = h * test::random_vector(h.cols(), rng);
    const double ra = est.attack_residual_norm(a);
    EXPECT_GE(ra, 0.0);
    EXPECT_LE(ra, a.norm() / sigma + 1e-9);
  }
}

// --- CSR input ----------------------------------------------------------

// A dense H is compressed to CSR on construction, so both input types
// run the same factor path and must agree bit for bit.
TEST(StateEstimatorSparseTest, AgreesWithDenseOnCase14) {
  const grid::PowerSystem sys = grid::make_case_ieee14();
  const linalg::Matrix h = grid::measurement_matrix(sys);
  const double sigma = 0.6;
  const StateEstimator dense(h, sigma);
  const StateEstimator sparse(grid::sparse_measurement_matrix(sys), sigma);
  EXPECT_EQ(sparse.num_measurements(), dense.num_measurements());
  EXPECT_EQ(sparse.state_dimension(), dense.state_dimension());
  EXPECT_EQ(sparse.residual_dof(), dense.residual_dof());

  stats::Rng rng(20);
  for (int trial = 0; trial < 5; ++trial) {
    const linalg::Vector theta = test::random_vector(h.cols(), rng, 0.1);
    linalg::Vector z = h * theta;
    for (std::size_t i = 0; i < z.size(); ++i) z[i] += rng.gaussian(0, sigma);
    EXPECT_EQ(linalg::max_abs_diff(sparse.estimate(z), dense.estimate(z)),
              0.0);
    EXPECT_EQ(linalg::max_abs_diff(sparse.residual(z), dense.residual(z)),
              0.0);
    EXPECT_EQ(sparse.normalized_residual_norm(z),
              dense.normalized_residual_norm(z));
  }
}

TEST(StateEstimatorSparseTest, PerSensorSigmasSupported) {
  const grid::PowerSystem sys = grid::make_case_ieee14();
  const linalg::Matrix h = grid::measurement_matrix(sys);
  stats::Rng rng(22);
  linalg::Vector sigmas(h.rows());
  for (std::size_t i = 0; i < sigmas.size(); ++i)
    sigmas[i] = rng.uniform(0.2, 2.0);
  const StateEstimator dense(h, sigmas);
  const StateEstimator sparse(grid::sparse_measurement_matrix(sys), sigmas);
  const linalg::Vector z = test::random_vector(h.rows(), rng);
  EXPECT_EQ(linalg::max_abs_diff(sparse.estimate(z), dense.estimate(z)),
            0.0);
}

TEST(StateEstimatorSparseTest, CopyAndMoveKeepTheFactorization) {
  const grid::PowerSystem sys = grid::make_case_ieee14();
  const linalg::Matrix h = grid::measurement_matrix(sys);
  stats::Rng rng(23);
  const linalg::Vector z = test::random_vector(h.rows(), rng);

  StateEstimator original(grid::sparse_measurement_matrix(sys), 1.0);
  const linalg::Vector expected = original.estimate(z);

  const StateEstimator copy(original);
  EXPECT_EQ(linalg::max_abs_diff(copy.estimate(z), expected), 0.0);

  // Copy-assign over an estimator of a different H.
  linalg::Vector x = sys.reactances();
  for (std::size_t l : sys.dfacts_branches()) x[l] *= 1.2;
  StateEstimator assigned(grid::measurement_matrix(sys, x), 2.0);
  assigned = original;
  EXPECT_EQ(linalg::max_abs_diff(assigned.estimate(z), expected), 0.0);

  const StateEstimator moved(std::move(original));
  EXPECT_EQ(linalg::max_abs_diff(moved.estimate(z), expected), 0.0);
}

TEST(StateEstimatorSparseTest, RejectsInvalidConstruction) {
  const grid::PowerSystem sys = grid::make_case_ieee14();
  const linalg::SparseMatrix hs = grid::sparse_measurement_matrix(sys);
  EXPECT_THROW(StateEstimator(hs, 0.0), std::invalid_argument);
  EXPECT_THROW(StateEstimator(hs, linalg::Vector(3, 1.0)),
               std::invalid_argument);

  // Rank-deficient H (proportional columns) is rejected at construction
  // with one pinned message for either input type.
  linalg::TripletBuilder builder(5, 2);
  for (std::size_t i = 0; i < 5; ++i) {
    builder.add(i, 0, static_cast<double>(i + 1));
    builder.add(i, 1, 2.0 * static_cast<double>(i + 1));
  }
  const linalg::SparseMatrix singular = builder.build();
  for (const bool dense_input : {false, true}) {
    try {
      if (dense_input)
        StateEstimator(singular.to_dense(), 1.0);
      else
        StateEstimator(singular, 1.0);
      ADD_FAILURE() << "rank-deficient H accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(),
                   "state estimator: measurement matrix is rank deficient");
    }
  }
}

TEST(StateEstimatorTest, RejectsInvalidConstruction) {
  const linalg::Matrix h = ieee14_h();
  EXPECT_THROW(StateEstimator(h, 0.0), std::invalid_argument);
  EXPECT_THROW(StateEstimator(h, -1.0), std::invalid_argument);
  EXPECT_THROW(StateEstimator(h, linalg::Vector(3, 1.0)),
               std::invalid_argument);
  // Underdetermined: fewer measurements than states.
  EXPECT_THROW(StateEstimator(linalg::Matrix(3, 5), 1.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace mtdgrid::estimation
