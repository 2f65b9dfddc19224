#include "mtd/spa.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "attack/fdi_attack.hpp"
#include "estimation/state_estimator.hpp"
#include "grid/cases.hpp"
#include "grid/measurement.hpp"
#include "linalg/qr.hpp"
#include "stats/rng.hpp"
#include "test_util.hpp"

namespace mtdgrid::mtd {
namespace {

TEST(SpaTest, UniformScalingGivesZeroAngle) {
  // H' = (1 + eta) H: the paper's perfectly aligned case (Fig. 4a).
  const grid::PowerSystem sys = grid::make_case_ieee14();
  const linalg::Matrix h = grid::measurement_matrix(sys);
  EXPECT_NEAR(spa(h, h * 1.2), 0.0, 1e-7);
  EXPECT_NEAR(smallest_angle(h, h * 1.2), 0.0, 1e-7);
}

TEST(SpaTest, OrthogonalComplementGivesRightAngle) {
  // Theorem 1's ideal MTD: Col(H') orthogonal to Col(H). Build H' as an
  // orthonormal basis of the orthogonal complement.
  stats::Rng rng(1);
  const linalg::Matrix h = test::random_matrix(10, 3, rng);
  const linalg::Matrix q = linalg::orthonormal_column_basis(h);
  // Complement: residuals of random vectors after projection onto Col(H).
  linalg::Matrix comp(10, 4);
  for (std::size_t j = 0; j < 4; ++j) {
    linalg::Vector v = test::random_vector(10, rng);
    v -= q * q.transpose_times(v);
    comp.set_col(j, v);
  }
  EXPECT_NEAR(spa(h, comp), std::numbers::pi / 2, 1e-7);
  EXPECT_NEAR(smallest_angle(h, comp), std::numbers::pi / 2, 1e-7);
  EXPECT_TRUE(column_spaces_orthogonal(h, comp));
}

TEST(SpaTest, NotOrthogonalForRealisticPerturbations) {
  const grid::PowerSystem sys = grid::make_case_ieee14();
  const linalg::Matrix h = grid::measurement_matrix(sys);
  linalg::Vector x = sys.reactances();
  for (std::size_t l : sys.dfacts_branches()) x[l] *= 1.5;
  EXPECT_FALSE(column_spaces_orthogonal(h, grid::measurement_matrix(sys, x)));
}

TEST(SpaTest, SmallestAngleIsZeroForDfactsSubsetPerturbations) {
  // The definitional subtlety documented in mtd/spa.hpp: any state
  // direction constant across all D-FACTS endpoints stays in both column
  // spaces, so the literal Definition-V.1 smallest angle is always zero
  // while the operative (largest) angle is strictly positive.
  const grid::PowerSystem sys = grid::make_case_ieee14();
  const linalg::Matrix h = grid::measurement_matrix(sys);
  linalg::Vector x = sys.reactances();
  for (std::size_t l : sys.dfacts_branches()) x[l] *= 1.45;
  const linalg::Matrix h_new = grid::measurement_matrix(sys, x);
  EXPECT_NEAR(smallest_angle(h, h_new), 0.0, 1e-6);
  EXPECT_GT(spa(h, h_new), 0.05);
}

TEST(SpaTest, SymmetricInArguments) {
  const grid::PowerSystem sys = grid::make_case_ieee14();
  const linalg::Matrix h = grid::measurement_matrix(sys);
  linalg::Vector x = sys.reactances();
  x[0] *= 1.3;
  x[4] *= 0.7;
  const linalg::Matrix h_new = grid::measurement_matrix(sys, x);
  EXPECT_NEAR(spa(h, h_new), spa(h_new, h), 1e-9);
}

TEST(SpaTest, GrowsWithPerturbationSize) {
  // Monotone trend along a one-parameter family of perturbations.
  const grid::PowerSystem sys = grid::make_case_ieee14();
  const linalg::Matrix h = grid::measurement_matrix(sys);
  double prev = -1.0;
  for (double eta : {0.1, 0.2, 0.3, 0.4, 0.5}) {
    linalg::Vector x = sys.reactances();
    for (std::size_t l : sys.dfacts_branches()) x[l] *= (1.0 + eta);
    const double gamma = spa(h, grid::measurement_matrix(sys, x));
    EXPECT_GT(gamma, prev);
    prev = gamma;
  }
}

TEST(SpaTest, ZeroForIdenticalMatrices) {
  const grid::PowerSystem sys = grid::make_case_wscc9();
  const linalg::Matrix h = grid::measurement_matrix(sys);
  // acos near 1 amplifies rounding: cos(theta) = 1 - eps gives
  // theta ~ sqrt(2 eps), so ~1e-7 is the numerical floor here.
  EXPECT_NEAR(spa(h, h), 0.0, 1e-6);
}

TEST(SpaTest, ResidualBoundEq7HoldsOnRandomizedPerturbations) {
  // Paper eq. (7): for any attack a = H c stealthy under the old matrix,
  // the attack component of the post-MTD residual obeys
  // ||r'_a|| <= sin(gamma(H, H')) ||a||. With unit sensor noise the
  // estimator's attack_residual_norm is exactly ||(I - P') a||, so this is
  // the property that ties the SPA design metric to BDD detection power.
  stats::Rng rng(11);
  for (const grid::PowerSystem& sys :
       {grid::make_case4(), grid::make_case14()}) {
    const linalg::Matrix h = grid::measurement_matrix(sys);
    for (int trial = 0; trial < 8; ++trial) {
      linalg::Vector x = sys.reactances();
      for (std::size_t l : sys.dfacts_branches())
        x[l] *= rng.uniform(0.5, 1.5);
      const linalg::Matrix h_new = grid::measurement_matrix(sys, x);
      const double sin_gamma = std::sin(spa(h, h_new));
      const estimation::StateEstimator est(h_new, /*sigma=*/1.0);
      for (int k = 0; k < 5; ++k) {
        const attack::FdiAttack atk = attack::make_stealthy_attack(
            h, test::random_vector(h.cols(), rng));
        const double a_norm = atk.a.norm();
        ASSERT_GT(a_norm, 0.0);
        EXPECT_LE(est.attack_residual_norm(atk.a),
                  sin_gamma * a_norm + 1e-8 * a_norm)
            << sys.name() << " trial " << trial << " attack " << k;
      }
    }
  }
}

TEST(SpaTest, ResidualBoundEq7IsTightForWorstCaseAttack) {
  // The bound is attained by the attack direction realizing the largest
  // principal angle, so sin(gamma) ||a|| must not overshoot the supremum
  // of ||r'_a|| / ||a|| by more than numerical slack: check that some
  // random attack gets within 60% of it on case4 (n = 3, so random
  // directions land close to the extremal one).
  stats::Rng rng(13);
  const grid::PowerSystem sys = grid::make_case4();
  const linalg::Matrix h = grid::measurement_matrix(sys);
  linalg::Vector x = sys.reactances();
  x[0] *= 1.5;
  const linalg::Matrix h_new = grid::measurement_matrix(sys, x);
  const double sin_gamma = std::sin(spa(h, h_new));
  ASSERT_GT(sin_gamma, 0.01);
  const estimation::StateEstimator est(h_new, 1.0);
  double best_ratio = 0.0;
  for (int k = 0; k < 200; ++k) {
    const attack::FdiAttack atk = attack::make_stealthy_attack(
        h, test::random_vector(h.cols(), rng));
    best_ratio = std::max(
        best_ratio, est.attack_residual_norm(atk.a) / atk.a.norm());
  }
  EXPECT_GT(best_ratio, 0.6 * sin_gamma);
  EXPECT_LE(best_ratio, sin_gamma + 1e-8);
}

TEST(SpaTest, BoundedByRightAngle) {
  const grid::PowerSystem sys = grid::make_case_ieee30();
  const linalg::Matrix h = grid::measurement_matrix(sys);
  stats::Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    linalg::Vector x = sys.reactances();
    for (std::size_t l : sys.dfacts_branches())
      x[l] *= rng.uniform(0.5, 1.5);
    const double gamma = spa(h, grid::measurement_matrix(sys, x));
    EXPECT_GE(gamma, 0.0);
    EXPECT_LE(gamma, std::numbers::pi / 2 + 1e-12);
  }
}

// --- SpaEvaluator: incremental rank-k gamma vs the reference spa() ------

class SpaEvaluatorProperty : public ::testing::TestWithParam<int> {};

TEST_P(SpaEvaluatorProperty, IncrementalGammaMatchesReferenceOnCase14) {
  const grid::PowerSystem sys = grid::make_case14();
  const linalg::Matrix h0 = grid::measurement_matrix(sys);
  const SpaEvaluator eval(sys, h0);
  ASSERT_TRUE(eval.incremental());

  stats::Rng rng(300 + GetParam());
  const linalg::Vector lo = sys.reactance_lower_limits();
  const linalg::Vector hi = sys.reactance_upper_limits();
  for (int t = 0; t < 6; ++t) {
    linalg::Vector x = sys.reactances();
    for (std::size_t l : sys.dfacts_branches())
      if (rng.uniform() < 0.7) x[l] = rng.uniform(lo[l], hi[l]);
    const double reference = spa(h0, grid::measurement_matrix(sys, x));
    EXPECT_NEAR(eval.gamma(x), reference, 1e-10);
  }
}

TEST_P(SpaEvaluatorProperty, IncrementalGammaMatchesReferenceOnCase57) {
  const grid::PowerSystem sys = grid::make_case57();
  const linalg::Matrix h0 = grid::measurement_matrix(sys);
  const SpaEvaluator eval(sys, h0);
  ASSERT_TRUE(eval.incremental());

  stats::Rng rng(350 + GetParam());
  const linalg::Vector lo = sys.reactance_lower_limits();
  const linalg::Vector hi = sys.reactance_upper_limits();
  for (int t = 0; t < 3; ++t) {
    linalg::Vector x = sys.reactances();
    for (std::size_t l : sys.dfacts_branches())
      if (rng.uniform() < 0.7) x[l] = rng.uniform(lo[l], hi[l]);
    const double reference = spa(h0, grid::measurement_matrix(sys, x));
    EXPECT_NEAR(eval.gamma(x), reference, 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpaEvaluatorProperty, ::testing::Range(0, 6));

TEST(SpaEvaluatorTest, RecognizesPerturbedReferenceMatrix) {
  // The attacker's knowledge is usually H at *perturbed* reactances (stale
  // MTD state), not the nominal ones; recovery must still work.
  const grid::PowerSystem sys = grid::make_case14();
  linalg::Vector x_att = sys.reactances();
  for (std::size_t l : sys.dfacts_branches()) x_att[l] *= 1.17;
  const linalg::Matrix h_att = grid::measurement_matrix(sys, x_att);
  const SpaEvaluator eval(sys, h_att);
  ASSERT_TRUE(eval.incremental());
  EXPECT_LT(linalg::max_abs_diff(
                linalg::Matrix::column(eval.reference_reactances()),
                linalg::Matrix::column(x_att)),
            1e-9);

  linalg::Vector x = sys.reactances();
  x[sys.dfacts_branches()[0]] *= 1.4;
  EXPECT_NEAR(eval.gamma(x), spa(h_att, grid::measurement_matrix(sys, x)),
              1e-10);
}

TEST(SpaEvaluatorTest, UnchangedReactancesGiveZeroGamma) {
  const grid::PowerSystem sys = grid::make_case14();
  const linalg::Matrix h0 = grid::measurement_matrix(sys);
  const SpaEvaluator eval(sys, h0);
  EXPECT_EQ(eval.gamma(sys.reactances()), 0.0);
}

TEST(SpaEvaluatorTest, ArbitraryAttackerMatrixFallsBackAndStillMatches) {
  // A randomly rotated attacker matrix is NOT a measurement matrix of the
  // system: the evaluator must detect that and fall back to the cached-Q0
  // path, still matching the reference spa().
  const grid::PowerSystem sys = grid::make_case14();
  stats::Rng rng(8);
  const linalg::Matrix h_arbitrary =
      test::random_matrix(grid::measurement_count(sys),
                          sys.num_buses() - 1, rng);
  const SpaEvaluator eval(sys, h_arbitrary);
  EXPECT_FALSE(eval.incremental());

  linalg::Vector x = sys.reactances();
  for (std::size_t l : sys.dfacts_branches()) x[l] *= 1.25;
  const double reference =
      spa(h_arbitrary, grid::measurement_matrix(sys, x));
  EXPECT_NEAR(eval.gamma(x), reference, 1e-10);
  EXPECT_NEAR(eval.gamma_full(grid::measurement_matrix(sys, x)), reference,
              1e-10);
}

TEST(SpaEvaluatorTest, RejectsWrongDimensions) {
  const grid::PowerSystem sys = grid::make_case14();
  EXPECT_THROW(SpaEvaluator(sys, linalg::Matrix(3, 2)),
               std::invalid_argument);
  const linalg::Matrix h0 = grid::measurement_matrix(sys);
  const SpaEvaluator eval(sys, h0);
  EXPECT_THROW(eval.gamma(linalg::Vector(2)), std::invalid_argument);
}

// --- sparse attacker-matrix construction --------------------------------

TEST(SpaEvaluatorSparseTest, SparseConstructionEntersIncrementalMode) {
  // CSR H from the sparse measurement model: recognition runs on the CSR
  // entries and the evaluator behaves exactly like its dense twin.
  const grid::PowerSystem sys = grid::make_case14();
  const linalg::Matrix h0 = grid::measurement_matrix(sys);
  const SpaEvaluator dense_eval(sys, h0);
  const SpaEvaluator sparse_eval(sys, grid::sparse_measurement_matrix(sys));
  ASSERT_TRUE(sparse_eval.incremental());

  stats::Rng rng(9);
  const linalg::Vector lo = sys.reactance_lower_limits();
  const linalg::Vector hi = sys.reactance_upper_limits();
  for (int t = 0; t < 5; ++t) {
    linalg::Vector x = sys.reactances();
    for (std::size_t l : sys.dfacts_branches())
      if (rng.uniform() < 0.7) x[l] = rng.uniform(lo[l], hi[l]);
    const double reference = spa(h0, grid::measurement_matrix(sys, x));
    EXPECT_NEAR(sparse_eval.gamma(x), reference, 1e-10);
    // Sparse and dense construction share the exact same H0, so their
    // gammas agree bit for bit.
    EXPECT_EQ(sparse_eval.gamma(x), dense_eval.gamma(x));
  }
  EXPECT_EQ(sparse_eval.gamma(sys.reactances()), 0.0);
}

TEST(SpaEvaluatorSparseTest, UnrecognizedSparseMatrixFallsBack) {
  const grid::PowerSystem sys = grid::make_case14();
  // Corrupt one flow entry: no reactance vector reproduces this matrix.
  linalg::Matrix h = grid::measurement_matrix(sys);
  h(0, 0) *= 1.5;
  const SpaEvaluator eval(sys, linalg::SparseMatrix::from_dense(h));
  EXPECT_FALSE(eval.incremental());

  linalg::Vector x = sys.reactances();
  x[sys.dfacts_branches()[0]] *= 1.3;
  EXPECT_NEAR(eval.gamma(x), spa(h, grid::measurement_matrix(sys, x)),
              1e-10);
}

TEST(SpaEvaluatorSparseTest, RejectsWrongSparseDimensions) {
  const grid::PowerSystem sys = grid::make_case14();
  EXPECT_THROW(SpaEvaluator(sys, linalg::SparseMatrix(3, 2)),
               std::invalid_argument);
}

}  // namespace
}  // namespace mtdgrid::mtd
