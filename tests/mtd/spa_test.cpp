#include "mtd/spa.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

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
    const linalg::SparseMatrix h_csr = grid::sparse_measurement_matrix(sys);
    for (int trial = 0; trial < 8; ++trial) {
      linalg::Vector x = sys.reactances();
      for (std::size_t l : sys.dfacts_branches())
        x[l] *= rng.uniform(0.5, 1.5);
      const linalg::Matrix h_new = grid::measurement_matrix(sys, x);
      const double sin_gamma = std::sin(spa(h, h_new));
      const estimation::StateEstimator est(h_new, /*sigma=*/1.0);
      for (int k = 0; k < 5; ++k) {
        const attack::FdiAttack atk = attack::make_stealthy_attack(
            h_csr, test::random_vector(h.cols(), rng));
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
  const linalg::SparseMatrix h_csr = grid::sparse_measurement_matrix(sys);
  double best_ratio = 0.0;
  for (int k = 0; k < 200; ++k) {
    const attack::FdiAttack atk = attack::make_stealthy_attack(
        h_csr, test::random_vector(h.cols(), rng));
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
  const SpaEvaluator eval(sys, sys.reactances());

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
  const SpaEvaluator eval(sys, sys.reactances());

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

TEST(SpaEvaluatorTest, UnchangedReactancesGiveZeroGamma) {
  const grid::PowerSystem sys = grid::make_case14();
  const SpaEvaluator eval(sys, sys.reactances());
  EXPECT_EQ(eval.gamma(sys.reactances()), 0.0);
}

TEST(SpaEvaluatorTest, RejectsChangedNonDfactsBranch) {
  // The k x k tables cover only the D-FACTS branches; a candidate moving
  // any other branch is a caller bug and gets a pinned error.
  const grid::PowerSystem sys = grid::make_case14();
  const SpaEvaluator eval(sys, sys.reactances());
  const auto dfacts = sys.dfacts_branches();
  std::size_t other = 0;
  while (std::find(dfacts.begin(), dfacts.end(), other) != dfacts.end())
    ++other;
  linalg::Vector x = sys.reactances();
  x[other] *= 1.1;
  try {
    eval.gamma(x);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "SpaEvaluator: branch " +
                                         std::to_string(other) +
                                         " is not a D-FACTS branch");
  }
}

TEST(SpaEvaluatorTest, UniformScalingOfDfactsCycleGivesZero) {
  // Every case4 branch carries D-FACTS and the four form a cycle: scaling
  // all of them by one factor scales H, so gamma is exactly 0. The
  // rotation cancels between the C and E tables here; forming tan^2 from
  // the Grams instead of their factors reads ~4e-9 at 0.8/1.2 and ~5e-5
  // at 1e4 (where I+S has condition ~1e4).
  const grid::PowerSystem sys = grid::make_case4();
  const SpaEvaluator eval(sys, sys.reactances());
  for (const double factor : {0.8, 1.2, 1e4}) {
    linalg::Vector x = sys.reactances();
    for (std::size_t l : sys.dfacts_branches()) x[l] *= factor;
    EXPECT_LE(eval.gamma(x), 1e-11) << "factor " << factor;
  }
}

TEST(SpaEvaluatorTest, SharedEvaluatorIsBitIdenticalAcrossThreads) {
  // gamma() is const with no scratch state: eight threads hammering one
  // evaluator must reproduce the serial values bit for bit.
  const grid::PowerSystem sys = grid::make_case57();
  const SpaEvaluator eval(sys, sys.reactances());
  stats::Rng rng(77);
  const linalg::Vector lo = sys.reactance_lower_limits();
  const linalg::Vector hi = sys.reactance_upper_limits();
  std::vector<linalg::Vector> xs;
  for (int t = 0; t < 32; ++t) {
    linalg::Vector x = sys.reactances();
    for (std::size_t l : sys.dfacts_branches())
      if (rng.uniform() < 0.7) x[l] = rng.uniform(lo[l], hi[l]);
    xs.push_back(std::move(x));
  }
  std::vector<double> serial;
  for (const linalg::Vector& x : xs) serial.push_back(eval.gamma(x));

  constexpr std::size_t kThreads = 8;
  std::vector<std::vector<double>> parallel(kThreads,
                                            std::vector<double>(xs.size()));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      // Each thread walks the candidates from a different offset so the
      // calls genuinely interleave.
      for (std::size_t i = 0; i < xs.size(); ++i) {
        const std::size_t c = (i + 4 * t) % xs.size();
        parallel[t][c] = eval.gamma(xs[c]);
      }
    });
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t)
    for (std::size_t i = 0; i < xs.size(); ++i)
      EXPECT_EQ(parallel[t][i], serial[i]) << "thread " << t << " x " << i;
}

void expect_invalid_key(const grid::PowerSystem& sys,
                        const linalg::Vector& x_ref,
                        const std::string& message) {
  try {
    const SpaEvaluator eval(sys, x_ref);
    FAIL() << "expected std::invalid_argument(\"" << message << "\")";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), message);
  }
}

TEST(SpaEvaluatorTest, RejectsWrongDimensions) {
  const grid::PowerSystem sys = grid::make_case14();
  expect_invalid_key(sys, linalg::Vector(3, 0.1),
                     "SpaEvaluator: reference reactance vector length");
  const SpaEvaluator eval(sys, sys.reactances());
  EXPECT_THROW(eval.gamma(linalg::Vector(2)), std::invalid_argument);
}

TEST(SpaEvaluatorTest, RejectsNonPositiveReferenceReactance) {
  const grid::PowerSystem sys = grid::make_case14();
  for (const double bad : {0.0, -0.1}) {
    linalg::Vector x = sys.reactances();
    x[3] = bad;
    expect_invalid_key(sys, x,
                       "SpaEvaluator: reference reactances must be > 0");
  }
}

TEST(SpaEvaluatorTest, RejectsRankDeficientReference) {
  // A radial branch at reactance 1e30 all but cuts its leaf bus off: the
  // Gram fails its pivot test, and the QR tables find no full column
  // rank either.
  const grid::PowerSystem sys = grid::make_case14();
  std::vector<int> degree(sys.num_buses(), 0);
  for (std::size_t l = 0; l < sys.num_branches(); ++l) {
    ++degree[sys.branch(l).from];
    ++degree[sys.branch(l).to];
  }
  const auto is_radial = [&](std::size_t l) {
    return degree[sys.branch(l).from] == 1 || degree[sys.branch(l).to] == 1;
  };
  std::size_t radial = 0;
  while (radial < sys.num_branches() && !is_radial(radial)) ++radial;
  ASSERT_LT(radial, sys.num_branches());
  linalg::Vector x = sys.reactances();
  x[radial] = 1e30;
  expect_invalid_key(sys, x, "SpaEvaluator: H(x_ref) is rank deficient");
}

}  // namespace
}  // namespace mtdgrid::mtd
