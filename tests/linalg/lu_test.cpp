#include "linalg/lu.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "stats/rng.hpp"
#include "test_util.hpp"

namespace mtdgrid::linalg {
namespace {

TEST(LuTest, SolvesKnownSystem) {
  // 2x + y = 5; x + 3y = 10  ->  x = 1, y = 3.
  Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  Vector x = solve(a, Vector{5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(LuTest, SolveRequiresPivoting) {
  // Zero on the leading diagonal forces a row swap.
  Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  Vector x = solve(a, Vector{2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(LuTest, EmptyMatrixFactorsAndSolves) {
  const LuDecomposition lu(Matrix(0, 0));
  EXPECT_FALSE(lu.singular());
  EXPECT_EQ(lu.solve(Vector(0)).size(), 0u);
  EXPECT_DOUBLE_EQ(lu.determinant(), 1.0);
}

TEST(LuTest, DetectsSingularMatrix) {
  Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  LuDecomposition lu(a);
  EXPECT_TRUE(lu.singular());
  EXPECT_DOUBLE_EQ(lu.determinant(), 0.0);
  EXPECT_THROW(solve(a, Vector{1.0, 1.0}), std::runtime_error);
}

TEST(LuTest, DeterminantKnownValues) {
  Matrix a{{2.0, 0.0}, {0.0, 3.0}};
  EXPECT_NEAR(LuDecomposition(a).determinant(), 6.0, 1e-12);
  Matrix b{{0.0, 1.0}, {1.0, 0.0}};  // permutation: determinant -1
  EXPECT_NEAR(LuDecomposition(b).determinant(), -1.0, 1e-12);
}

TEST(LuTest, InverseTimesOriginalIsIdentity) {
  stats::Rng rng(3);
  const Matrix a = test::random_spd_matrix(5, rng);
  const Matrix inv = inverse(a);
  EXPECT_NEAR(max_abs_diff(a * inv, Matrix::identity(5)), 0.0, 1e-9);
  EXPECT_NEAR(max_abs_diff(inv * a, Matrix::identity(5)), 0.0, 1e-9);
}

TEST(LuTest, MatrixRhsSolve) {
  Matrix a{{2.0, 0.0}, {0.0, 4.0}};
  Matrix b{{2.0, 4.0}, {8.0, 12.0}};
  Matrix x = LuDecomposition(a).solve(b);
  EXPECT_NEAR(x(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(x(0, 1), 2.0, 1e-12);
  EXPECT_NEAR(x(1, 0), 2.0, 1e-12);
  EXPECT_NEAR(x(1, 1), 3.0, 1e-12);
}

// Property: for random well-conditioned systems, A * solve(A, b) == b.
class LuRoundTripProperty : public ::testing::TestWithParam<int> {};

TEST_P(LuRoundTripProperty, SolveRoundTrip) {
  stats::Rng rng(GetParam());
  const std::size_t n = 2 + static_cast<std::size_t>(GetParam()) % 8;
  const Matrix a = test::random_spd_matrix(n, rng);
  const Vector b = test::random_vector(n, rng);
  const Vector x = solve(a, b);
  EXPECT_NEAR(max_abs_diff(a * x, b), 0.0, 1e-8);
}

TEST_P(LuRoundTripProperty, DeterminantOfProduct) {
  stats::Rng rng(GetParam() + 50);
  const Matrix a = test::random_spd_matrix(4, rng);
  const Matrix b = test::random_spd_matrix(4, rng);
  const double da = LuDecomposition(a).determinant();
  const double db = LuDecomposition(b).determinant();
  const double dab = LuDecomposition(a * b).determinant();
  EXPECT_NEAR(dab, da * db, 1e-6 * std::abs(da * db) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LuRoundTripProperty, ::testing::Range(0, 12));

}  // namespace
}  // namespace mtdgrid::linalg
