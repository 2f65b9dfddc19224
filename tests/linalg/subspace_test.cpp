#include "linalg/subspace.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "linalg/qr.hpp"
#include "stats/rng.hpp"
#include "test_util.hpp"

namespace mtdgrid::linalg {
namespace {

TEST(SubspaceTest, IdenticalSubspacesHaveZeroAngles) {
  stats::Rng rng(1);
  const Matrix a = test::random_matrix(6, 3, rng);
  const auto angles = principal_angles(a, a * 2.0);
  ASSERT_EQ(angles.size(), 3u);
  for (double theta : angles) EXPECT_NEAR(theta, 0.0, 1e-7);
}

TEST(SubspaceTest, OrthogonalAxesGiveRightAngle) {
  // span{e1} vs span{e2} in R^3.
  Matrix a{{1.0}, {0.0}, {0.0}};
  Matrix b{{0.0}, {1.0}, {0.0}};
  EXPECT_NEAR(smallest_principal_angle(a, b), std::numbers::pi / 2, 1e-12);
  EXPECT_NEAR(largest_principal_angle(a, b), std::numbers::pi / 2, 1e-12);
}

TEST(SubspaceTest, KnownRotationAngle) {
  // span{e1} vs span{cos t * e1 + sin t * e2}.
  const double t = 0.3;
  Matrix a{{1.0}, {0.0}};
  Matrix b{{std::cos(t)}, {std::sin(t)}};
  EXPECT_NEAR(smallest_principal_angle(a, b), t, 1e-12);
}

TEST(SubspaceTest, LargestAngleResolvesTinyAnalyticAngle) {
  // A fixed random rotation Q of R^6 applied to span{e1, e2, e3} and
  // span{e1, e2, cos t * e3 + sin t * e4}: angles {0, 0, t}. The cosine
  // route reads 1 - t^2/2 = 1 to machine precision and loses t entirely;
  // the sine route recovers it to rounding.
  const double t = 1e-9;
  stats::Rng rng(41);
  const Matrix q = orthonormal_column_basis(test::random_matrix(6, 6, rng));
  ASSERT_EQ(q.cols(), 6u);
  Matrix a_local(6, 3), b_local(6, 3);
  for (std::size_t j = 0; j < 3; ++j) a_local(j, j) = 1.0;
  b_local(0, 0) = 1.0;
  b_local(1, 1) = 1.0;
  b_local(2, 2) = std::cos(t);
  b_local(3, 2) = std::sin(t);
  const Matrix a = q * a_local;
  const Matrix b = q * b_local;
  EXPECT_NEAR(largest_principal_angle(a, b), t, 1e-14);
  EXPECT_NEAR(largest_principal_angle_qr(a, b), t, 1e-14);
  EXPECT_NEAR(largest_principal_angle(b, a), t, 1e-14);
  // Uneven ranks: the residual of the smaller basis carries the sines.
  EXPECT_NEAR(largest_principal_angle(a, b.block(0, 2, 6, 1)), t, 1e-14);
  EXPECT_NEAR(largest_principal_angle(b.block(0, 2, 6, 1), a), t, 1e-14);
}

TEST(SubspaceTest, PlaneVsRotatedPlaneMixedAngles) {
  // span{e1, e2} vs span{e1, cos t * e2 + sin t * e3}: angles {0, t}.
  const double t = 0.7;
  Matrix a{{1.0, 0.0}, {0.0, 1.0}, {0.0, 0.0}};
  Matrix b{{1.0, 0.0}, {0.0, std::cos(t)}, {0.0, std::sin(t)}};
  const auto angles = principal_angles(a, b);
  ASSERT_EQ(angles.size(), 2u);
  EXPECT_NEAR(angles[0], 0.0, 1e-10);
  EXPECT_NEAR(angles[1], t, 1e-10);
}

TEST(SubspaceTest, AnglesAreSymmetric) {
  stats::Rng rng(2);
  const Matrix a = test::random_matrix(8, 3, rng);
  const Matrix b = test::random_matrix(8, 4, rng);
  const auto ab = principal_angles(a, b);
  const auto ba = principal_angles(b, a);
  ASSERT_EQ(ab.size(), ba.size());
  for (std::size_t i = 0; i < ab.size(); ++i)
    EXPECT_NEAR(ab[i], ba[i], 1e-9);
}

TEST(SubspaceTest, AngleCountIsMinRank) {
  stats::Rng rng(3);
  const Matrix a = test::random_matrix(9, 2, rng);
  const Matrix b = test::random_matrix(9, 5, rng);
  EXPECT_EQ(principal_angles(a, b).size(), 2u);
}

TEST(SubspaceTest, ColumnSpaceContainsItsOwnColumns) {
  stats::Rng rng(4);
  const Matrix a = test::random_matrix(7, 3, rng);
  EXPECT_TRUE(column_space_contains(a, a.block(0, 0, 7, 2)));
}

TEST(SubspaceTest, ColumnSpaceContainsLinearCombinations) {
  stats::Rng rng(5);
  const Matrix a = test::random_matrix(6, 3, rng);
  const Vector c = test::random_vector(3, rng);
  EXPECT_TRUE(column_space_contains(a, Matrix::column(a * c)));
}

TEST(SubspaceTest, ColumnSpaceRejectsIndependentVector) {
  Matrix a{{1.0, 0.0}, {0.0, 1.0}, {0.0, 0.0}};
  Matrix b{{0.0}, {0.0}, {1.0}};
  EXPECT_FALSE(column_space_contains(a, b));
}

TEST(SubspaceTest, ContainsZeroVectorTrivially) {
  stats::Rng rng(6);
  const Matrix a = test::random_matrix(5, 2, rng);
  EXPECT_TRUE(column_space_contains(a, Matrix(5, 1)));
}

// Property: all principal angles lie in [0, pi/2] and are sorted.
class SubspaceProperty : public ::testing::TestWithParam<int> {};

TEST_P(SubspaceProperty, AnglesSortedInRange) {
  stats::Rng rng(GetParam() + 30);
  const Matrix a = test::random_matrix(10, 3, rng);
  const Matrix b = test::random_matrix(10, 4, rng);
  const auto angles = principal_angles(a, b);
  for (std::size_t i = 0; i < angles.size(); ++i) {
    EXPECT_GE(angles[i], 0.0);
    EXPECT_LE(angles[i], std::numbers::pi / 2 + 1e-12);
    if (i > 0) EXPECT_GE(angles[i], angles[i - 1]);
  }
}

TEST_P(SubspaceProperty, SharedColumnForcesZeroSmallestAngle) {
  stats::Rng rng(GetParam() + 70);
  const Vector shared = test::random_vector(8, rng);
  Matrix a(8, 2), b(8, 3);
  a.set_col(0, shared);
  a.set_col(1, test::random_vector(8, rng));
  b.set_col(0, shared * -2.5);
  b.set_col(1, test::random_vector(8, rng));
  b.set_col(2, test::random_vector(8, rng));
  EXPECT_NEAR(smallest_principal_angle(a, b), 0.0, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubspaceProperty, ::testing::Range(0, 10));

// --- thin-QR fast path vs the Bjorck-Golub reference --------------------

class QrPathProperty : public ::testing::TestWithParam<int> {};

TEST_P(QrPathProperty, PrincipalAnglesQrMatchesSvdPathOnRandomTall) {
  stats::Rng rng(900 + GetParam());
  const std::size_t m = 12 + 7 * GetParam();
  const std::size_t n = 3 + GetParam() % 6;
  const Matrix a = test::random_matrix(m, n, rng);
  const Matrix b = test::random_matrix(m, n, rng);
  const auto reference = principal_angles(a, b);
  const auto fast = principal_angles_qr(a, b);
  ASSERT_EQ(reference.size(), fast.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    // Compare cosines: for angles near 0 the acos of either route has
    // ~sqrt(eps) absolute error, but the cosines agree to ~1e-12.
    EXPECT_NEAR(std::cos(reference[i]), std::cos(fast[i]), 1e-12);
  }
  // The largest angle of a generic random pair is well separated from 0,
  // where both routes are well conditioned: demand 1e-10 in radians.
  EXPECT_NEAR(reference.back(), fast.back(), 1e-10);
  EXPECT_NEAR(largest_principal_angle_qr(a, b), reference.back(), 1e-10);
}

TEST_P(QrPathProperty, LargestAngleQrMatchesOnOverlappingSubspaces) {
  // Subspaces that share directions (the D-FACTS situation: most of the
  // column space is untouched).
  stats::Rng rng(950 + GetParam());
  const std::size_t m = 20;
  const Matrix shared = test::random_matrix(m, 4, rng);
  const Matrix a = shared.hstack(test::random_matrix(m, 2, rng));
  const Matrix b = shared.hstack(test::random_matrix(m, 2, rng));
  EXPECT_NEAR(largest_principal_angle_qr(a, b),
              largest_principal_angle(a, b), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QrPathProperty, ::testing::Range(0, 10));

TEST(SubspaceTest, QrPathIdenticalSubspaces) {
  stats::Rng rng(33);
  const Matrix a = test::random_matrix(9, 4, rng);
  const auto angles = principal_angles_qr(a, a * -1.5);
  ASSERT_EQ(angles.size(), 4u);
  for (double theta : angles) EXPECT_NEAR(theta, 0.0, 1e-7);
}

TEST(SubspaceTest, QrPathOrthogonalSubspaces) {
  Matrix a{{1.0}, {0.0}, {0.0}};
  Matrix b{{0.0}, {1.0}, {0.0}};
  EXPECT_NEAR(largest_principal_angle_qr(a, b), std::numbers::pi / 2,
              1e-12);
}

TEST(SubspaceTest, QrPathHandlesRankDeficientInput) {
  // Third column is a combination of the first two: the QR basis must fall
  // back to the rank-revealing route and still return min-rank angles.
  stats::Rng rng(34);
  Matrix a = test::random_matrix(10, 3, rng);
  for (std::size_t i = 0; i < a.rows(); ++i)
    a(i, 2) = a(i, 0) - 2.0 * a(i, 1);
  const Matrix b = test::random_matrix(10, 3, rng);
  const auto reference = principal_angles(a, b);
  const auto fast = principal_angles_qr(a, b);
  ASSERT_EQ(reference.size(), 2u);
  ASSERT_EQ(fast.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i)
    EXPECT_NEAR(std::cos(reference[i]), std::cos(fast[i]), 1e-10);
}

}  // namespace
}  // namespace mtdgrid::linalg
