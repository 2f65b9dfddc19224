#include "linalg/sparse_cholesky.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "grid/cases.hpp"
#include "grid/measurement.hpp"
#include "linalg/cholesky.hpp"
#include "stats/rng.hpp"
#include "test_util.hpp"

namespace mtdgrid::linalg {
namespace {

/// Arrow matrix: dense first row/column plus the diagonal. Eliminating
/// vertex 0 first fills the whole factor; any minimum-degree order
/// eliminates the spokes first and keeps L at O(n) entries.
SparseMatrix arrow_matrix(std::size_t n) {
  TripletBuilder builder(n, n);
  for (std::size_t i = 0; i < n; ++i)
    builder.add(i, i, static_cast<double>(n) + 1.0);
  for (std::size_t i = 1; i < n; ++i) {
    builder.add(0, i, 1.0);
    builder.add(i, 0, 1.0);
  }
  return builder.build();
}

/// 1-D Laplacian (tridiagonal SPD), the canonical sparse test matrix.
SparseMatrix laplacian_1d(std::size_t n) {
  TripletBuilder builder(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    builder.add(i, i, 2.0 + 1e-3);
    if (i + 1 < n) {
      builder.add(i, i + 1, -1.0);
      builder.add(i + 1, i, -1.0);
    }
  }
  return builder.build();
}

std::vector<std::size_t> identity_perm(std::size_t n) {
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  return perm;
}

// --- minimum-degree ordering --------------------------------------------

TEST(MinimumDegreeTest, ReturnsValidPermutation) {
  stats::Rng rng(21);
  const SparseMatrix a = SparseMatrix::from_dense(
      test::random_spd_matrix(12, rng), 1e-1);  // thin the pattern
  const SparseMatrix sym = arrow_matrix(9);
  for (const SparseMatrix& m : {a, sym}) {
    const std::vector<std::size_t> perm = minimum_degree_ordering(m);
    ASSERT_EQ(perm.size(), m.rows());
    std::vector<bool> seen(m.rows(), false);
    for (std::size_t p : perm) {
      ASSERT_LT(p, m.rows());
      EXPECT_FALSE(seen[p]);
      seen[p] = true;
    }
  }
}

TEST(MinimumDegreeTest, IsDeterministic) {
  const SparseMatrix a = laplacian_1d(30);
  EXPECT_EQ(minimum_degree_ordering(a), minimum_degree_ordering(a));
}

TEST(MinimumDegreeTest, ArrowMatrixEliminatesHubLast) {
  // Vertex 0 has degree n-1, every spoke degree 1: the hub cannot be
  // eliminated until at most one spoke remains (its degree ties at 1 only
  // then), so the factor stays fill-free (2n - 1 stored entries) while
  // the natural order fills L completely.
  const std::size_t n = 20;
  const SparseMatrix a = arrow_matrix(n);
  const std::vector<std::size_t> perm = minimum_degree_ordering(a);
  const auto hub = std::find(perm.begin(), perm.end(), 0u);
  ASSERT_NE(hub, perm.end());
  EXPECT_GE(static_cast<std::size_t>(hub - perm.begin()), n - 2);

  const SparseCholesky amd_factor(a);
  ASSERT_FALSE(amd_factor.failed());
  EXPECT_EQ(amd_factor.factor_nnz(), 2 * n - 1);

  const SparseCholesky natural(a, identity_perm(n));
  ASSERT_FALSE(natural.failed());
  EXPECT_EQ(natural.factor_nnz(), n * (n + 1) / 2);  // fully filled
  EXPECT_LT(amd_factor.factor_nnz(), natural.factor_nnz());
}

// --- factorization and solve --------------------------------------------

class SparseCholeskyProperty : public ::testing::TestWithParam<int> {};

TEST_P(SparseCholeskyProperty, SolveMatchesDenseCholesky) {
  stats::Rng rng(200 + GetParam());
  const std::size_t n = 15;
  const Matrix dense = test::random_spd_matrix(n, rng);
  const SparseMatrix sparse = SparseMatrix::from_dense(dense);
  const Vector b = test::random_vector(n, rng);

  const CholeskyDecomposition ref(dense);
  ASSERT_FALSE(ref.failed());
  const SparseCholesky chol(sparse);
  ASSERT_FALSE(chol.failed());
  EXPECT_LT(max_abs_diff(chol.solve(b), ref.solve(b)), 1e-9);
}

TEST_P(SparseCholeskyProperty, ExplicitPermutationGivesSameSolution) {
  stats::Rng rng(230 + GetParam());
  const std::size_t n = 12;
  const SparseMatrix a =
      SparseMatrix::from_dense(test::random_spd_matrix(n, rng));
  const Vector b = test::random_vector(n, rng);
  const SparseCholesky amd_factor(a);
  const SparseCholesky natural(a, identity_perm(n));
  ASSERT_FALSE(amd_factor.failed());
  ASSERT_FALSE(natural.failed());
  EXPECT_LT(max_abs_diff(amd_factor.solve(b), natural.solve(b)), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseCholeskyProperty,
                         ::testing::Range(0, 10));

TEST(SparseCholeskyTest, SolveIsDeterministic) {
  stats::Rng rng(31);
  const SparseMatrix a = laplacian_1d(40);
  const Vector b = test::random_vector(40, rng);
  const SparseCholesky first(a);
  const SparseCholesky second(a);
  EXPECT_EQ(first.permutation(), second.permutation());
  EXPECT_EQ(max_abs_diff(first.solve(b), second.solve(b)), 0.0);
}

TEST(SparseCholeskyTest, LargeLaplacianResidualIsTiny) {
  const std::size_t n = 400;
  const SparseMatrix a = laplacian_1d(n);
  Vector b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = (i % 7) * 0.25 - 0.5;
  const SparseCholesky chol(a);
  ASSERT_FALSE(chol.failed());
  const Vector x = chol.solve(b);
  EXPECT_LT(max_abs_diff(a * x, b), 1e-8);
  // Tridiagonal: no ordering can beat 2n - 1 factor entries by much.
  EXPECT_LE(chol.factor_nnz(), 3 * n);
}

TEST(SparseCholeskyTest, FailsOnIndefiniteMatrix) {
  TripletBuilder builder(2, 2);
  builder.add(0, 0, 1.0);
  builder.add(1, 1, -1.0);
  EXPECT_TRUE(SparseCholesky(builder.build()).failed());
}

TEST(SparseCholeskyTest, FailsOnSingularMatrix) {
  // Rank-1: [1 1; 1 1].
  TripletBuilder builder(2, 2);
  builder.add(0, 0, 1.0);
  builder.add(0, 1, 1.0);
  builder.add(1, 0, 1.0);
  builder.add(1, 1, 1.0);
  EXPECT_TRUE(SparseCholesky(builder.build()).failed());
}

TEST(SparseCholeskyTest, FailsOnStructurallySingularMatrix) {
  // Empty row/column 1: no diagonal entry at all.
  TripletBuilder builder(3, 3);
  builder.add(0, 0, 2.0);
  builder.add(2, 2, 2.0);
  EXPECT_TRUE(SparseCholesky(builder.build()).failed());
}


// --- IEEE-case agreement: dense vs sparse weighted least squares --------

/// Solves the weighted normal equations H^T W H x = H^T W b of each case's
/// measurement matrix twice: dense Gram + dense Cholesky, and CSR Gram +
/// SparseCholesky (the estimator's path). Both must agree to 1e-10.
void expect_case_agreement(const grid::PowerSystem& sys, int seed) {
  const Matrix h = grid::measurement_matrix(sys);
  const SparseMatrix hs = grid::sparse_measurement_matrix(sys);
  ASSERT_EQ(max_abs_diff(hs.to_dense(), h), 0.0) << sys.name();
  stats::Rng rng(seed);
  Vector w(h.rows());
  for (std::size_t i = 0; i < h.rows(); ++i) w[i] = rng.uniform(0.25, 4.0);

  Matrix wh = h;
  for (std::size_t i = 0; i < h.rows(); ++i)
    for (std::size_t j = 0; j < h.cols(); ++j) wh(i, j) *= w[i];
  const CholeskyDecomposition dense(h.transpose_times(wh));
  const SparseCholesky sparse(hs.weighted_gram(w));
  ASSERT_FALSE(dense.failed()) << sys.name();
  ASSERT_FALSE(sparse.failed()) << sys.name();

  for (int trial = 0; trial < 3; ++trial) {
    // Realistic magnitudes: states ~0.1 rad, noise-scale perturbations.
    const Vector theta = test::random_vector(h.cols(), rng, 0.1);
    const Vector b = h * theta + test::random_vector(h.rows(), rng, 0.01);
    const Vector wb = w.hadamard(b);
    const Vector x_dense = dense.solve(h.transpose_times(wb));
    const Vector x_sparse = sparse.solve(hs.transpose_times(wb));
    const double scale = std::max(1.0, x_dense.norm_inf());
    EXPECT_LT(max_abs_diff(x_sparse, x_dense), 1e-10 * scale)
        << sys.name() << " trial " << trial;
  }
}

TEST(BackendCaseAgreementTest, Case14DenseVsSparseWithin1em10) {
  expect_case_agreement(grid::make_case14(), 81);
}

TEST(BackendCaseAgreementTest, Case57DenseVsSparseWithin1em10) {
  expect_case_agreement(grid::make_case57(), 82);
}

TEST(BackendCaseAgreementTest, Case118DenseVsSparseWithin1em10) {
  expect_case_agreement(grid::make_case118(), 83);
}

}  // namespace
}  // namespace mtdgrid::linalg
