#include "linalg/sparse_matrix.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "stats/rng.hpp"
#include "test_util.hpp"

namespace mtdgrid::linalg {
namespace {

/// Random sparse-ish dense matrix: each entry nonzero with probability p.
Matrix random_sparse_dense(std::size_t rows, std::size_t cols,
                           stats::Rng& rng, double p = 0.3) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      if (rng.uniform() < p) m(i, j) = rng.gaussian();
  return m;
}

TEST(SparseMatrixTest, EmptyMatrixHasNoEntries) {
  const SparseMatrix a(4, 7);
  EXPECT_EQ(a.rows(), 4u);
  EXPECT_EQ(a.cols(), 7u);
  EXPECT_EQ(a.nnz(), 0u);
  EXPECT_EQ(a.coeff(2, 3), 0.0);
  EXPECT_EQ(a.max_abs(), 0.0);
  const Matrix d = a.to_dense();
  EXPECT_EQ(d.rows(), 4u);
  EXPECT_EQ(d.cols(), 7u);
  EXPECT_EQ(d.max_abs(), 0.0);
}

TEST(SparseMatrixTest, FromDenseToDenseRoundTripIsExact) {
  stats::Rng rng(11);
  const Matrix d = random_sparse_dense(9, 6, rng);
  const SparseMatrix s = SparseMatrix::from_dense(d);
  EXPECT_EQ(max_abs_diff(s.to_dense(), d), 0.0);
}

TEST(SparseMatrixTest, FromDenseDropsBelowTolerance) {
  Matrix d(2, 2);
  d(0, 0) = 1.0;
  d(0, 1) = 1e-14;
  d(1, 1) = -2.0;
  const SparseMatrix s = SparseMatrix::from_dense(d, 1e-12);
  EXPECT_EQ(s.nnz(), 2u);
  EXPECT_EQ(s.coeff(0, 0), 1.0);
  EXPECT_EQ(s.coeff(0, 1), 0.0);
  EXPECT_EQ(s.coeff(1, 1), -2.0);
}

TEST(SparseMatrixTest, CsrLayoutInvariantsHold) {
  stats::Rng rng(12);
  const SparseMatrix s =
      SparseMatrix::from_dense(random_sparse_dense(20, 15, rng));
  ASSERT_EQ(s.row_ptr().size(), 21u);
  EXPECT_EQ(s.row_ptr().front(), 0u);
  EXPECT_EQ(s.row_ptr().back(), s.nnz());
  for (std::size_t i = 0; i < s.rows(); ++i) {
    ASSERT_LE(s.row_ptr()[i], s.row_ptr()[i + 1]);
    // Column indices strictly ascending inside the row.
    for (std::size_t k = s.row_ptr()[i] + 1; k < s.row_ptr()[i + 1]; ++k)
      EXPECT_LT(s.col_idx()[k - 1], s.col_idx()[k]);
  }
}

TEST(SparseMatrixTest, CoeffReadsAnyEntry) {
  stats::Rng rng(13);
  const Matrix d = random_sparse_dense(8, 8, rng);
  const SparseMatrix s = SparseMatrix::from_dense(d);
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 8; ++j) EXPECT_EQ(s.coeff(i, j), d(i, j));
}

TEST(SparseMatrixTest, TripletBuilderSumsDuplicatesInInsertionOrder) {
  // The bit-exactness contract: an entry assembled from several triplets
  // equals the left-to-right sum of the contributions, exactly as a dense
  // `+=` loop over the same emissions would produce.
  const double a = 0.1, b = 0.3, c = -0.7;
  TripletBuilder builder(2, 2);
  builder.add(1, 0, a);
  builder.add(0, 1, 5.0);
  builder.add(1, 0, b);
  builder.add(1, 0, c);
  const SparseMatrix s = builder.build();
  EXPECT_EQ(s.nnz(), 2u);
  EXPECT_EQ(s.coeff(1, 0), a + b + c);  // exact ==, not NEAR
  EXPECT_EQ(s.coeff(0, 1), 5.0);
}

TEST(SparseMatrixTest, TripletBuilderKeepsExplicitZeros) {
  TripletBuilder builder(3, 3);
  builder.add(0, 0, 0.0);
  builder.add(2, 1, 1.0);
  builder.add(2, 1, -1.0);
  const SparseMatrix s = builder.build();
  EXPECT_EQ(s.nnz(), 2u);  // both stored, both zero-valued
  EXPECT_EQ(s.coeff(0, 0), 0.0);
  EXPECT_EQ(s.coeff(2, 1), 0.0);
}

TEST(SparseMatrixTest, TripletBuilderIsReusable) {
  TripletBuilder builder(2, 2);
  builder.add(0, 0, 2.0);
  const SparseMatrix first = builder.build();
  const SparseMatrix second = builder.build();
  EXPECT_EQ(max_abs_diff(first, second), 0.0);
  EXPECT_EQ(second.coeff(0, 0), 2.0);
}

TEST(SparseMatrixTest, MatrixVectorProductMatchesDense) {
  stats::Rng rng(14);
  const Matrix d = random_sparse_dense(12, 7, rng);
  const SparseMatrix s = SparseMatrix::from_dense(d);
  const Vector v = test::random_vector(7, rng);
  EXPECT_LT(max_abs_diff(s * v, d * v), 1e-14);
}

TEST(SparseMatrixTest, TransposeTimesMatchesDense) {
  stats::Rng rng(15);
  const Matrix d = random_sparse_dense(12, 7, rng);
  const SparseMatrix s = SparseMatrix::from_dense(d);
  const Vector v = test::random_vector(12, rng);
  EXPECT_LT(max_abs_diff(s.transpose_times(v), d.transpose_times(v)),
            1e-14);
}

TEST(SparseMatrixTest, TransposedMatchesDenseTranspose) {
  stats::Rng rng(16);
  const Matrix d = random_sparse_dense(10, 6, rng);
  const SparseMatrix st = SparseMatrix::from_dense(d).transposed();
  EXPECT_EQ(st.rows(), 6u);
  EXPECT_EQ(st.cols(), 10u);
  EXPECT_EQ(max_abs_diff(st.to_dense(), d.transposed()), 0.0);
}

TEST(SparseMatrixTest, MaxAbsMatchesDense) {
  stats::Rng rng(18);
  const Matrix d = random_sparse_dense(11, 11, rng);
  EXPECT_EQ(SparseMatrix::from_dense(d).max_abs(), d.max_abs());
}

TEST(SparseMatrixTest, MaxAbsDiffWalksPatternUnion) {
  TripletBuilder ba(2, 2);
  ba.add(0, 0, 1.0);
  ba.add(1, 1, 3.0);
  TripletBuilder bb(2, 2);
  bb.add(0, 1, -2.0);
  bb.add(1, 1, 3.5);
  const SparseMatrix a = ba.build();
  const SparseMatrix b = bb.build();
  // Union pattern: (0,0) diff 1, (0,1) diff 2, (1,1) diff 0.5.
  EXPECT_EQ(max_abs_diff(a, b), 2.0);
  EXPECT_EQ(max_abs_diff(a, a), 0.0);
}

// --- weighted Gram ------------------------------------------------------

class SparseGramProperty : public ::testing::TestWithParam<int> {};

TEST_P(SparseGramProperty, WeightedGramMatchesDenseNormalEquations) {
  stats::Rng rng(100 + GetParam());
  const std::size_t m = 18, n = 7;
  const Matrix d = random_sparse_dense(m, n, rng, 0.4);
  Vector w(m);
  for (std::size_t i = 0; i < m; ++i) w[i] = rng.uniform(0.1, 2.0);

  const SparseMatrix gram = SparseMatrix::from_dense(d).weighted_gram(w);
  EXPECT_EQ(gram.rows(), n);
  EXPECT_EQ(gram.cols(), n);

  Matrix expected(n, n);
  for (std::size_t k = 0; k < m; ++k)
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        expected(i, j) += w[k] * d(k, i) * d(k, j);
  EXPECT_LT(max_abs_diff(gram.to_dense(), expected),
            1e-12 * std::max(1.0, expected.max_abs()));

  // Symmetry is exact: entry (i,j) and (j,i) accumulate the same products
  // in the same row-major scan order.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_EQ(gram.coeff(i, j), gram.coeff(j, i));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseGramProperty, ::testing::Range(0, 10));

}  // namespace
}  // namespace mtdgrid::linalg
