#include "linalg/matrix.hpp"

#include <gtest/gtest.h>

#include "stats/rng.hpp"
#include "test_util.hpp"

namespace mtdgrid::linalg {
namespace {

TEST(MatrixTest, NestedInitializerList) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  ASSERT_EQ(m.rows(), 3u);
  ASSERT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(2, 0), 5.0);
}

TEST(MatrixTest, IdentityAndDiagonal) {
  Matrix i = Matrix::identity(3);
  EXPECT_DOUBLE_EQ(i(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(i(0, 2), 0.0);

  Matrix d = Matrix::diagonal(Vector{2.0, 3.0});
  EXPECT_DOUBLE_EQ(d(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(d(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(d(0, 1), 0.0);
}

TEST(MatrixTest, ColumnFactory) {
  Matrix c = Matrix::column(Vector{1.0, 2.0, 3.0});
  ASSERT_EQ(c.rows(), 3u);
  ASSERT_EQ(c.cols(), 1u);
  EXPECT_DOUBLE_EQ(c(2, 0), 3.0);
}

TEST(MatrixTest, DataIsRowMajorStorage) {
  Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Matrix& cm = m;
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j)
      EXPECT_EQ(cm.data()[i * m.cols() + j], m(i, j));
  m.data()[1 * m.cols() + 2] = -1.0;
  EXPECT_EQ(m(1, 2), -1.0);
}

TEST(MatrixTest, MatrixProductKnownValues) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, MatrixVectorProduct) {
  Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  Vector v{1.0, 0.0, -1.0};
  Vector r = a * v;
  ASSERT_EQ(r.size(), 2u);
  EXPECT_DOUBLE_EQ(r[0], -2.0);
  EXPECT_DOUBLE_EQ(r[1], -2.0);
}

TEST(MatrixTest, TransposeRoundTrip) {
  stats::Rng rng(1);
  const Matrix a = test::random_matrix(4, 6, rng);
  EXPECT_NEAR(max_abs_diff(a.transposed().transposed(), a), 0.0, 0.0);
}

TEST(MatrixTest, TransposeTimesMatchesExplicitTranspose) {
  stats::Rng rng(2);
  const Matrix a = test::random_matrix(5, 3, rng);
  const Matrix b = test::random_matrix(5, 4, rng);
  const Vector v = test::random_vector(5, rng);
  EXPECT_NEAR(max_abs_diff(a.transpose_times(b), a.transposed() * b), 0.0,
              1e-12);
  EXPECT_NEAR(max_abs_diff(a.transpose_times(v), a.transposed() * v), 0.0,
              1e-12);
}

TEST(MatrixTest, RowAndColumnAccess) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(a.row(1)[0], 3.0);
  EXPECT_DOUBLE_EQ(a.col(1)[0], 2.0);
  a.set_col(0, Vector{7.0, 6.0});
  EXPECT_DOUBLE_EQ(a(0, 0), 7.0);
  EXPECT_DOUBLE_EQ(a(1, 0), 6.0);
}

TEST(MatrixTest, BlockExtraction) {
  Matrix a{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}};
  Matrix b = a.block(1, 1, 2, 2);
  EXPECT_DOUBLE_EQ(b(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(b(1, 1), 9.0);
}

TEST(MatrixTest, Hstack) {
  Matrix a{{1.0}, {2.0}};
  Matrix b{{3.0}, {4.0}};
  Matrix h = a.hstack(b);
  ASSERT_EQ(h.cols(), 2u);
  EXPECT_DOUBLE_EQ(h(1, 1), 4.0);
}

TEST(MatrixTest, WithoutCol) {
  Matrix a{{1, 2, 3}, {4, 5, 6}};
  Matrix b = a.without_col(1);
  ASSERT_EQ(b.cols(), 2u);
  EXPECT_DOUBLE_EQ(b(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(b(1, 0), 4.0);
}

TEST(MatrixTest, FrobeniusNormAndMaxAbs) {
  Matrix a{{3.0, 0.0}, {0.0, -4.0}};
  EXPECT_DOUBLE_EQ(a.frobenius_norm(), 5.0);
  EXPECT_DOUBLE_EQ(a.max_abs(), 4.0);
}

TEST(MatrixTest, AdditionSubtractionScaling) {
  Matrix a{{1.0, 2.0}};
  Matrix b{{3.0, 4.0}};
  EXPECT_DOUBLE_EQ((a + b)(0, 1), 6.0);
  EXPECT_DOUBLE_EQ((b - a)(0, 0), 2.0);
  EXPECT_DOUBLE_EQ((a * 2.0)(0, 1), 4.0);
  EXPECT_DOUBLE_EQ((3.0 * a)(0, 0), 3.0);
}

// Property suite: algebraic identities on random matrices.
class MatrixAlgebraProperty : public ::testing::TestWithParam<int> {};

TEST_P(MatrixAlgebraProperty, Associativity) {
  stats::Rng rng(GetParam());
  const Matrix a = test::random_matrix(3, 4, rng);
  const Matrix b = test::random_matrix(4, 5, rng);
  const Matrix c = test::random_matrix(5, 2, rng);
  EXPECT_NEAR(max_abs_diff((a * b) * c, a * (b * c)), 0.0, 1e-10);
}

TEST_P(MatrixAlgebraProperty, TransposeOfProduct) {
  stats::Rng rng(GetParam() + 100);
  const Matrix a = test::random_matrix(4, 3, rng);
  const Matrix b = test::random_matrix(3, 5, rng);
  EXPECT_NEAR(
      max_abs_diff((a * b).transposed(), b.transposed() * a.transposed()),
      0.0, 1e-10);
}

TEST_P(MatrixAlgebraProperty, DistributesOverAddition) {
  stats::Rng rng(GetParam() + 200);
  const Matrix a = test::random_matrix(3, 3, rng);
  const Matrix b = test::random_matrix(3, 3, rng);
  const Vector v = test::random_vector(3, rng);
  EXPECT_NEAR(max_abs_diff((a + b) * v, a * v + b * v), 0.0, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatrixAlgebraProperty,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace mtdgrid::linalg
