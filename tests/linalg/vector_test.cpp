#include "linalg/vector.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace mtdgrid::linalg {
namespace {

TEST(VectorTest, DefaultConstructedIsEmpty) {
  Vector v;
  EXPECT_EQ(v.size(), 0u);
  EXPECT_TRUE(v.empty());
}

TEST(VectorTest, SizeValueConstructor) {
  Vector v(3, 2.5);
  ASSERT_EQ(v.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(v[i], 2.5);
}

TEST(VectorTest, InitializerListConstructor) {
  Vector v{1.0, -2.0, 3.0};
  ASSERT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[0], 1.0);
  EXPECT_DOUBLE_EQ(v[1], -2.0);
  EXPECT_DOUBLE_EQ(v[2], 3.0);
}

TEST(VectorTest, AdditionAndSubtraction) {
  Vector a{1.0, 2.0, 3.0};
  Vector b{4.0, 5.0, 6.0};
  Vector sum = a + b;
  Vector diff = b - a;
  EXPECT_DOUBLE_EQ(sum[0], 5.0);
  EXPECT_DOUBLE_EQ(sum[2], 9.0);
  EXPECT_DOUBLE_EQ(diff[0], 3.0);
  EXPECT_DOUBLE_EQ(diff[2], 3.0);
}

TEST(VectorTest, ScalarMultiplicationAndDivision) {
  Vector v{2.0, -4.0};
  EXPECT_DOUBLE_EQ((v * 0.5)[0], 1.0);
  EXPECT_DOUBLE_EQ((2.0 * v)[1], -8.0);
  EXPECT_DOUBLE_EQ((v / 2.0)[1], -2.0);
  EXPECT_DOUBLE_EQ((-v)[0], -2.0);
}

TEST(VectorTest, Norms) {
  Vector v{3.0, -4.0};
  EXPECT_DOUBLE_EQ(v.norm(), 5.0);
  EXPECT_DOUBLE_EQ(v.norm1(), 7.0);
  EXPECT_DOUBLE_EQ(v.norm_inf(), 4.0);
}

TEST(VectorTest, SumAndDot) {
  Vector a{1.0, 2.0, 3.0};
  Vector b{4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(a.sum(), 6.0);
  EXPECT_DOUBLE_EQ(a.dot(b), 4.0 - 10.0 + 18.0);
}

TEST(VectorTest, DotIsSymmetric) {
  Vector a{1.5, -2.5, 0.25};
  Vector b{3.0, 0.5, -1.0};
  EXPECT_DOUBLE_EQ(a.dot(b), b.dot(a));
}

TEST(VectorTest, Hadamard) {
  Vector a{1.0, 2.0, 3.0};
  Vector b{2.0, 0.5, -1.0};
  Vector h = a.hadamard(b);
  EXPECT_DOUBLE_EQ(h[0], 2.0);
  EXPECT_DOUBLE_EQ(h[1], 1.0);
  EXPECT_DOUBLE_EQ(h[2], -3.0);
}

TEST(VectorTest, SegmentExtractsSlice) {
  Vector v{0.0, 1.0, 2.0, 3.0, 4.0};
  Vector s = v.segment(1, 3);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s[0], 1.0);
  EXPECT_DOUBLE_EQ(s[2], 3.0);
}

TEST(VectorTest, MaxAbsDiff) {
  Vector a{1.0, 2.0, 3.0};
  Vector b{1.1, 1.5, 3.0};
  EXPECT_NEAR(max_abs_diff(a, b), 0.5, 1e-15);
}

TEST(VectorTest, RangeForIteration) {
  Vector v{1.0, 2.0, 3.0};
  double total = 0.0;
  for (double x : v) total += x;
  EXPECT_DOUBLE_EQ(total, 6.0);
}

TEST(VectorTest, EmptyVectorNormsAreZero) {
  Vector v;
  EXPECT_DOUBLE_EQ(v.norm(), 0.0);
  EXPECT_DOUBLE_EQ(v.norm1(), 0.0);
  EXPECT_DOUBLE_EQ(v.norm_inf(), 0.0);
  EXPECT_DOUBLE_EQ(v.sum(), 0.0);
}

TEST(VectorTest, CompoundAssignment) {
  Vector v{1.0, 2.0};
  v += Vector{1.0, 1.0};
  v -= Vector{0.5, 0.5};
  v *= 2.0;
  v /= 4.0;
  EXPECT_DOUBLE_EQ(v[0], 0.75);
  EXPECT_DOUBLE_EQ(v[1], 1.25);
}

// Property: the triangle inequality holds for the 2-norm.
class VectorNormProperty : public ::testing::TestWithParam<int> {};

TEST_P(VectorNormProperty, TriangleInequality) {
  const int seed = GetParam();
  Vector a(8), b(8);
  // Simple deterministic pseudo-random fill.
  unsigned state = static_cast<unsigned>(seed) * 2654435761u + 1u;
  const auto next = [&] {
    state = state * 1664525u + 1013904223u;
    return static_cast<double>(state % 2000) / 100.0 - 10.0;
  };
  for (std::size_t i = 0; i < 8; ++i) {
    a[i] = next();
    b[i] = next();
  }
  EXPECT_LE((a + b).norm(), a.norm() + b.norm() + 1e-12);
  EXPECT_LE(std::abs(a.dot(b)), a.norm() * b.norm() + 1e-12);  // Cauchy-Schwarz
}

INSTANTIATE_TEST_SUITE_P(Seeds, VectorNormProperty,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace mtdgrid::linalg
