#include "stats/distributions.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>
#include <tuple>

#include "stats/rng.hpp"

namespace mtdgrid::stats {
namespace {

TEST(LogGammaTest, KnownValues) {
  EXPECT_NEAR(log_gamma(1.0), 0.0, 1e-12);           // Gamma(1) = 1
  EXPECT_NEAR(log_gamma(2.0), 0.0, 1e-12);           // Gamma(2) = 1
  EXPECT_NEAR(log_gamma(5.0), std::log(24.0), 1e-10);  // Gamma(5) = 24
  EXPECT_NEAR(log_gamma(0.5), std::log(std::sqrt(std::numbers::pi)), 1e-10);
}

TEST(LogGammaTest, RecurrenceRelation) {
  // log Gamma(x+1) = log Gamma(x) + log x.
  for (double x : {0.3, 1.7, 4.2, 11.5}) {
    EXPECT_NEAR(log_gamma(x + 1.0), log_gamma(x) + std::log(x), 1e-9);
  }
}

TEST(IncompleteGammaTest, ComplementaritySumsToOne) {
  for (double a : {0.5, 2.0, 7.5}) {
    for (double x : {0.1, 1.0, 5.0, 20.0}) {
      EXPECT_NEAR(regularized_gamma_p(a, x) + regularized_gamma_q(a, x), 1.0,
                  1e-10);
    }
  }
}

TEST(IncompleteGammaTest, BoundaryBehaviour) {
  EXPECT_DOUBLE_EQ(regularized_gamma_p(3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(regularized_gamma_q(3.0, 0.0), 1.0);
  EXPECT_NEAR(regularized_gamma_p(1.0, 50.0), 1.0, 1e-12);
}

TEST(IncompleteGammaTest, ExponentialSpecialCase) {
  // P(1, x) = 1 - exp(-x).
  for (double x : {0.2, 1.0, 3.0}) {
    EXPECT_NEAR(regularized_gamma_p(1.0, x), 1.0 - std::exp(-x), 1e-10);
  }
}

TEST(ChiSquareTest, MedianRoughlyAtDofMinusTwoThirds) {
  // Known approximation: median ~ k(1 - 2/(9k))^3.
  for (double k : {2.0, 5.0, 20.0, 41.0}) {
    const double median = chi_square_quantile(0.5, k);
    const double approx = k * std::pow(1.0 - 2.0 / (9.0 * k), 3);
    EXPECT_NEAR(median, approx, 0.05 * k);
  }
}

TEST(ChiSquareTest, TwoDofClosedForm) {
  // chi^2 with 2 dof is Exp(1/2): F(x) = 1 - exp(-x/2).
  for (double x : {0.5, 2.0, 6.0}) {
    EXPECT_NEAR(chi_square_cdf(x, 2.0), 1.0 - std::exp(-x / 2.0), 1e-10);
  }
}

// Quantile/CDF round trip over a grid of (dof, p).
class ChiSquareRoundTrip
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(ChiSquareRoundTrip, QuantileInvertsCdf) {
  const double k = std::get<0>(GetParam());
  const double p = std::get<1>(GetParam());
  const double x = chi_square_quantile(p, k);
  EXPECT_NEAR(chi_square_cdf(x, k), p, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ChiSquareRoundTrip,
    ::testing::Combine(::testing::Values(1.0, 2.0, 5.0, 13.0, 41.0, 95.0),
                       ::testing::Values(0.001, 0.05, 0.5, 0.95, 0.9995)));

TEST(NoncentralChiSquareTest, ReducesToCentralAtZeroLambda) {
  for (double k : {3.0, 10.0, 41.0}) {
    for (double x : {1.0, 8.0, 30.0}) {
      EXPECT_NEAR(noncentral_chi_square_cdf(x, k, 0.0),
                  chi_square_cdf(x, k), 1e-10);
    }
  }
}

TEST(NoncentralChiSquareTest, CdfDecreasesWithLambda) {
  // Larger noncentrality shifts mass right, so the CDF at fixed x drops —
  // this is the mechanism behind Theorem 1's detection-probability claim.
  const double x = 50.0, k = 41.0;
  double prev = noncentral_chi_square_cdf(x, k, 0.0);
  for (double lambda : {1.0, 5.0, 20.0, 80.0}) {
    const double cur = noncentral_chi_square_cdf(x, k, lambda);
    EXPECT_LT(cur, prev + 1e-12);
    prev = cur;
  }
}

TEST(NoncentralChiSquareTest, SurvivalComplement) {
  EXPECT_NEAR(noncentral_chi_square_cdf(30.0, 10.0, 5.0) +
                  noncentral_chi_square_sf(30.0, 10.0, 5.0),
              1.0, 1e-12);
}

TEST(NoncentralChiSquareTest, MatchesMonteCarlo) {
  // Sample ||Z + mu||^2 with Z ~ N(0, I_k) and ||mu||^2 = lambda.
  const int k = 8;
  const double lambda = 12.0;
  Rng rng(99);
  const int n = 200000;
  const double x = 25.0;
  int below = 0;
  for (int t = 0; t < n; ++t) {
    double ss = 0.0;
    for (int i = 0; i < k; ++i) {
      const double mean = (i == 0) ? std::sqrt(lambda) : 0.0;
      const double z = rng.gaussian() + mean;
      ss += z * z;
    }
    if (ss <= x) ++below;
  }
  const double empirical = static_cast<double>(below) / n;
  EXPECT_NEAR(noncentral_chi_square_cdf(x, k, lambda), empirical, 0.005);
}

TEST(NoncentralChiSquareTest, LargeLambdaStability) {
  const double v = noncentral_chi_square_cdf(500.0, 41.0, 400.0);
  EXPECT_GE(v, 0.0);
  EXPECT_LE(v, 1.0);
  // Mean is k + lambda = 441 < 500, so CDF should exceed one half.
  EXPECT_GT(v, 0.5);
}

TEST(NoncentralChiSquareTest, MixtureRangeValuesArePinned) {
  // Bit-exact values of the Poisson-mixture evaluation, recorded before
  // the large-lambda guard existed: the guard must not move them. The
  // lambda = 1e6 and 4e9 rows take the exact-zero early exit.
  struct Pin {
    double x, k, lambda, cdf;
  };
  const Pin pins[] = {
      {30.0, 10.0, 5.0, 0x1.f4766d35d77c4p-1},
      {500.0, 41.0, 400.0, 0x1.d7d11c7d85bb9p-1},
      {124.3, 100.0, 1e6, 0.0},
      {124.3, 100.0, 4e9, 0.0},
      {50.0, 20.0, 0.5, 0x1.ffd4f449d3c3bp-1},
      {1e6, 100.0, 1e6, 0x1.de900b84131c6p-2},
      {1000100.0, 100.0, 1e6, 0x1.f342561c2d539p-2},
      {300.0, 200.0, 90.0, 0x1.4d6e0b00fa4b2p-1},
      {10.0, 3.0, 1e-3, 0x1.f67ac8e1ec319p-1},
      {2e5, 57.0, 2e5, 0x1.e65a41caad197p-2},
  };
  for (const Pin& p : pins)
    EXPECT_EQ(noncentral_chi_square_cdf(p.x, p.k, p.lambda), p.cdf)
        << "x=" << p.x << " k=" << p.k << " lambda=" << p.lambda;
}

TEST(NoncentralChiSquareTest, HugeLambdaIsFiniteAndSaturates) {
  // Past the mixture's int-indexed range (lambda/2 > INT_MAX - 1e4) the
  // CDF is the cube-root normal form: exactly 0 at a BDD threshold,
  // about one half at the mean, exactly 1 far above it.
  for (const double lambda : {5e9, 1e12}) {
    const double k = 100.0;
    const double mean = k + lambda;
    const double sd = std::sqrt(2.0 * (k + 2.0 * lambda));
    EXPECT_EQ(noncentral_chi_square_cdf(124.3, k, lambda), 0.0);
    EXPECT_EQ(noncentral_chi_square_sf(124.3, k, lambda), 1.0);
    EXPECT_NEAR(noncentral_chi_square_cdf(mean, k, lambda), 0.5, 1e-4);
    EXPECT_NEAR(noncentral_chi_square_cdf(mean + sd, k, lambda),
                normal_cdf(1.0), 1e-4);
    EXPECT_EQ(noncentral_chi_square_cdf(mean + 60.0 * sd, k, lambda), 1.0);
  }
  EXPECT_EQ(noncentral_chi_square_sf(124.3, 100.0,
                                     std::numeric_limits<double>::infinity()),
            1.0);
}

TEST(NormalCdfTest, StandardValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.96), 0.975, 1e-3);
  EXPECT_NEAR(normal_cdf(-1.96), 0.025, 1e-3);
}

TEST(SummaryTest, BasicStatistics) {
  const double values[] = {1.0, 2.0, 3.0, 4.0};
  const Summary s = summarize(values, 4);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.stddev, std::sqrt(5.0 / 3.0), 1e-12);
  EXPECT_EQ(s.count, 4u);
}

TEST(SummaryTest, EmptyAndSingleton) {
  EXPECT_EQ(summarize(nullptr, 0).count, 0u);
  const double one = 7.0;
  const Summary s = summarize(&one, 1);
  EXPECT_DOUBLE_EQ(s.mean, 7.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

}  // namespace
}  // namespace mtdgrid::stats
