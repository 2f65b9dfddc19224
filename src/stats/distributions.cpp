#include "stats/distributions.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numbers>

namespace mtdgrid::stats {

double log_gamma(double x) {
  assert(x > 0.0);
  // Lanczos approximation, g = 7, n = 9 coefficients.
  static constexpr double kCoefficients[] = {
      0.99999999999980993,  676.5203681218851,     -1259.1392167224028,
      771.32342877765313,   -176.61502916214059,   12.507343278686905,
      -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7};
  if (x < 0.5) {
    // Reflection formula keeps the approximation in its accurate range.
    return std::log(std::numbers::pi / std::sin(std::numbers::pi * x)) -
           log_gamma(1.0 - x);
  }
  const double z = x - 1.0;
  double acc = kCoefficients[0];
  for (int i = 1; i < 9; ++i) acc += kCoefficients[i] / (z + i);
  const double t = z + 7.5;
  return 0.5 * std::log(2.0 * std::numbers::pi) + (z + 0.5) * std::log(t) - t +
         std::log(acc);
}

namespace {

/// Lower incomplete gamma by power series; accurate for x < a + 1.
double gamma_p_series(double a, double x) {
  if (x <= 0.0) return 0.0;
  double term = 1.0 / a;
  double sum = term;
  for (int n = 1; n < 1000; ++n) {
    term *= x / (a + n);
    sum += term;
    if (std::abs(term) < std::abs(sum) * 1e-16) break;
  }
  return sum * std::exp(-x + a * std::log(x) - log_gamma(a));
}

/// Upper incomplete gamma by Lentz continued fraction; for x >= a + 1.
double gamma_q_continued_fraction(double a, double x) {
  constexpr double kTiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i < 1000; ++i) {
    const double an = -i * (i - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::abs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::abs(delta - 1.0) < 1e-16) break;
  }
  return h * std::exp(-x + a * std::log(x) - log_gamma(a));
}

}  // namespace

double regularized_gamma_p(double a, double x) {
  assert(a > 0.0 && x >= 0.0);
  if (x == 0.0) return 0.0;
  if (x < a + 1.0) return gamma_p_series(a, x);
  return 1.0 - gamma_q_continued_fraction(a, x);
}

double regularized_gamma_q(double a, double x) {
  assert(a > 0.0 && x >= 0.0);
  if (x == 0.0) return 1.0;
  if (x < a + 1.0) return 1.0 - gamma_p_series(a, x);
  return gamma_q_continued_fraction(a, x);
}

double chi_square_cdf(double x, double k) {
  assert(k > 0.0);
  if (x <= 0.0) return 0.0;
  return regularized_gamma_p(0.5 * k, 0.5 * x);
}

double chi_square_quantile(double p, double k) {
  assert(p > 0.0 && p < 1.0 && k > 0.0);
  // Bisection on the CDF: monotone, bracketed, and robust.
  double lo = 0.0;
  double hi = std::max(k + 10.0 * std::sqrt(2.0 * k), 10.0);
  while (chi_square_cdf(hi, k) < p) hi *= 2.0;
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (chi_square_cdf(mid, k) < p) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (hi - lo < 1e-12 * std::max(1.0, hi)) break;
  }
  return 0.5 * (lo + hi);
}

namespace {

// Largest lambda / 2 the Poisson-mixture walk below indexes with `int`
// (its upward walk reaches mode + 10000).
constexpr double kMaxMixtureHalfLambda =
    static_cast<double>(std::numeric_limits<int>::max() - 10000);

// Noncentral chi-square CDF past the mixture's range (lambda > ~4.3e9):
// the Abdel-Aty cube-root normal approximation. Its absolute error is
// ~2e-4 at lambda = 1e5 and shrinks as 1/sqrt(lambda), so ~1e-6 here,
// and Phi saturates to exactly 0 or 1 more than ~38 standard deviations
// from the mean k + lambda (where every BDD threshold sits).
double large_lambda_cdf(double x, double k, double lambda) {
  if (std::isinf(lambda)) return 0.0;
  const double mean = k + lambda;
  const double v = 2.0 * (k + 2.0 * lambda) / (9.0 * mean * mean);
  return normal_cdf((std::cbrt(x / mean) - (1.0 - v)) / std::sqrt(v));
}

}  // namespace

double noncentral_chi_square_cdf(double x, double k, double lambda) {
  assert(k > 0.0 && lambda >= 0.0);
  if (x <= 0.0) return 0.0;
  if (lambda == 0.0) return chi_square_cdf(x, k);

  // Poisson mixture: sum_j pois(j; lambda/2) * F_chi2(x; k + 2j).
  // Start at the modal Poisson index and expand outward until the
  // accumulated probability mass makes further terms negligible.
  const double half_lambda = 0.5 * lambda;
  if (!(half_lambda <= kMaxMixtureHalfLambda))
    return large_lambda_cdf(x, k, lambda);
  const auto poisson_log_pmf = [&](int j) {
    return -half_lambda + j * std::log(half_lambda) - log_gamma(j + 1.0);
  };

  const int mode = static_cast<int>(half_lambda);

  // F_chi2(x; k + 2j) falls as j grows, and the downward walk stops at
  // an index >= `j_floor` (Poisson mass there is < e^-50 < 1e-18). When
  // F is already exactly 0 at `j_floor`, every term of the walk is 0: skip
  // the O(sqrt(lambda)) walk — a detect whose attack residual dwarfs
  // the threshold would otherwise spend ~40 ms here at lambda ~ 4e9.
  const int j_floor = std::max(
      0, mode - static_cast<int>(std::ceil(10.0 * std::sqrt(half_lambda))) -
             10);
  if (chi_square_cdf(x, k + 2.0 * j_floor) == 0.0) return 0.0;
  double total = 0.0;
  double weight_sum = 0.0;

  // Walk down from the mode.
  for (int j = mode; j >= 0; --j) {
    const double w = std::exp(poisson_log_pmf(j));
    total += w * chi_square_cdf(x, k + 2.0 * j);
    weight_sum += w;
    if (w < 1e-18 && j < mode) break;
  }
  // Walk up from the mode.
  for (int j = mode + 1; j < mode + 10000; ++j) {
    const double w = std::exp(poisson_log_pmf(j));
    total += w * chi_square_cdf(x, k + 2.0 * j);
    weight_sum += w;
    if (w < 1e-18 && weight_sum > 0.999) break;
  }
  return std::clamp(total, 0.0, 1.0);
}

double noncentral_chi_square_sf(double x, double k, double lambda) {
  return 1.0 - noncentral_chi_square_cdf(x, k, lambda);
}

double normal_cdf(double x) {
  return 0.5 * std::erfc(-x / std::numbers::sqrt2);
}

Summary summarize(const double* values, std::size_t n) {
  Summary s;
  s.count = n;
  if (n == 0) return s;
  s.min = std::numeric_limits<double>::infinity();
  s.max = -std::numeric_limits<double>::infinity();
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += values[i];
    s.min = std::min(s.min, values[i]);
    s.max = std::max(s.max, values[i]);
  }
  s.mean = sum / static_cast<double>(n);
  if (n > 1) {
    double ss = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = values[i] - s.mean;
      ss += d * d;
    }
    s.stddev = std::sqrt(ss / static_cast<double>(n - 1));
  }
  return s;
}

}  // namespace mtdgrid::stats
