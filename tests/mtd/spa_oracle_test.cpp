#include <cmath>
#include <string>
#include <vector>

#include "grid/cases.hpp"
#include "grid/compose.hpp"
#include "grid/measurement.hpp"
#include "linalg/sparse_cholesky.hpp"
#include "spa_oracle.hpp"

namespace mtdgrid {
namespace {

// The registry cases up to case118 (case300 runs in spa_oracle_slow_test;
// the mega-grids are too large for the dense reference), plus two small
// composed grids.
const std::vector<std::string> kSpaOracleCases = {
    "case4",  "wscc9",   "case14",   "ieee30",
    "case57", "case118", "case14x2", "case57x2"};

class SpaOracle : public ::testing::TestWithParam<std::string> {};

TEST_P(SpaOracle, EvaluatorMatchesDenseSpa) {
  const test::SpaOracleSummary summary = test::check_spa_oracle(GetParam());
  // Coverage of both ends: the tiny draws probe gamma ~ 0, where the
  // cosine route of spa() used to be off by ~1e-8, and the 10^+-4
  // scalings reach past pi/4, where tan^2 gamma > 1.
  EXPECT_LT(summary.max_tiny, 1e-5);
  EXPECT_GT(summary.max_scaled, std::numbers::pi / 4);
}

INSTANTIATE_TEST_SUITE_P(Cases, SpaOracle, ::testing::ValuesIn(kSpaOracleCases),
                         [](const auto& info) { return info.param; });

// case14x2 with weak ties: at tie reactance 1e3..1e5 the tie susceptance
// is ~1e-4..1e-6 of a typical line's, and cond(H0) grows with it. An
// unrefined seminormal solve for V = H0 (H0^T H0)^{-1} A_D is off by up to
// ~2e-9 at 1e3 and ~2e-7 at 1e4 on these draws. At 1e5 the Gram fails the
// sparse factor's pivot test and the tables come from the dense QR of H0.
//
// The 10^+-4 scalings are not compared here. Scaling D-FACTS reactances
// by 1e-4 on top of the weak ties leaves the angle itself undefined at
// 1e-10: in 60-digit arithmetic, perturbing the entries of H0 and H(x) by
// one rounding (2^-53 relative) moves it by ~1e-9 at tie 1e4 and ~3e-8
// at 1e5, and at 1e5 the dense `spa()` treats H(x) as rank deficient and
// reads ~2e-2 off.
class SpaOracleWeakTies : public ::testing::TestWithParam<int> {};

TEST_P(SpaOracleWeakTies, EvaluatorMatchesDenseSpa) {
  const int exponent = GetParam();
  grid::ComposeOptions copt;
  copt.copies = 2;
  copt.tie_reactance = std::pow(10.0, exponent);
  const grid::PowerSystem sys =
      grid::compose_cases(io::load_case("case14"), copt).system;
  const linalg::SparseMatrix h = grid::sparse_measurement_matrix(sys);
  const bool gram_fails =
      linalg::SparseCholesky(h.weighted_gram(linalg::Vector(h.rows(), 1.0)))
          .failed();
  EXPECT_EQ(gram_fails, exponent >= 5);

  const test::SpaOracleSummary summary = test::check_spa_oracle(
      sys, "case14x2 tie 1e" + std::to_string(exponent),
      /*compare_scaled=*/false);
  EXPECT_LT(summary.max_tiny, 1e-5);
  EXPECT_GT(summary.max_scaled, std::numbers::pi / 4);
}

INSTANTIATE_TEST_SUITE_P(TieReactances, SpaOracleWeakTies,
                         ::testing::Values(3, 4, 5), [](const auto& info) {
                           return "tie1e" + std::to_string(info.param);
                         });

TEST(SpaOracleTest, RadialDfactsBranchesGiveZero) {
  // wscc9 branches 0 (bus 1-4) and 3 (bus 3-6) are the only links of
  // their generator buses: re-scaling one only re-parametrizes that
  // bus's angle, so Col(H(x)) == Col(H0) and gamma is exactly 0.
  const grid::PowerSystem sys = grid::make_case_wscc9();
  const mtd::SpaEvaluator eval(sys, sys.reactances());
  for (const std::size_t l : {std::size_t{0}, std::size_t{3}})
    for (const double factor : {0.8, 1.2}) {
      linalg::Vector x = sys.reactances();
      x[l] *= factor;
      EXPECT_LE(eval.gamma(x), 1e-15) << "branch " << l;
    }
}

}  // namespace
}  // namespace mtdgrid
