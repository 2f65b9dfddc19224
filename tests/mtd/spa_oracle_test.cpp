#include <string>
#include <vector>

#include "grid/cases.hpp"
#include "grid/measurement.hpp"
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

TEST(SpaOracleTest, RadialDfactsBranchesGiveZero) {
  // wscc9 branches 0 (bus 1-4) and 3 (bus 3-6) are the only links of
  // their generator buses: re-scaling one only re-parametrizes that
  // bus's angle, so Col(H(x)) == Col(H0) and gamma is exactly 0.
  const grid::PowerSystem sys = grid::make_case_wscc9();
  const mtd::SpaEvaluator eval(sys, grid::measurement_matrix(sys));
  ASSERT_TRUE(eval.incremental());
  for (const std::size_t l : {std::size_t{0}, std::size_t{3}})
    for (const double factor : {0.8, 1.2}) {
      linalg::Vector x = sys.reactances();
      x[l] *= factor;
      EXPECT_LE(eval.gamma(x), 1e-15) << "branch " << l;
    }
}

}  // namespace
}  // namespace mtdgrid
