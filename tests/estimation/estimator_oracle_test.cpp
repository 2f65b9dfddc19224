#include <algorithm>
#include <string>
#include <vector>

#include "estimator_oracle.hpp"

namespace mtdgrid {
namespace {

// Every registry case except the mega-grids (estimator_oracle_slow_test),
// plus two small composed grids.
std::vector<std::string> oracle_cases() {
  std::vector<std::string> cases;
  for (const std::string& name : io::CaseRegistry::global().names())
    if (std::find(test::kSlowOracleCases.begin(),
                  test::kSlowOracleCases.end(),
                  name) == test::kSlowOracleCases.end())
      cases.push_back(name);
  cases.push_back("case14x2");
  cases.push_back("case57x2");
  return cases;
}

class EstimatorOracle : public ::testing::TestWithParam<std::string> {};

TEST_P(EstimatorOracle, MatchesQrLeastSquaresAndProperties) {
  test::check_estimator_oracle(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Cases, EstimatorOracle,
                         ::testing::ValuesIn(oracle_cases()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace mtdgrid
