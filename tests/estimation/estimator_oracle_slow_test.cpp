#include "estimator_oracle.hpp"

namespace mtdgrid {
namespace {

// The mega-grid registry entries of the state-estimator oracle. ctest
// label `slow`: composing and factoring 1k-5k buses is too heavy for the
// Debug and ASan legs.
class EstimatorOracleSlow : public ::testing::TestWithParam<std::string> {};

TEST_P(EstimatorOracleSlow, MatchesQrLeastSquaresAndProperties) {
  test::check_estimator_oracle(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Cases, EstimatorOracleSlow,
                         ::testing::ValuesIn(test::kSlowOracleCases),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace mtdgrid
