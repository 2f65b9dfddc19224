#include "spa_oracle.hpp"

namespace mtdgrid {
namespace {

// case300 half of the SpaEvaluator oracle. ctest label `slow`: the dense
// 1122 x 299 reference SVDs are too heavy for the Debug and ASan legs.
TEST(SpaOracleSlow, EvaluatorMatchesDenseSpaOnCase300) {
  const test::SpaOracleSummary summary = test::check_spa_oracle("case300");
  EXPECT_LT(summary.max_tiny, 1e-5);
  EXPECT_GT(summary.max_scaled, std::numbers::pi / 4);
}

}  // namespace
}  // namespace mtdgrid
