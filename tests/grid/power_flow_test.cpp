#include "grid/power_flow.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "grid/cases.hpp"
#include "io/case_registry.hpp"
#include "opf/dispatch_oracle.hpp"

namespace mtdgrid::grid {
namespace {

PowerSystem make_two_bus() {
  std::vector<Bus> buses = {{0.0}, {50.0}};
  std::vector<Branch> branches(1);
  branches[0] = {.from = 0, .to = 1, .reactance = 0.1, .flow_limit_mw = 100.0};
  std::vector<Generator> gens = {
      {.bus = 0, .min_mw = 0.0, .max_mw = 100.0, .cost_per_mwh = 10.0}};
  return PowerSystem("twobus", buses, branches, gens);
}

TEST(PowerFlowTest, TwoBusAnalyticSolution) {
  const PowerSystem sys = make_two_bus();
  // Injection +50 at bus 0, -50 at bus 1: flow = 50 MW over the line,
  // theta_1 = -50 * x / base = -0.05 rad.
  const linalg::Vector injections{50.0, -50.0};
  const auto result =
      solve_dc_power_flow(sys, sys.reactances(), injections);
  EXPECT_NEAR(result.flows_mw[0], 50.0, 1e-9);
  EXPECT_NEAR(result.theta_full[1], -0.05, 1e-12);
  EXPECT_DOUBLE_EQ(result.theta_full[0], 0.0);
}

TEST(PowerFlowTest, RejectsUnbalancedInjections) {
  const PowerSystem sys = make_two_bus();
  EXPECT_THROW(
      solve_dc_power_flow(sys, sys.reactances(), linalg::Vector{50.0, -40.0}),
      std::invalid_argument);
}

TEST(PowerFlowTest, RejectsWrongLengthInjections) {
  const PowerSystem sys = make_two_bus();
  EXPECT_THROW(
      solve_dc_power_flow(sys, sys.reactances(), linalg::Vector{1.0}),
      std::invalid_argument);
}

TEST(PowerFlowTest, FlowConservationAtEveryBus) {
  const PowerSystem sys = make_case_ieee14();
  linalg::Vector injections(sys.num_buses());
  // Put all generation at the slack, loads as given.
  for (std::size_t i = 0; i < sys.num_buses(); ++i)
    injections[i] = -sys.bus(i).load_mw;
  injections[0] += sys.total_load_mw();

  const auto result =
      solve_dc_power_flow(sys, sys.reactances(), injections);
  for (std::size_t i = 0; i < sys.num_buses(); ++i) {
    double outflow = 0.0;
    for (std::size_t l = 0; l < sys.num_branches(); ++l) {
      if (sys.branch(l).from == i) outflow += result.flows_mw[l];
      if (sys.branch(l).to == i) outflow -= result.flows_mw[l];
    }
    EXPECT_NEAR(outflow, injections[i], 1e-8) << "bus " << i;
  }
}

TEST(PowerFlowTest, FlowScalesInverselyWithReactance) {
  // In a two-path ring, lowering one path's reactance draws flow onto it.
  const PowerSystem sys = make_case4();
  linalg::Vector injections(4);
  injections[0] = 100.0;
  injections[3] = -100.0;

  linalg::Vector x = sys.reactances();
  const auto before = solve_dc_power_flow(sys, x, injections);
  x[0] *= 0.5;  // halve reactance of line 1 (bus1-bus2 path)
  const auto after = solve_dc_power_flow(sys, x, injections);
  EXPECT_GT(after.flows_mw[0], before.flows_mw[0]);
}

TEST(PowerFlowTest, NodalInjectionsFromDispatch) {
  const PowerSystem sys = make_case_ieee14();
  linalg::Vector gen(sys.num_generators());
  gen[0] = sys.total_load_mw();
  const linalg::Vector injections = nodal_injections(sys, gen);
  EXPECT_NEAR(injections.sum(), 0.0, 1e-9);
  EXPECT_NEAR(injections[0], sys.total_load_mw() - sys.bus(0).load_mw, 1e-9);
  EXPECT_NEAR(injections[2], -sys.bus(2).load_mw, 1e-9);
}

TEST(PowerFlowTest, ThetaReducedConsistentWithFull) {
  const PowerSystem sys = make_case_wscc9();
  linalg::Vector injections(sys.num_buses());
  injections[0] = 90.0;
  injections[4] = -90.0;
  const auto result =
      solve_dc_power_flow(sys, sys.reactances(), injections);
  std::size_t k = 0;
  for (std::size_t i = 0; i < sys.num_buses(); ++i) {
    if (i == sys.slack_bus()) {
      EXPECT_DOUBLE_EQ(result.theta_full[i], 0.0);
    } else {
      EXPECT_DOUBLE_EQ(result.theta_full[i], result.theta_reduced[k++]);
    }
  }
}

TEST(PowerFlowTest, SuperpositionHolds) {
  // DC power flow is linear: flows(p1 + p2) = flows(p1) + flows(p2).
  const PowerSystem sys = make_case_ieee14();
  linalg::Vector p1(sys.num_buses()), p2(sys.num_buses());
  p1[0] = 30.0;
  p1[5] = -30.0;
  p2[1] = 20.0;
  p2[9] = -20.0;
  const auto r1 = solve_dc_power_flow(sys, sys.reactances(), p1);
  const auto r2 = solve_dc_power_flow(sys, sys.reactances(), p2);
  const auto r12 = solve_dc_power_flow(sys, sys.reactances(), p1 + p2);
  EXPECT_NEAR(
      linalg::max_abs_diff(r12.flows_mw, r1.flows_mw + r2.flows_mw), 0.0,
      1e-8);
}

// Oracle: the sparse-Cholesky angles against a dense LU solve of B_r
// (opf/dispatch_oracle.hpp) on every registry case up to case118 and two
// composed grids; case300 runs in case300_slow_test.
class PowerFlowOracle : public ::testing::TestWithParam<std::string> {};

TEST_P(PowerFlowOracle, AnglesMatchDenseLu) {
  test::check_power_flow_oracle(io::load_case(GetParam()), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Cases, PowerFlowOracle,
                         ::testing::Values("case4", "wscc9", "case14",
                                           "ieee30", "case57", "case118",
                                           "case14x2", "case57x2"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace mtdgrid::grid
