#include "opf/dc_opf.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "grid/cases.hpp"
#include "grid/power_flow.hpp"
#include "io/case_registry.hpp"
#include "obs/scope.hpp"
#include "opf/dispatch_oracle.hpp"
#include "stats/rng.hpp"

namespace mtdgrid::opf {
namespace {

using grid::Branch;
using grid::Bus;
using grid::Generator;
using grid::PowerSystem;

PowerSystem uncongested_two_gen() {
  // Two generators, generous line limits: pure merit-order dispatch.
  std::vector<Bus> buses = {{0.0}, {80.0}, {40.0}};
  std::vector<Branch> branches(3);
  branches[0] = {.from = 0, .to = 1, .reactance = 0.1,
                 .flow_limit_mw = 500.0};
  branches[1] = {.from = 1, .to = 2, .reactance = 0.1,
                 .flow_limit_mw = 500.0};
  branches[2] = {.from = 0, .to = 2, .reactance = 0.1,
                 .flow_limit_mw = 500.0};
  std::vector<Generator> gens = {
      {.bus = 0, .min_mw = 0.0, .max_mw = 100.0, .cost_per_mwh = 5.0},
      {.bus = 2, .min_mw = 0.0, .max_mw = 100.0, .cost_per_mwh = 50.0}};
  return PowerSystem("twogen", buses, branches, gens);
}

TEST(DcOpfTest, MeritOrderWhenUncongested) {
  const PowerSystem sys = uncongested_two_gen();
  const DispatchResult r = solve_dc_opf(sys);
  ASSERT_TRUE(r.feasible);
  // Cheap generator covers everything it can.
  EXPECT_NEAR(r.generation_mw[0], 100.0, 1e-6);
  EXPECT_NEAR(r.generation_mw[1], 20.0, 1e-6);
  EXPECT_NEAR(r.cost, 100.0 * 5.0 + 20.0 * 50.0, 1e-6);
}

TEST(DcOpfTest, GenerationBalancesLoad) {
  for (const PowerSystem& sys :
       {grid::make_case4(), grid::make_case_ieee14(),
        grid::make_case_ieee30(), grid::make_case_wscc9()}) {
    const DispatchResult r = solve_dc_opf(sys);
    ASSERT_TRUE(r.feasible) << sys.name();
    EXPECT_NEAR(r.generation_mw.sum(), sys.total_load_mw(), 1e-6)
        << sys.name();
  }
}

TEST(DcOpfTest, FlowLimitsRespected) {
  for (const PowerSystem& sys :
       {grid::make_case4(), grid::make_case_ieee14(),
        grid::make_case_ieee30()}) {
    const DispatchResult r = solve_dc_opf(sys);
    ASSERT_TRUE(r.feasible) << sys.name();
    for (std::size_t l = 0; l < sys.num_branches(); ++l) {
      EXPECT_LE(std::abs(r.flows_mw[l]),
                sys.branch(l).flow_limit_mw + 1e-6)
          << sys.name() << " line " << l;
    }
  }
}

TEST(DcOpfTest, GeneratorLimitsRespected) {
  const PowerSystem sys = grid::make_case_ieee14();
  const DispatchResult r = solve_dc_opf(sys);
  ASSERT_TRUE(r.feasible);
  for (std::size_t g = 0; g < sys.num_generators(); ++g) {
    EXPECT_GE(r.generation_mw[g], sys.generator(g).min_mw - 1e-9);
    EXPECT_LE(r.generation_mw[g], sys.generator(g).max_mw + 1e-9);
  }
}

TEST(DcOpfTest, CongestionForcesRedispatch) {
  // Two buses joined by parallel lines; tightening them strands the cheap
  // generator and forces the expensive local unit to run.
  const auto build = [](double line_limit) {
    std::vector<Bus> buses = {{0.0}, {50.0}};
    std::vector<Branch> branches(2);
    branches[0] = {.from = 0, .to = 1, .reactance = 0.1,
                   .flow_limit_mw = line_limit};
    branches[1] = {.from = 0, .to = 1, .reactance = 0.1,
                   .flow_limit_mw = line_limit};
    std::vector<Generator> gens = {
        {.bus = 0, .min_mw = 0.0, .max_mw = 100.0, .cost_per_mwh = 5.0},
        {.bus = 1, .min_mw = 0.0, .max_mw = 100.0, .cost_per_mwh = 50.0}};
    return PowerSystem("parallel", buses, branches, gens);
  };
  const DispatchResult wide = solve_dc_opf(build(100.0));
  ASSERT_TRUE(wide.feasible);
  EXPECT_NEAR(wide.cost, 50.0 * 5.0, 1e-6);  // cheap unit serves everything

  const DispatchResult tight = solve_dc_opf(build(15.0));
  ASSERT_TRUE(tight.feasible);
  // Import capped at 30 MW, local unit covers the remaining 20 MW.
  EXPECT_NEAR(tight.generation_mw[0], 30.0, 1e-6);
  EXPECT_NEAR(tight.generation_mw[1], 20.0, 1e-6);
  EXPECT_GT(tight.cost, wide.cost + 1.0);
}

TEST(DcOpfTest, InfeasibleWhenLoadExceedsCapacity) {
  std::vector<Bus> buses = {{0.0}, {300.0}};
  std::vector<Branch> branches(1);
  branches[0] = {.from = 0, .to = 1, .reactance = 0.1,
                 .flow_limit_mw = 500.0};
  std::vector<Generator> gens = {
      {.bus = 0, .min_mw = 0.0, .max_mw = 100.0, .cost_per_mwh = 5.0}};
  const PowerSystem sys("overload", buses, branches, gens);
  EXPECT_FALSE(solve_dc_opf(sys).feasible);
}

TEST(DcOpfTest, InfeasibleWhenLineTooSmall) {
  std::vector<Bus> buses = {{0.0}, {50.0}};
  std::vector<Branch> branches(1);
  branches[0] = {.from = 0, .to = 1, .reactance = 0.1, .flow_limit_mw = 20.0};
  std::vector<Generator> gens = {
      {.bus = 0, .min_mw = 0.0, .max_mw = 100.0, .cost_per_mwh = 5.0}};
  const PowerSystem sys("thinline", buses, branches, gens);
  EXPECT_FALSE(solve_dc_opf(sys).feasible);
}

TEST(DcOpfTest, FlowsConsistentWithAngles) {
  const PowerSystem sys = grid::make_case_ieee14();
  const DispatchResult r = solve_dc_opf(sys);
  ASSERT_TRUE(r.feasible);
  const linalg::Vector recomputed =
      grid::branch_flows(sys, sys.reactances(), r.theta_reduced);
  EXPECT_NEAR(linalg::max_abs_diff(recomputed, r.flows_mw), 0.0, 1e-9);
}

TEST(DcOpfTest, DispatchCostHelperMatchesSolution) {
  const PowerSystem sys = grid::make_case_ieee14();
  const DispatchResult r = solve_dc_opf(sys);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(dispatch_cost(sys, r.generation_mw), r.cost, 1e-8);
}

TEST(DcOpfTest, ReactanceChangeAffectsCostUnderCongestion) {
  // On the paper's 4-bus system a +20% perturbation on line 1 (Table III
  // Delta-x1) forces a re-dispatch with a strictly higher cost.
  const PowerSystem sys = grid::make_case4();
  const double base_cost = solve_dc_opf(sys).cost;
  linalg::Vector x = sys.reactances();
  x[0] *= 1.2;
  const DispatchResult r = solve_dc_opf(sys, x);
  ASSERT_TRUE(r.feasible);
  EXPECT_GT(r.cost, base_cost);
}

// Property: OPF cost is monotone non-decreasing in total load scaling.
class DcOpfLoadMonotoneProperty : public ::testing::TestWithParam<double> {};

TEST_P(DcOpfLoadMonotoneProperty, CostIncreasesWithLoad) {
  PowerSystem sys = grid::make_case_ieee14();
  const double scale = GetParam();
  const double cost_base = solve_dc_opf(sys).cost;
  sys.scale_loads(scale);
  const DispatchResult r = solve_dc_opf(sys);
  ASSERT_TRUE(r.feasible);
  if (scale >= 1.0) {
    EXPECT_GE(r.cost, cost_base - 1e-6);
  } else {
    EXPECT_LE(r.cost, cost_base + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, DcOpfLoadMonotoneProperty,
                         ::testing::Values(0.55, 0.7, 0.85, 1.0, 1.1, 1.2));

// --- The merit-order certificate against the dispatch LP ----------------

std::uint64_t simplex_solves_during(const std::function<void()>& fn) {
  obs::MetricsRegistry reg;
  {
    obs::ScopedRegistry scope(&reg);
    fn();
  }
  return reg.value(obs::Work::kSimplexSolves);
}

// Oracle: `solve_dc_opf` (certificate first, LP fallback) against the bare
// B-theta LP (opf/dispatch_oracle.hpp) on every registry case up to
// case118 and two composed grids; case300 runs in case300_slow_test.
class DcOpfCertificateOracle
    : public ::testing::TestWithParam<std::string> {};

TEST_P(DcOpfCertificateOracle, MatchesDispatchLp) {
  test::check_dispatch_oracle(io::load_case(GetParam()), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Cases, DcOpfCertificateOracle,
                         ::testing::Values("case4", "wscc9", "case14",
                                           "ieee30", "case57", "case118",
                                           "case14x2", "case57x2"),
                         [](const auto& info) { return info.param; });

// solve_dc_opf against the bare LP at random D-FACTS reactances on case14
// (even seeds) and case57 (odd seeds). The suite keeps the name it had
// when the certificate lived in a separate DispatchEvaluator class.
class DispatchEvaluatorProperty : public ::testing::TestWithParam<int> {};

TEST_P(DispatchEvaluatorProperty, MatchesSimplexAcrossPerturbations) {
  const PowerSystem sys =
      GetParam() % 2 == 0 ? grid::make_case14() : grid::make_case57();
  stats::Rng rng(500 + GetParam());
  const linalg::Vector lo = sys.reactance_lower_limits();
  const linalg::Vector hi = sys.reactance_upper_limits();
  for (int t = 0; t < 5; ++t) {
    linalg::Vector x = sys.reactances();
    for (std::size_t l : sys.dfacts_branches())
      x[l] = rng.uniform(lo[l], hi[l]);
    const DispatchResult reference = solve_dispatch_lp(sys, x);
    const DispatchResult got = solve_dc_opf(sys, x);
    ASSERT_EQ(got.feasible, reference.feasible);
    if (reference.feasible) {
      EXPECT_NEAR(got.cost, reference.cost,
                  1e-6 * std::max(1.0, reference.cost));
      // The returned dispatch must balance and respect the flow limits.
      double total = 0.0;
      for (std::size_t g = 0; g < got.generation_mw.size(); ++g)
        total += got.generation_mw[g];
      EXPECT_NEAR(total, sys.total_load_mw(), 1e-6);
      for (std::size_t l = 0; l < sys.num_branches(); ++l)
        EXPECT_LE(std::abs(got.flows_mw[l]),
                  sys.branch(l).flow_limit_mw + 1e-5);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DispatchEvaluatorProperty,
                         ::testing::Range(0, 6));

TEST(DcOpfCertificateTest, FallsBackToLpUnderCongestion) {
  // Shrink one loaded line's limit so the merit-order dispatch violates it:
  // solve_dc_opf must run the LP and match it.
  PowerSystem sys = grid::make_case14();
  const DispatchResult base = solve_dc_opf(sys);
  ASSERT_TRUE(base.feasible);
  std::size_t busiest = 0;
  for (std::size_t l = 1; l < sys.num_branches(); ++l)
    if (std::abs(base.flows_mw[l]) > std::abs(base.flows_mw[busiest]))
      busiest = l;
  sys.branch(busiest).flow_limit_mw = 0.9 * std::abs(base.flows_mw[busiest]);

  const DispatchResult reference = solve_dispatch_lp(sys, sys.reactances());
  DispatchResult got;
  const std::uint64_t lps =
      simplex_solves_during([&] { got = solve_dc_opf(sys); });
  EXPECT_EQ(lps, 1u);
  ASSERT_EQ(got.feasible, reference.feasible);
  if (reference.feasible)
    EXPECT_NEAR(got.cost, reference.cost,
                1e-6 * std::max(1.0, reference.cost));
}

TEST(DcOpfCertificateTest, CertificateSkipsLpWhenUncongested) {
  const PowerSystem sys = uncongested_two_gen();
  DispatchResult got;
  const std::uint64_t lps =
      simplex_solves_during([&] { got = solve_dc_opf(sys); });
  EXPECT_EQ(lps, 0u);
  const DispatchResult reference = solve_dispatch_lp(sys, sys.reactances());
  ASSERT_TRUE(got.feasible);
  EXPECT_NEAR(got.cost, reference.cost, 1e-9 * (1.0 + reference.cost));
}

TEST(DcOpfCertificateTest, BitIdenticalAcrossThreads) {
  // The selection sweep calls solve_dc_opf from every pool worker: eight
  // threads calling it at once must reproduce the serial dispatches bit
  // for bit. The line the merit-order dispatch loads most is capped at
  // its flow at nominal reactances, so the candidates land on both sides
  // of the limit and exercise both the certificate and the LP fallback.
  PowerSystem sys = grid::make_case57();
  const DispatchResult relaxed = solve_dc_opf(sys);
  ASSERT_TRUE(relaxed.feasible);
  std::size_t busiest = 0;
  for (std::size_t l = 1; l < sys.num_branches(); ++l)
    if (std::abs(relaxed.flows_mw[l]) > std::abs(relaxed.flows_mw[busiest]))
      busiest = l;
  sys.branch(busiest).flow_limit_mw = std::abs(relaxed.flows_mw[busiest]);

  stats::Rng rng(808);
  const linalg::Vector lo = sys.reactance_lower_limits();
  const linalg::Vector hi = sys.reactance_upper_limits();
  std::vector<linalg::Vector> xs;
  for (int t = 0; t < 24; ++t) {
    linalg::Vector x = sys.reactances();
    for (std::size_t l : sys.dfacts_branches())
      x[l] = rng.uniform(lo[l], hi[l]);
    xs.push_back(std::move(x));
  }
  std::vector<DispatchResult> serial;
  const std::uint64_t lps = simplex_solves_during([&] {
    for (const linalg::Vector& x : xs) serial.push_back(solve_dc_opf(sys, x));
  });
  EXPECT_GT(lps, 0u);
  EXPECT_LT(lps, xs.size());

  constexpr std::size_t kThreads = 8;
  std::vector<std::vector<DispatchResult>> parallel(
      kThreads, std::vector<DispatchResult>(xs.size()));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < xs.size(); ++i) {
        const std::size_t c = (i + 3 * t) % xs.size();
        parallel[t][c] = solve_dc_opf(sys, xs[c]);
      }
    });
  for (std::thread& th : threads) th.join();

  const auto expect_same = [](const linalg::Vector& a,
                              const linalg::Vector& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  };
  for (std::size_t t = 0; t < kThreads; ++t)
    for (std::size_t i = 0; i < xs.size(); ++i) {
      SCOPED_TRACE("thread " + std::to_string(t) + " x " +
                   std::to_string(i));
      const DispatchResult& got = parallel[t][i];
      EXPECT_EQ(got.feasible, serial[i].feasible);
      EXPECT_EQ(got.cost, serial[i].cost);
      expect_same(got.generation_mw, serial[i].generation_mw);
      expect_same(got.theta_reduced, serial[i].theta_reduced);
      expect_same(got.flows_mw, serial[i].flows_mw);
    }
}

TEST(DcOpfTest, RejectsMalformedReactances) {
  // Both entry points read x through PowerSystem::branch_susceptances,
  // which pins a wrong length or a non-positive reactance to
  // std::invalid_argument (an out-of-bounds read before).
  const PowerSystem sys = grid::make_case14();
  const linalg::Vector injections =
      grid::nodal_injections(sys, solve_dc_opf(sys).generation_mw);
  linalg::Vector short_x(sys.num_branches() - 1, 0.1);
  linalg::Vector zero_x = sys.reactances();
  zero_x[3] = 0.0;
  for (const linalg::Vector& x : {short_x, zero_x}) {
    EXPECT_THROW(solve_dc_opf(sys, x), std::invalid_argument);
    EXPECT_THROW(solve_dispatch_lp(sys, x), std::invalid_argument);
    EXPECT_THROW(grid::solve_dc_power_flow(sys, x, injections),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace mtdgrid::opf
