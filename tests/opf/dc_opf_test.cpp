#include "opf/dc_opf.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "grid/cases.hpp"
#include "grid/power_flow.hpp"
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

// --- DispatchEvaluator: amortized OPF sweeps ----------------------------

class DispatchEvaluatorProperty : public ::testing::TestWithParam<int> {};

TEST_P(DispatchEvaluatorProperty, MatchesSimplexAcrossPerturbations) {
  const PowerSystem sys =
      GetParam() % 2 == 0 ? grid::make_case14() : grid::make_case57();
  const DispatchEvaluator evaluator(sys);
  stats::Rng rng(500 + GetParam());
  const linalg::Vector lo = sys.reactance_lower_limits();
  const linalg::Vector hi = sys.reactance_upper_limits();
  for (int t = 0; t < 5; ++t) {
    linalg::Vector x = sys.reactances();
    for (std::size_t l : sys.dfacts_branches())
      x[l] = rng.uniform(lo[l], hi[l]);
    const DispatchResult reference = solve_dc_opf(sys, x);
    const DispatchResult fast = evaluator.evaluate(x);
    ASSERT_EQ(fast.feasible, reference.feasible);
    if (reference.feasible) {
      EXPECT_NEAR(fast.cost, reference.cost,
                  1e-6 * std::max(1.0, reference.cost));
      // The returned dispatch must balance and respect the flow limits.
      double total = 0.0;
      for (std::size_t g = 0; g < fast.generation_mw.size(); ++g)
        total += fast.generation_mw[g];
      EXPECT_NEAR(total, sys.total_load_mw(), 1e-6);
      for (std::size_t l = 0; l < sys.num_branches(); ++l)
        EXPECT_LE(std::abs(fast.flows_mw[l]),
                  sys.branch(l).flow_limit_mw + 1e-5);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DispatchEvaluatorProperty,
                         ::testing::Range(0, 6));

TEST(DispatchEvaluatorTest, FallsBackToSimplexUnderCongestion) {
  // Shrink one loaded line's limit so the merit-order dispatch violates it:
  // the evaluator must fall back to the LP and still match solve_dc_opf.
  PowerSystem sys = grid::make_case14();
  const DispatchResult base = solve_dc_opf(sys);
  ASSERT_TRUE(base.feasible);
  std::size_t busiest = 0;
  for (std::size_t l = 1; l < sys.num_branches(); ++l)
    if (std::abs(base.flows_mw[l]) > std::abs(base.flows_mw[busiest]))
      busiest = l;
  sys.branch(busiest).flow_limit_mw = 0.9 * std::abs(base.flows_mw[busiest]);

  const DispatchEvaluator evaluator(sys);
  const DispatchResult reference = solve_dc_opf(sys, sys.reactances());
  const DispatchResult fast = evaluator.evaluate(sys.reactances());
  ASSERT_EQ(fast.feasible, reference.feasible);
  if (reference.feasible)
    EXPECT_NEAR(fast.cost, reference.cost,
                1e-6 * std::max(1.0, reference.cost));
  EXPECT_GE(evaluator.lp_fallbacks(), 1u);
}

TEST(DispatchEvaluatorTest, FastPathIsTakenWhenUncongested) {
  const PowerSystem sys = uncongested_two_gen();
  const DispatchEvaluator evaluator(sys);
  const DispatchResult fast = evaluator.evaluate(sys.reactances());
  const DispatchResult reference = solve_dc_opf(sys);
  ASSERT_TRUE(fast.feasible);
  EXPECT_NEAR(fast.cost, reference.cost, 1e-9 * (1.0 + reference.cost));
  EXPECT_EQ(evaluator.fast_path_hits(), 1u);
  EXPECT_EQ(evaluator.lp_fallbacks(), 0u);
}

TEST(DispatchEvaluatorTest, SharedEvaluatorIsBitIdenticalAcrossThreads) {
  // The selection sweep shares one evaluator across the pool: eight
  // threads calling it at once must reproduce the serial dispatches bit
  // for bit, and the atomic counters must account for every call. The
  // line the merit-order dispatch loads most is capped at its flow at
  // nominal reactances, so the candidates land on both sides of the
  // limit and exercise both the certificate and the simplex fallback.
  PowerSystem sys = grid::make_case57();
  const DispatchResult relaxed =
      DispatchEvaluator(sys).evaluate(sys.reactances());
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
  const DispatchEvaluator evaluator(sys);
  std::vector<DispatchResult> serial;
  for (const linalg::Vector& x : xs) serial.push_back(evaluator.evaluate(x));
  EXPECT_GT(evaluator.fast_path_hits(), 0u);
  EXPECT_GT(evaluator.lp_fallbacks(), 0u);

  constexpr std::size_t kThreads = 8;
  std::vector<std::vector<DispatchResult>> parallel(
      kThreads, std::vector<DispatchResult>(xs.size()));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < xs.size(); ++i) {
        const std::size_t c = (i + 3 * t) % xs.size();
        parallel[t][c] = evaluator.evaluate(xs[c]);
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
  EXPECT_EQ(evaluator.fast_path_hits() + evaluator.lp_fallbacks(),
            (kThreads + 1) * xs.size());
}

}  // namespace
}  // namespace mtdgrid::opf
