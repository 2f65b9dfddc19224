#include "mtd/selection.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/thread_pool.hpp"
#include "grid/cases.hpp"
#include "grid/measurement.hpp"
#include "mtd/spa.hpp"
#include "obs/scope.hpp"
#include "opf/dc_opf.hpp"

namespace mtdgrid::mtd {
namespace {

struct Fixture {
  grid::PowerSystem sys = grid::make_case_ieee14();
  linalg::Vector x_attacker = sys.reactances();
  linalg::Matrix h_attacker = grid::measurement_matrix(sys);
  double base_cost = opf::solve_dc_opf(sys).cost;

  MtdSelectionOptions fast_options(double gamma_th) const {
    MtdSelectionOptions opt;
    opt.gamma_threshold = gamma_th;
    opt.extra_starts = 3;
    opt.search.max_evaluations = 800;
    return opt;
  }
};

TEST(SelectionTest, MeetsModerateThreshold) {
  Fixture f;
  stats::Rng rng(1);
  const MtdSelectionResult r = select_mtd_perturbation(
      f.sys, f.x_attacker, f.base_cost, f.fast_options(0.2), rng);
  EXPECT_TRUE(r.feasible);
  EXPECT_GE(r.spa, 0.2 - 2e-3);
  EXPECT_TRUE(f.sys.reactances_within_limits(r.reactances));
}

TEST(SelectionTest, SpaMatchesReportedMatrix) {
  Fixture f;
  stats::Rng rng(2);
  const MtdSelectionResult r = select_mtd_perturbation(
      f.sys, f.x_attacker, f.base_cost, f.fast_options(0.15), rng);
  // The evaluator's angle against the dense oracle on the chosen key.
  EXPECT_NEAR(r.spa,
              spa(f.h_attacker, grid::measurement_matrix(f.sys, r.reactances)),
              1e-9);
}

TEST(SelectionTest, CostIncreaseConsistent) {
  Fixture f;
  stats::Rng rng(3);
  const MtdSelectionResult r = select_mtd_perturbation(
      f.sys, f.x_attacker, f.base_cost, f.fast_options(0.25), rng);
  ASSERT_TRUE(r.dispatch.feasible);
  EXPECT_NEAR(r.cost_increase,
              (r.opf_cost - f.base_cost) / f.base_cost, 1e-12);
  EXPECT_NEAR(r.opf_cost, r.dispatch.cost, 1e-9);
}

TEST(SelectionTest, PinnedGammaLandsOnThreshold) {
  Fixture f;
  stats::Rng rng(4);
  MtdSelectionOptions opt = f.fast_options(0.22);
  opt.pin_gamma = true;
  const MtdSelectionResult r =
      select_mtd_perturbation(f.sys, f.x_attacker, f.base_cost, opt, rng);
  EXPECT_TRUE(r.feasible);
  EXPECT_NEAR(r.spa, 0.22, 0.02);
}

TEST(SelectionTest, TinyThresholdIsFreeAndFeasible) {
  Fixture f;
  stats::Rng rng(5);
  const MtdSelectionResult r = select_mtd_perturbation(
      f.sys, f.x_attacker, f.base_cost, f.fast_options(0.01), rng);
  EXPECT_TRUE(r.feasible);
  // The reactance-OPF optimum costs no more than the nominal-x dispatch.
  EXPECT_LE(r.opf_cost, f.base_cost + 1e-6);
}

TEST(SelectionTest, UnreachableThresholdReportedInfeasible) {
  Fixture f;
  stats::Rng rng(6);
  // pi/2 is unreachable for a 6-branch D-FACTS deployment.
  const MtdSelectionResult r = select_mtd_perturbation(
      f.sys, f.x_attacker, f.base_cost, f.fast_options(1.5), rng);
  EXPECT_FALSE(r.feasible);
  EXPECT_LT(r.spa, 1.5);
  // The search still returns the best-achievable point with a valid OPF.
  EXPECT_TRUE(r.dispatch.feasible);
}

TEST(SelectionTest, HigherThresholdNeverCheaper) {
  // Sweeping gamma_th upward can only shrink the feasible set.
  Fixture f;
  stats::Rng rng(7);
  MtdSelectionOptions lo_opt = f.fast_options(0.05);
  MtdSelectionOptions hi_opt = f.fast_options(0.25);
  lo_opt.extra_starts = hi_opt.extra_starts = 5;
  lo_opt.search.max_evaluations = hi_opt.search.max_evaluations = 1500;
  const MtdSelectionResult lo =
      select_mtd_perturbation(f.sys, f.x_attacker, f.base_cost, lo_opt, rng);
  const MtdSelectionResult hi =
      select_mtd_perturbation(f.sys, f.x_attacker, f.base_cost, hi_opt, rng);
  ASSERT_TRUE(lo.feasible);
  ASSERT_TRUE(hi.feasible);
  // Slack covers direct-search noise on the flat-cost plateau.
  EXPECT_LE(lo.opf_cost, hi.opf_cost + 0.005 * f.base_cost);
}

TEST(SelectionTest, ValidatesArguments) {
  Fixture f;
  stats::Rng rng(8);
  EXPECT_THROW(select_mtd_perturbation(f.sys, f.x_attacker, 0.0,
                                       f.fast_options(0.1), rng),
               std::invalid_argument);
  MtdSelectionOptions bad = f.fast_options(-0.1);
  EXPECT_THROW(
      select_mtd_perturbation(f.sys, f.x_attacker, f.base_cost, bad, rng),
      std::invalid_argument);

  // A system without D-FACTS cannot host an MTD.
  std::vector<grid::Bus> buses = {{0.0}, {50.0}};
  std::vector<grid::Branch> branches(1);
  branches[0] = {.from = 0, .to = 1, .reactance = 0.1,
                 .flow_limit_mw = 100.0};
  std::vector<grid::Generator> gens = {
      {.bus = 0, .min_mw = 0.0, .max_mw = 100.0, .cost_per_mwh = 7.0}};
  const grid::PowerSystem plain("plain", buses, branches, gens);
  EXPECT_THROW(
      select_mtd_perturbation(plain, plain.reactances(), 100.0,
                              f.fast_options(0.1), rng),
      std::invalid_argument);
}

TEST(SelectionTest, MalformedAttackerKeyPassesThroughSpaEvaluatorError) {
  Fixture f;
  stats::Rng rng(9);
  const auto message_of = [&](const linalg::Vector& x_attacker) {
    try {
      select_mtd_perturbation(f.sys, x_attacker, f.base_cost,
                              f.fast_options(0.1), rng);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(message_of(linalg::Vector(3, 0.1)),
            "SpaEvaluator: reference reactance vector length");
  linalg::Vector x = f.x_attacker;
  x[f.sys.dfacts_branches()[0]] = 0.0;
  EXPECT_EQ(message_of(x), "SpaEvaluator: reference reactances must be > 0");
}

TEST(SelectionTest, WarmStartFromIncumbentIsAccepted) {
  Fixture f;
  stats::Rng rng(12);
  const MtdSelectionResult first = select_mtd_perturbation(
      f.sys, f.x_attacker, f.base_cost, f.fast_options(0.2), rng);
  ASSERT_TRUE(first.feasible);

  const auto dfacts = f.sys.dfacts_branches();
  MtdSelectionOptions warm = f.fast_options(0.2);
  warm.extra_starts = 0;  // rely on the incumbent alone
  warm.search.max_evaluations = 300;
  warm.warm_start = linalg::Vector(dfacts.size());
  for (std::size_t k = 0; k < dfacts.size(); ++k)
    warm.warm_start[k] = first.reactances[dfacts[k]];
  const MtdSelectionResult second = select_mtd_perturbation(
      f.sys, f.x_attacker, f.base_cost, warm, rng);
  EXPECT_TRUE(second.feasible);
  EXPECT_GE(second.spa, 0.2 - 2e-3);
}

TEST(SelectionTest, GramFactorizationCountIsThreadCountInvariant) {
  // One SPA evaluator per call, shared by every worker: the sparse Gram
  // factorization count must not depend on how many workers the pool has
  // (campaign and daemon transcripts byte-diff this counter at 1 vs 8
  // threads). Every candidate's dispatch also factors B_r once in its
  // power flow; those factorizations are counted in power_flow_solves
  // and subtracted, leaving exactly the one Gram factorization.
  Fixture f;
  std::vector<std::int64_t> counts;
  for (const std::size_t threads : {1, 8}) {
    core::ThreadPool::set_global_num_threads(threads);
    obs::MetricsRegistry reg;
    {
      obs::ScopedRegistry scope(&reg);
      stats::Rng rng(21);
      select_mtd_perturbation(f.sys, f.x_attacker, f.base_cost,
                              f.fast_options(0.2), rng);
    }
    counts.push_back(
        static_cast<std::int64_t>(
            reg.value(obs::Work::kCholeskyFactorizations)) -
        static_cast<std::int64_t>(reg.value(obs::Work::kPowerFlowSolves)));
  }
  core::ThreadPool::set_global_num_threads(0);  // restore the default
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_EQ(counts[0], 1);
}

}  // namespace
}  // namespace mtdgrid::mtd
