#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "grid/cases.hpp"
#include "grid/measurement.hpp"
#include "grid/power_flow.hpp"
#include "mtd/effectiveness.hpp"
#include "mtd/selection.hpp"
#include "mtd/spa.hpp"
#include "opf/dc_opf.hpp"

namespace mtdgrid {
namespace {

// IEEE 118-bus scenario, loaded from data/case118.m through the io
// subsystem: structure, measurement model, OPF feasibility across the
// D-FACTS envelope, and the full selection -> dispatch -> effectiveness
// pipeline (PR acceptance criterion).

TEST(Case118Test, StructureMatchesIeee118) {
  const grid::PowerSystem sys = grid::make_case118();
  EXPECT_EQ(sys.name(), "case118");
  EXPECT_EQ(sys.num_buses(), 118u);
  EXPECT_EQ(sys.num_branches(), 186u);
  EXPECT_EQ(sys.num_generators(), 19u);
  EXPECT_EQ(sys.dfacts_branches().size(), 12u);
  EXPECT_NEAR(sys.total_load_mw(), 4242.0, 1e-9);

  double capacity = 0.0;
  for (std::size_t g = 0; g < sys.num_generators(); ++g)
    capacity += sys.generator(g).max_mw;
  EXPECT_GT(capacity, 1.2 * sys.total_load_mw());
}

TEST(Case118Test, KeepsParallelCircuits) {
  // case118's double circuits (42-49, 49-54, 49-66, 56-59, 77-80, 89-90,
  // 89-92) must survive into the branch list as distinct branches.
  const grid::PowerSystem sys = grid::make_case118();
  const auto count = [&](std::size_t f, std::size_t t) {
    int n = 0;
    for (const grid::Branch& br : sys.branches())
      if (br.from == f - 1 && br.to == t - 1) ++n;
    return n;
  };
  EXPECT_EQ(count(42, 49), 2);
  EXPECT_EQ(count(49, 54), 2);
  EXPECT_EQ(count(49, 66), 2);
  EXPECT_EQ(count(56, 59), 2);
  EXPECT_EQ(count(77, 80), 2);
  EXPECT_EQ(count(89, 90), 2);
  EXPECT_EQ(count(89, 92), 2);
}

TEST(Case118Test, MeasurementModelDimensions) {
  // M = 2L + N = 2*186 + 118 = 490 measurements, n = N - 1 = 117 states.
  const grid::PowerSystem sys = grid::make_case118();
  EXPECT_EQ(grid::measurement_count(sys), 490u);
  const linalg::Matrix h = grid::measurement_matrix(sys);
  EXPECT_EQ(h.rows(), 490u);
  EXPECT_EQ(h.cols(), 117u);
}

TEST(Case118Test, BaseOpfFeasibleAndBalanced) {
  const grid::PowerSystem sys = grid::make_case118();
  const opf::DispatchResult r = opf::solve_dc_opf(sys);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.generation_mw.sum(), sys.total_load_mw(), 1e-6);

  const linalg::Vector inj = grid::nodal_injections(sys, r.generation_mw);
  std::vector<double> net(sys.num_buses(), 0.0);
  for (std::size_t l = 0; l < sys.num_branches(); ++l) {
    net[sys.branch(l).from] += r.flows_mw[l];
    net[sys.branch(l).to] -= r.flows_mw[l];
  }
  for (std::size_t i = 0; i < sys.num_buses(); ++i)
    EXPECT_NEAR(net[i], inj[i], 1e-6) << "bus " << i + 1;
  for (std::size_t l = 0; l < sys.num_branches(); ++l)
    EXPECT_LE(std::abs(r.flows_mw[l]), sys.branch(l).flow_limit_mw + 1e-9)
        << "branch " << l + 1;
}

TEST(Case118Test, OpfStaysFeasibleAcrossDfactsEnvelope) {
  const grid::PowerSystem sys = grid::make_case118();
  for (double factor : {0.5, 0.75, 1.25, 1.5}) {
    linalg::Vector x = sys.reactances();
    for (std::size_t l : sys.dfacts_branches()) x[l] *= factor;
    const opf::DispatchResult r = opf::solve_dc_opf(sys, x);
    EXPECT_TRUE(r.feasible) << "factor " << factor;
  }
}

TEST(Case118Test, FastSpaMatchesReference) {
  const grid::PowerSystem sys = grid::make_case118();
  const linalg::Matrix h0 = grid::measurement_matrix(sys);
  const mtd::SpaEvaluator eval(sys, sys.reactances());
  linalg::Vector x = sys.reactances();
  for (std::size_t l : sys.dfacts_branches()) x[l] *= 1.3;
  const double reference = mtd::spa(h0, grid::measurement_matrix(sys, x));
  EXPECT_NEAR(eval.gamma(x), reference, 1e-9);
  EXPECT_GT(reference, 0.0);
}

TEST(Case118Test, SelectionDispatchEffectivenessPipeline) {
  // The acceptance pipeline: attacker learns H0, the defender selects an
  // SPA-constrained perturbation (fast path), re-dispatches, and the
  // chosen MTD detects most of the sampled attacks.
  const grid::PowerSystem sys = grid::make_case118();
  stats::Rng rng(118);
  const opf::DispatchResult base = opf::solve_dc_opf(sys);
  ASSERT_TRUE(base.feasible);

  mtd::MtdSelectionOptions sel;
  sel.gamma_threshold = 0.1;
  sel.extra_starts = 1;
  sel.search.max_evaluations = 120;
  const mtd::MtdSelectionResult selection =
      mtd::select_mtd_perturbation(sys, sys.reactances(), base.cost, sel,
                                   rng);
  ASSERT_TRUE(selection.dispatch.feasible);
  EXPECT_GT(selection.spa, 0.0);
  EXPECT_GE(selection.opf_cost, base.cost - 1e-6);

  const linalg::Vector z_ref = grid::noiseless_measurements(
      sys, selection.reactances, selection.dispatch.theta_reduced);
  mtd::EffectivenessOptions eff;
  eff.num_attacks = 60;
  eff.sigma_mw = 0.05;
  const mtd::EffectivenessResult effectiveness = mtd::evaluate_effectiveness(
      grid::sparse_measurement_matrix(sys),
      grid::sparse_measurement_matrix(sys, selection.reactances), z_ref, eff,
      rng);
  EXPECT_GT(effectiveness.eta[0], 0.5);  // eta'(0.5)
}

}  // namespace
}  // namespace mtdgrid
