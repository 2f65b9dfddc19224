#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "estimation/bdd.hpp"
#include "grid/cases.hpp"
#include "grid/measurement.hpp"
#include "grid/power_flow.hpp"
#include "linalg/qr.hpp"
#include "linalg/subspace.hpp"
#include "mtd/spa.hpp"
#include "opf/dc_opf.hpp"
#include "opf/dispatch_oracle.hpp"
#include "stats/rng.hpp"

namespace mtdgrid {
namespace {

// The 300-bus large-scale scenario (see data/case300.m for provenance).
// These tests carry the ctest `slow` label — CMakeLists attaches it to
// every *_slow_test binary — and are excluded from the Debug and ASan CI
// legs, where the 1122 x 299 measurement model would dominate the suite.

TEST(Case300SlowTest, StructureAndScale) {
  const grid::PowerSystem sys = grid::make_case300();
  EXPECT_EQ(sys.name(), "case300");
  EXPECT_EQ(sys.num_buses(), 300u);
  EXPECT_EQ(sys.num_branches(), 411u);
  EXPECT_EQ(sys.num_generators(), 69u);
  EXPECT_EQ(sys.dfacts_branches().size(), 15u);
  EXPECT_NEAR(sys.total_load_mw(), 23525.85, 1e-6);
}

TEST(Case300SlowTest, MeasurementModelDimensions) {
  // M = 2L + N = 2*411 + 300 = 1122, n = 299.
  const grid::PowerSystem sys = grid::make_case300();
  EXPECT_EQ(grid::measurement_count(sys), 1122u);
  const linalg::Matrix h = grid::measurement_matrix(sys);
  EXPECT_EQ(h.rows(), 1122u);
  EXPECT_EQ(h.cols(), 299u);
}

TEST(Case300SlowTest, BaseOpfFeasibleAndBalanced) {
  const grid::PowerSystem sys = grid::make_case300();
  const opf::DispatchResult r = opf::solve_dc_opf(sys);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.generation_mw.sum(), sys.total_load_mw(), 1e-5);

  const linalg::Vector inj = grid::nodal_injections(sys, r.generation_mw);
  std::vector<double> net(sys.num_buses(), 0.0);
  for (std::size_t l = 0; l < sys.num_branches(); ++l) {
    net[sys.branch(l).from] += r.flows_mw[l];
    net[sys.branch(l).to] -= r.flows_mw[l];
  }
  for (std::size_t i = 0; i < sys.num_buses(); ++i)
    EXPECT_NEAR(net[i], inj[i], 1e-5) << "bus " << i + 1;
  for (std::size_t l = 0; l < sys.num_branches(); ++l)
    EXPECT_LE(std::abs(r.flows_mw[l]), sys.branch(l).flow_limit_mw + 1e-6)
        << "branch " << l + 1;
}

TEST(Case300SlowTest, OpfStaysFeasibleAcrossDfactsEnvelope) {
  const grid::PowerSystem sys = grid::make_case300();
  for (double factor : {0.5, 1.5}) {
    linalg::Vector x = sys.reactances();
    for (std::size_t l : sys.dfacts_branches()) x[l] *= factor;
    const opf::DispatchResult r = opf::solve_dc_opf(sys, x);
    EXPECT_TRUE(r.feasible) << "factor " << factor;
  }
}

TEST(Case300SlowTest, DispatchCertificateMatchesLp) {
  test::check_dispatch_oracle(grid::make_case300(), "case300");
}

TEST(Case300SlowTest, PowerFlowMatchesDenseLu) {
  test::check_power_flow_oracle(grid::make_case300(), "case300");
}

TEST(Case300SlowTest, FastSpaPositiveUnderPerturbation) {
  // The incremental SPA evaluator must handle the 1122 x 299 model; a
  // +30% perturbation of the 15 D-FACTS branches yields a decisively
  // positive principal angle, and the rank-k fast path agrees with the
  // thin-QR reference.
  const grid::PowerSystem sys = grid::make_case300();
  const linalg::Matrix h0 = grid::measurement_matrix(sys);
  const mtd::SpaEvaluator eval(sys, sys.reactances());
  linalg::Vector x = sys.reactances();
  for (std::size_t l : sys.dfacts_branches()) x[l] *= 1.3;
  const double gamma = eval.gamma(x);
  EXPECT_GT(gamma, 1e-3);
  EXPECT_NEAR(gamma,
              linalg::largest_principal_angle_qr(
                  h0, grid::measurement_matrix(sys, x)),
              1e-9);
}

TEST(Case300SlowTest, SparseStateEstimationMatchesDenseTo1em10) {
  // At 300-bus scale the sparse-factor estimator must reproduce a dense
  // Householder-QR least-squares solve — estimates, residual norms and
  // BDD verdicts — to <= 1e-10.
  const grid::PowerSystem sys = grid::make_case300();
  const linalg::Matrix h = grid::measurement_matrix(sys);
  const linalg::SparseMatrix hs = grid::sparse_measurement_matrix(sys);
  EXPECT_EQ(linalg::max_abs_diff(hs.to_dense(), h), 0.0);

  const double sigma = 0.01;
  const estimation::StateEstimator sparse(hs, sigma);
  const estimation::BadDataDetector bdd(sparse, 0.05);
  const linalg::QrDecomposition qr(h);

  stats::Rng rng(3001);
  for (int trial = 0; trial < 3; ++trial) {
    linalg::Vector theta(h.cols());
    for (std::size_t i = 0; i < theta.size(); ++i)
      theta[i] = 0.1 * rng.gaussian();
    linalg::Vector z = h * theta;
    for (std::size_t i = 0; i < z.size(); ++i)
      z[i] += rng.gaussian(0.0, sigma);

    const linalg::Vector x_dense = qr.solve_least_squares(z);
    const double scale = std::max(1.0, x_dense.norm_inf());
    EXPECT_LT(linalg::max_abs_diff(sparse.estimate(z), x_dense),
              1e-10 * scale);
    const double rd = (z - h * x_dense).norm() / sigma;
    const double rs = sparse.normalized_residual_norm(z);
    EXPECT_NEAR(rs, rd, 1e-10 * std::max(1.0, rd));
    EXPECT_EQ(bdd.alarm(rs), bdd.alarm(rd));
  }
}

}  // namespace
}  // namespace mtdgrid
