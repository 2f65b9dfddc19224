#include "grid/measurement.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "grid/cases.hpp"
#include "grid/power_flow.hpp"
#include "linalg/qr.hpp"
#include "stats/rng.hpp"
#include "test_util.hpp"

namespace mtdgrid::grid {
namespace {

TEST(MeasurementTest, DimensionsMatchPaperModel) {
  const PowerSystem sys = make_case_ieee14();
  const linalg::Matrix h = measurement_matrix(sys);
  // M = 2L + N = 2*20 + 14 = 54 measurements; state dim N-1 = 13.
  EXPECT_EQ(measurement_count(sys), 54u);
  EXPECT_EQ(h.rows(), 54u);
  EXPECT_EQ(h.cols(), 13u);
}

TEST(MeasurementTest, HasFullColumnRank) {
  for (const PowerSystem& sys :
       {make_case4(), make_case_ieee14(), make_case_ieee30(),
        make_case_wscc9()}) {
    const linalg::Matrix h = measurement_matrix(sys);
    EXPECT_EQ(linalg::rank(h), sys.num_buses() - 1) << sys.name();
  }
}

TEST(MeasurementTest, ReverseFlowRowsAreNegatedForwardRows) {
  const PowerSystem sys = make_case_ieee14();
  const linalg::Matrix h = measurement_matrix(sys);
  const std::size_t num_branches = sys.num_branches();
  for (std::size_t l = 0; l < num_branches; ++l)
    for (std::size_t j = 0; j < h.cols(); ++j)
      EXPECT_DOUBLE_EQ(h(l, j), -h(num_branches + l, j));
}

TEST(MeasurementTest, InjectionRowsAreIncidenceTimesFlows) {
  // p = A f: injection measurements must equal the signed sum of incident
  // branch-flow measurements for any state.
  const PowerSystem sys = make_case_wscc9();
  stats::Rng rng(5);
  const linalg::Vector theta = test::random_vector(sys.num_buses() - 1, rng,
                                                   0.05);
  const linalg::Vector z =
      noiseless_measurements(sys, sys.reactances(), theta);
  const std::size_t num_branches = sys.num_branches();
  for (std::size_t i = 0; i < sys.num_buses(); ++i) {
    double expected = 0.0;
    for (std::size_t l = 0; l < num_branches; ++l) {
      if (sys.branch(l).from == i) expected += z[l];
      if (sys.branch(l).to == i) expected -= z[l];
    }
    EXPECT_NEAR(z[2 * num_branches + i], expected, 1e-9) << "bus " << i;
  }
}

TEST(MeasurementTest, FlowRowsMatchPowerFlowSolution) {
  const PowerSystem sys = make_case4();
  stats::Rng rng(6);
  const linalg::Vector theta = test::random_vector(3, rng, 0.02);
  const linalg::Vector z =
      noiseless_measurements(sys, sys.reactances(), theta);
  const linalg::Vector flows = branch_flows(sys, sys.reactances(), theta);
  for (std::size_t l = 0; l < 4; ++l) EXPECT_NEAR(z[l], flows[l], 1e-9);
}

TEST(MeasurementTest, ReactancePerturbationChangesOnlyTouchedRows) {
  const PowerSystem sys = make_case_ieee14();
  linalg::Vector x = sys.reactances();
  const linalg::Matrix h0 = measurement_matrix(sys, x);
  x[0] *= 1.2;  // branch 0 connects buses 0 and 1
  const linalg::Matrix h1 = measurement_matrix(sys, x);
  const std::size_t num_branches = sys.num_branches();

  for (std::size_t r = 0; r < h0.rows(); ++r) {
    const bool flow_row_of_branch0 = (r == 0 || r == num_branches);
    const bool injection_row_of_endpoint =
        (r == 2 * num_branches + 0) || (r == 2 * num_branches + 1);
    const double diff = linalg::max_abs_diff(h0.row(r), h1.row(r));
    if (flow_row_of_branch0 || injection_row_of_endpoint) {
      EXPECT_GT(diff, 1e-6) << "row " << r << " should change";
    } else {
      EXPECT_NEAR(diff, 0.0, 1e-12) << "row " << r << " should not change";
    }
  }
}

TEST(MeasurementTest, ScalingAllReactancesScalesH) {
  // H' for x' = x / (1+eta) equals (1+eta) H: the gamma == 0 degenerate
  // MTD of the paper's Fig. 4(a).
  const PowerSystem sys = make_case_wscc9();
  const linalg::Vector x = sys.reactances();
  const double eta = 0.25;
  linalg::Vector x_scaled = x;
  x_scaled /= (1.0 + eta);
  const linalg::Matrix h = measurement_matrix(sys, x);
  const linalg::Matrix h_scaled = measurement_matrix(sys, x_scaled);
  EXPECT_NEAR(linalg::max_abs_diff(h_scaled, h * (1.0 + eta)), 0.0, 1e-9);
}

// --- sparse construction path -------------------------------------------

TEST(MeasurementSparseTest, SparseMatrixEqualsDenseBitForBit) {
  // The CSR contract: sparse H emits its contributions in the
  // same branch order the dense susceptance accumulation uses, so every
  // stored value is bit-identical to the dense entry — exact ==, not NEAR.
  for (const PowerSystem& sys :
       {make_case4(), make_case_wscc9(), make_case_ieee14(),
        make_case57()}) {
    const linalg::Matrix h = measurement_matrix(sys);
    const linalg::SparseMatrix hs = sparse_measurement_matrix(sys);
    ASSERT_EQ(hs.rows(), h.rows()) << sys.name();
    ASSERT_EQ(hs.cols(), h.cols()) << sys.name();
    EXPECT_EQ(linalg::max_abs_diff(hs.to_dense(), h), 0.0) << sys.name();
  }
}

TEST(MeasurementSparseTest, SparseMatrixEqualsDenseForPerturbedReactances) {
  const PowerSystem sys = make_case_ieee14();
  stats::Rng rng(700);
  const linalg::Vector lo = sys.reactance_lower_limits();
  const linalg::Vector hi = sys.reactance_upper_limits();
  linalg::Vector x = sys.reactances();
  for (std::size_t l : sys.dfacts_branches()) x[l] = rng.uniform(lo[l], hi[l]);
  const linalg::Matrix h = measurement_matrix(sys, x);
  const linalg::SparseMatrix hs = sparse_measurement_matrix(sys, x);
  EXPECT_EQ(linalg::max_abs_diff(hs.to_dense(), h), 0.0);
}

TEST(MeasurementSparseTest, SparsityIsBoundedByEightEntriesPerBranch) {
  // 2 endpoint entries per flow row (2L rows) plus 4 injection
  // contributions per branch: nnz <= 8L, minus slack-column drops.
  const PowerSystem sys = make_case57();
  const linalg::SparseMatrix hs = sparse_measurement_matrix(sys);
  EXPECT_LE(hs.nnz(), 8 * sys.num_branches());
  // Far below the dense M x (N-1) block at 57-bus scale and beyond.
  EXPECT_LT(hs.nnz(), hs.rows() * hs.cols() / 4);
}

// --- incremental row updates vs full rebuild ----------------------------

class IncrementalUpdateProperty : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalUpdateProperty, RowUpdateEqualsRebuildOnCase14) {
  const PowerSystem sys = make_case14();
  stats::Rng rng(600 + GetParam());
  const linalg::Vector x0 = sys.reactances();
  const linalg::Vector lo = sys.reactance_lower_limits();
  const linalg::Vector hi = sys.reactance_upper_limits();

  linalg::Vector x1 = x0;
  for (std::size_t l : sys.dfacts_branches())
    if (rng.uniform() < 0.6) x1[l] = rng.uniform(lo[l], hi[l]);

  linalg::Matrix h = measurement_matrix(sys, x0);
  const auto changed = changed_branches(x0, x1);
  update_measurement_matrix(sys, h, x0, x1, changed);
  const linalg::Matrix rebuilt = measurement_matrix(sys, x1);
  EXPECT_LT(linalg::max_abs_diff(h, rebuilt),
            1e-12 * std::max(1.0, rebuilt.max_abs()));
}

TEST_P(IncrementalUpdateProperty, RowUpdateEqualsRebuildOnCase57) {
  const PowerSystem sys = make_case57();
  stats::Rng rng(650 + GetParam());
  const linalg::Vector x0 = sys.reactances();
  const linalg::Vector lo = sys.reactance_lower_limits();
  const linalg::Vector hi = sys.reactance_upper_limits();

  linalg::Vector x1 = x0;
  for (std::size_t l : sys.dfacts_branches())
    x1[l] = rng.uniform(lo[l], hi[l]);

  linalg::Matrix h = measurement_matrix(sys, x0);
  const auto changed = changed_branches(x0, x1);
  update_measurement_matrix(sys, h, x0, x1, changed);
  const linalg::Matrix rebuilt = measurement_matrix(sys, x1);
  EXPECT_LT(linalg::max_abs_diff(h, rebuilt),
            1e-12 * std::max(1.0, rebuilt.max_abs()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalUpdateProperty,
                         ::testing::Range(0, 8));

TEST(MeasurementIncrementalTest, ChangedBranchesFindsExactlyTheDiff) {
  const PowerSystem sys = make_case14();
  linalg::Vector x0 = sys.reactances();
  linalg::Vector x1 = x0;
  x1[2] *= 1.1;
  x1[7] *= 0.9;
  const auto changed = changed_branches(x0, x1);
  ASSERT_EQ(changed.size(), 2u);
  EXPECT_EQ(changed[0], 2u);
  EXPECT_EQ(changed[1], 7u);
  EXPECT_TRUE(changed_branches(x0, x0).empty());
}

TEST(MeasurementIncrementalTest, ChainOfUpdatesStaysExact) {
  // Apply several successive perturbations to the same cached matrix; the
  // update must not accumulate error relative to a fresh rebuild.
  const PowerSystem sys = make_case57();
  stats::Rng rng(77);
  const linalg::Vector lo = sys.reactance_lower_limits();
  const linalg::Vector hi = sys.reactance_upper_limits();
  linalg::Vector x = sys.reactances();
  linalg::Matrix h = measurement_matrix(sys, x);
  for (int step = 0; step < 20; ++step) {
    linalg::Vector x_next = x;
    for (std::size_t l : sys.dfacts_branches())
      if (rng.uniform() < 0.5) x_next[l] = rng.uniform(lo[l], hi[l]);
    update_measurement_matrix(sys, h, x, x_next,
                              changed_branches(x, x_next));
    x = x_next;
  }
  const linalg::Matrix rebuilt = measurement_matrix(sys, x);
  EXPECT_LT(linalg::max_abs_diff(h, rebuilt),
            1e-10 * std::max(1.0, rebuilt.max_abs()));
}

}  // namespace
}  // namespace mtdgrid::grid
