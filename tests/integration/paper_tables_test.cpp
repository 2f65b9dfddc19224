// End-to-end reproduction of the paper's Section IV-B motivating example:
// Tables I, II and III on the 4-bus system of Fig. 3.

#include <gtest/gtest.h>

#include "attack/fdi_attack.hpp"
#include "estimation/state_estimator.hpp"
#include "grid/cases.hpp"
#include "grid/measurement.hpp"
#include "mtd/spa.hpp"
#include "opf/dc_opf.hpp"

namespace mtdgrid {
namespace {

class PaperTablesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sys_ = std::make_unique<grid::PowerSystem>(grid::make_case4());
    h0_ = grid::measurement_matrix(*sys_);
    base_ = opf::solve_dc_opf(*sys_);
    ASSERT_TRUE(base_.feasible);
  }

  // Reduced-state attack vectors of the paper (bus 1 is the slack, so the
  // paper's c = [0, 1, 1, 1] becomes [1, 1, 1] and c = [0, 0, 0, 1]
  // becomes [0, 0, 1]).
  attack::FdiAttack attack1() const {
    return attack::make_stealthy_attack(grid::sparse_measurement_matrix(*sys_),
                                        linalg::Vector{1.0, 1.0, 1.0});
  }
  attack::FdiAttack attack2() const {
    return attack::make_stealthy_attack(grid::sparse_measurement_matrix(*sys_),
                                        linalg::Vector{0.0, 0.0, 1.0});
  }

  linalg::Vector perturbed_reactances(std::size_t line, double eta) const {
    linalg::Vector x = sys_->reactances();
    x[line] *= (1.0 + eta);
    return x;
  }

  std::unique_ptr<grid::PowerSystem> sys_;
  linalg::Matrix h0_;
  opf::DispatchResult base_;
};

TEST_F(PaperTablesTest, Table2PrePerturbationOperatingPoint) {
  EXPECT_NEAR(base_.cost, 1.15e4, 1.0);
  EXPECT_NEAR(base_.generation_mw[0], 350.0, 0.01);
  EXPECT_NEAR(base_.generation_mw[1], 150.0, 0.01);
  const double expected_flows[] = {126.56, 173.44, -43.44, -26.56};
  for (std::size_t l = 0; l < 4; ++l)
    EXPECT_NEAR(base_.flows_mw[l], expected_flows[l], 0.01) << "line " << l;
}

TEST_F(PaperTablesTest, Table1ResidualPattern) {
  // Paper Table I (eta = 0.2, noiseless): attack 1 yields a non-zero BDD
  // residual only under Delta-x1 and Delta-x2; attack 2 only under
  // Delta-x3 and Delta-x4. The pattern demonstrates that single-line
  // random perturbations cannot detect all prior stealthy attacks.
  const bool attack1_detected[] = {true, true, false, false};
  const bool attack2_detected[] = {false, false, true, true};

  for (std::size_t line = 0; line < 4; ++line) {
    const linalg::Vector x = perturbed_reactances(line, 0.2);
    const estimation::StateEstimator est(
        grid::measurement_matrix(*sys_, x), 1.0);
    const double r1 = est.attack_residual_norm(attack1().a);
    const double r2 = est.attack_residual_norm(attack2().a);
    if (attack1_detected[line]) {
      EXPECT_GT(r1, 1.0) << "Delta-x" << line + 1;
    } else {
      EXPECT_NEAR(r1, 0.0, 1e-8) << "Delta-x" << line + 1;
    }
    if (attack2_detected[line]) {
      EXPECT_GT(r2, 1.0) << "Delta-x" << line + 1;
    } else {
      EXPECT_NEAR(r2, 0.0, 1e-8) << "Delta-x" << line + 1;
    }
  }
}

TEST_F(PaperTablesTest, Table1ResidualRatiosMatchPaper) {
  // The paper reports residuals (2.82, 2.87) for attack 1 under
  // (Delta-x1, Delta-x2) and (2.87, 2.82)-style values for attack 2. Our
  // attack normalization differs by a constant, so check the *ratio*.
  const estimation::StateEstimator est1(
      grid::measurement_matrix(*sys_, perturbed_reactances(0, 0.2)), 1.0);
  const estimation::StateEstimator est2(
      grid::measurement_matrix(*sys_, perturbed_reactances(1, 0.2)), 1.0);
  const double r11 = est1.attack_residual_norm(attack1().a);
  const double r12 = est2.attack_residual_norm(attack1().a);
  EXPECT_NEAR(r12 / r11, 2.87 / 2.82, 0.02);
}

TEST_F(PaperTablesTest, Table3PostPerturbationCosts) {
  // Every single-line 20% perturbation leaves the OPF feasible and costs
  // at least as much as the pre-perturbation optimum (Table III).
  for (std::size_t line = 0; line < 4; ++line) {
    const opf::DispatchResult r =
        opf::solve_dc_opf(*sys_, perturbed_reactances(line, 0.2));
    ASSERT_TRUE(r.feasible) << "Delta-x" << line + 1;
    EXPECT_GE(r.cost, base_.cost - 1e-6) << "Delta-x" << line + 1;
    EXPECT_NEAR(r.generation_mw.sum(), sys_->total_load_mw(), 1e-6);
  }
}

TEST_F(PaperTablesTest, SingleLinePerturbationsShareDirectionsWithAttacker) {
  // Section IV-C's conclusion: each Delta-x leaves a whole subspace of
  // stealthy attacks, visible as a zero smallest principal angle.
  for (std::size_t line = 0; line < 4; ++line) {
    const linalg::Matrix h =
        grid::measurement_matrix(*sys_, perturbed_reactances(line, 0.2));
    EXPECT_NEAR(mtd::smallest_angle(h0_, h), 0.0, 1e-7)
        << "Delta-x" << line + 1;
  }
}

}  // namespace
}  // namespace mtdgrid
