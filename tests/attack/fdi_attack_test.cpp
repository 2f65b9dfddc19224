#include "attack/fdi_attack.hpp"

#include <gtest/gtest.h>

#include "grid/cases.hpp"
#include "grid/measurement.hpp"
#include "stats/rng.hpp"
#include "test_util.hpp"

namespace mtdgrid::attack {
namespace {

linalg::SparseMatrix ieee14_h() {
  return grid::sparse_measurement_matrix(grid::make_case_ieee14());
}

TEST(FdiAttackTest, ConstructsAEqualsHc) {
  // The CSR product is bit-equal to the dense one: the dense row sums only
  // add exact zeros besides.
  const linalg::SparseMatrix h = ieee14_h();
  stats::Rng rng(1);
  const linalg::Vector c = test::random_vector(h.cols(), rng);
  const FdiAttack atk = make_stealthy_attack(h, c);
  EXPECT_NEAR(linalg::max_abs_diff(atk.a, h.to_dense() * c), 0.0, 0.0);
  EXPECT_NEAR(linalg::max_abs_diff(atk.c, c), 0.0, 0.0);
}

TEST(FdiAttackTest, RandomAttackMagnitudeScaling) {
  // ||a||_1 / ||z||_1 must equal the requested relative magnitude.
  const linalg::SparseMatrix h = ieee14_h();
  stats::Rng rng(2);
  linalg::Vector z_ref(h.rows());
  for (std::size_t i = 0; i < z_ref.size(); ++i)
    z_ref[i] = 10.0 + rng.uniform() * 40.0;
  const FdiAttack atk = random_stealthy_attack(h, z_ref, 0.08, rng);
  EXPECT_NEAR(atk.a.norm1() / z_ref.norm1(), 0.08, 1e-10);
}

TEST(FdiAttackTest, RandomAttackConsistency) {
  // a must still equal H c after the scaling.
  const linalg::SparseMatrix h = ieee14_h();
  stats::Rng rng(3);
  const linalg::Vector z_ref(h.rows(), 25.0);
  const FdiAttack atk = random_stealthy_attack(h, z_ref, 0.05, rng);
  EXPECT_NEAR(linalg::max_abs_diff(atk.a, h * atk.c), 0.0, 1e-10);
}

TEST(FdiAttackTest, SampleAttacksCountAndDistinct) {
  const linalg::SparseMatrix h = ieee14_h();
  stats::Rng rng(4);
  const linalg::Vector z_ref(h.rows(), 25.0);
  const auto attacks = sample_attacks(h, z_ref, 0.08, 50, rng);
  ASSERT_EQ(attacks.size(), 50u);
  // Any two draws should differ.
  EXPECT_GT(linalg::max_abs_diff(attacks[0].a, attacks[1].a), 1e-9);
}

TEST(FdiAttackTest, SamplingIsReproducible) {
  const linalg::SparseMatrix h = ieee14_h();
  const linalg::Vector z_ref(h.rows(), 25.0);
  stats::Rng rng_a(7), rng_b(7);
  const auto a = sample_attacks(h, z_ref, 0.08, 5, rng_a);
  const auto b = sample_attacks(h, z_ref, 0.08, 5, rng_b);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_NEAR(linalg::max_abs_diff(a[i].a, b[i].a), 0.0, 0.0);
}

TEST(FdiAttackTest, StealthyUnderOwnMatrix) {
  // Proposition 1 with H' = H: every a = Hc stays in the column space.
  const linalg::SparseMatrix h = ieee14_h();
  stats::Rng rng(5);
  const FdiAttack atk =
      make_stealthy_attack(h, test::random_vector(h.cols(), rng));
  EXPECT_TRUE(remains_stealthy_under(h.to_dense(), atk));
}

TEST(FdiAttackTest, StealthyUnderScaledMatrix) {
  // H' = (1+eta) H spans the same space: the paper's gamma == 0 case.
  const linalg::SparseMatrix h = ieee14_h();
  stats::Rng rng(6);
  const FdiAttack atk =
      make_stealthy_attack(h, test::random_vector(h.cols(), rng));
  EXPECT_TRUE(remains_stealthy_under(h.to_dense() * 1.3, atk));
}

TEST(FdiAttackTest, DetectableUnderGenuinePerturbation) {
  const grid::PowerSystem sys = grid::make_case_ieee14();
  const linalg::SparseMatrix h = grid::sparse_measurement_matrix(sys);
  linalg::Vector x = sys.reactances();
  for (std::size_t l : sys.dfacts_branches()) x[l] *= 1.4;
  const linalg::Matrix h_new = grid::measurement_matrix(sys, x);

  stats::Rng rng(7);
  const FdiAttack atk =
      make_stealthy_attack(h, test::random_vector(h.cols(), rng));
  EXPECT_FALSE(remains_stealthy_under(h_new, atk));
}

TEST(FdiAttackTest, SharedSubspaceAttackSurvivesPerturbation) {
  // A state offset that is constant across every D-FACTS branch's
  // endpoints produces identical measurements under both matrices — the
  // fundamental reason eta'(delta) cannot reach 1 (see mtd::spa notes).
  const grid::PowerSystem sys = grid::make_case_ieee14();
  const linalg::SparseMatrix h = grid::sparse_measurement_matrix(sys);
  linalg::Vector x = sys.reactances();
  for (std::size_t l : sys.dfacts_branches()) x[l] *= 0.6;
  const linalg::Matrix h_new = grid::measurement_matrix(sys, x);

  // c constant on all buses (in reduced coordinates, the slack stays 0, so
  // pick c supported away from every D-FACTS branch endpoint instead).
  // D-FACTS branches {1-2, 2-5, 4-9, 6-11, 9-14, 12-13} (1-based). A c
  // that is equal at both endpoints of each: set all entries to the same
  // value except the slack -> violates 1-2 (slack fixed). Use instead the
  // uniform-on-{2..14} vector minus its violation: buses {2..14} all at 1
  // fails only on branch 1-2. Zero out that effect by... simply verify with
  // bus set where it *is* constant: c = 1 on {13, 14} only would hit 12-13
  // and 9-14. The safe support here: bus 10 and 11 equal, others zero
  // violates 6-11 unless bus 6 matches. Constant block {6, 10, 11, 12, 13}
  // covers 6-11 and 12-13 consistently and avoids 1-2, 2-5, 4-9, 9-14.
  linalg::Vector c(h.cols());
  for (std::size_t bus_1based : {6, 10, 11, 12, 13}) {
    c[bus_1based - 2] = 1.0;  // reduced index = bus - 2 (slack removed)
  }
  // Must not touch endpoints of D-FACTS branches asymmetrically: check via
  // the stealth predicate itself.
  const FdiAttack atk = make_stealthy_attack(h, c);
  EXPECT_TRUE(remains_stealthy_under(h_new, atk));
}

TEST(FdiAttackTest, ZeroDeviationAttackIsDegenerateAndAlwaysStealthy) {
  // Edge case: c = 0 gives a = H*0 = 0 — the "attack" changes nothing,
  // so it trivially survives every re-keying. The residual machinery
  // must not divide by ||a|| or flag it.
  const linalg::SparseMatrix h = ieee14_h();
  const FdiAttack atk = make_stealthy_attack(h, linalg::Vector(h.cols()));
  EXPECT_EQ(atk.a.norm1(), 0.0);

  const grid::PowerSystem sys = grid::make_case_ieee14();
  linalg::Vector x = sys.reactances();
  for (std::size_t l : sys.dfacts_branches()) x[l] *= 1.4;
  EXPECT_TRUE(remains_stealthy_under(grid::measurement_matrix(sys, x), atk));
  EXPECT_TRUE(remains_stealthy_under(h.to_dense(), atk));
}

TEST(FdiAttackTest, RejectsBadArguments) {
  const linalg::SparseMatrix h = ieee14_h();
  stats::Rng rng(8);
  EXPECT_THROW(random_stealthy_attack(h, linalg::Vector(h.rows(), 10.0),
                                      -0.1, rng),
               std::invalid_argument);
  EXPECT_THROW(
      random_stealthy_attack(h, linalg::Vector(h.rows(), 0.0), 0.08, rng),
      std::invalid_argument);
}

}  // namespace
}  // namespace mtdgrid::attack
