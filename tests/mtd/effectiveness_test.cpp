#include "mtd/effectiveness.hpp"

#include <gtest/gtest.h>

#include <string>

#include "grid/cases.hpp"
#include "grid/measurement.hpp"
#include "grid/power_flow.hpp"
#include "mtd/spa.hpp"
#include "opf/dc_opf.hpp"
#include "stats/rng.hpp"

namespace mtdgrid::mtd {
namespace {

struct Scenario {
  linalg::SparseMatrix h_old;
  linalg::SparseMatrix h_new;
  linalg::Vector z_ref;
};

Scenario make_scenario(double factor) {
  const grid::PowerSystem sys = grid::make_case_ieee14();
  Scenario s;
  s.h_old = grid::sparse_measurement_matrix(sys);
  linalg::Vector x = sys.reactances();
  for (std::size_t l : sys.dfacts_branches()) x[l] *= factor;
  s.h_new = grid::sparse_measurement_matrix(sys, x);
  const opf::DispatchResult d = opf::solve_dc_opf(sys, x);
  s.z_ref = grid::noiseless_measurements(sys, x, d.theta_reduced);
  return s;
}

TEST(EffectivenessTest, NoPerturbationMeansNoDetection) {
  // H' == H: every attack remains stealthy, P_D == alpha << delta.
  const Scenario s = make_scenario(1.0);
  stats::Rng rng(1);
  EffectivenessOptions opt;
  opt.num_attacks = 100;
  const EffectivenessResult r =
      evaluate_effectiveness(s.h_old, s.h_old, s.z_ref, opt, rng);
  for (double eta : r.eta) EXPECT_DOUBLE_EQ(eta, 0.0);
  EXPECT_NEAR(r.mean_detection, opt.fp_rate, 1e-6);
}

TEST(EffectivenessTest, LargePerturbationIsHighlyEffective) {
  const Scenario s = make_scenario(1.5);
  stats::Rng rng(2);
  EffectivenessOptions opt;
  opt.num_attacks = 200;
  opt.sigma_mw = 0.05;
  const EffectivenessResult r =
      evaluate_effectiveness(s.h_old, s.h_new, s.z_ref, opt, rng);
  EXPECT_GT(r.eta[0], 0.85);  // eta'(0.5)
  EXPECT_GT(r.mean_detection, 0.85);
}

TEST(EffectivenessTest, EtaDecreasesInDelta) {
  const Scenario s = make_scenario(1.3);
  stats::Rng rng(3);
  EffectivenessOptions opt;
  opt.num_attacks = 200;
  opt.deltas = {0.1, 0.3, 0.5, 0.7, 0.9, 0.99};
  const EffectivenessResult r =
      evaluate_effectiveness(s.h_old, s.h_new, s.z_ref, opt, rng);
  for (std::size_t i = 1; i < r.eta.size(); ++i)
    EXPECT_LE(r.eta[i], r.eta[i - 1] + 1e-12);
}

TEST(EffectivenessTest, MoreNoiseLowersDetection) {
  const Scenario s = make_scenario(1.3);
  EffectivenessOptions quiet, noisy;
  quiet.num_attacks = noisy.num_attacks = 200;
  quiet.sigma_mw = 0.02;
  noisy.sigma_mw = 0.5;
  stats::Rng rng_a(4), rng_b(4);
  const auto r_quiet =
      evaluate_effectiveness(s.h_old, s.h_new, s.z_ref, quiet, rng_a);
  const auto r_noisy =
      evaluate_effectiveness(s.h_old, s.h_new, s.z_ref, noisy, rng_b);
  EXPECT_GT(r_quiet.mean_detection, r_noisy.mean_detection);
}

TEST(EffectivenessTest, AnalyticAndMonteCarloAgree) {
  const Scenario s = make_scenario(1.35);
  EffectivenessOptions analytic, mc;
  analytic.num_attacks = mc.num_attacks = 60;
  analytic.sigma_mw = mc.sigma_mw = 0.1;
  analytic.method = DetectionMethod::kAnalytic;
  mc.method = DetectionMethod::kMonteCarlo;
  mc.noise_trials = 800;
  stats::Rng rng_a(5), rng_b(5);
  const auto ra =
      evaluate_effectiveness(s.h_old, s.h_new, s.z_ref, analytic, rng_a);
  const auto rb = evaluate_effectiveness(s.h_old, s.h_new, s.z_ref, mc,
                                         rng_b);
  EXPECT_NEAR(ra.mean_detection, rb.mean_detection, 0.05);
  EXPECT_NEAR(ra.eta[1], rb.eta[1], 0.12);
}

TEST(EffectivenessTest, HigherGammaMoreEffective) {
  // The paper's central conjecture (Section V-C), verified end to end.
  stats::Rng rng(6);
  EffectivenessOptions opt;
  opt.num_attacks = 300;
  opt.sigma_mw = 0.1;
  double prev_eta = -1.0, prev_gamma = -1.0;
  for (double factor : {1.05, 1.2, 1.5}) {
    const Scenario s = make_scenario(factor);
    const double gamma = spa(s.h_old.to_dense(), s.h_new.to_dense());
    const auto r =
        evaluate_effectiveness(s.h_old, s.h_new, s.z_ref, opt, rng);
    EXPECT_GT(gamma, prev_gamma);
    EXPECT_GT(r.eta[0] + 0.02, prev_eta);  // allow Monte-Carlo slack
    prev_eta = r.eta[0];
    prev_gamma = gamma;
  }
}

TEST(EffectivenessTest, EtaAtHelper) {
  const std::vector<double> pds = {0.1, 0.5, 0.9, 0.95, 1.0};
  EXPECT_DOUBLE_EQ(eta_at(pds, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(eta_at(pds, 0.5), 0.8);
  EXPECT_DOUBLE_EQ(eta_at(pds, 0.9), 0.6);
  EXPECT_DOUBLE_EQ(eta_at(pds, 0.99), 0.2);
  EXPECT_DOUBLE_EQ(eta_at({}, 0.5), 0.0);
}

TEST(EffectivenessTest, ValidatesArguments) {
  const Scenario s = make_scenario(1.2);
  stats::Rng rng(7);
  EffectivenessOptions opt;
  opt.num_attacks = 0;
  EXPECT_THROW(
      evaluate_effectiveness(s.h_old, s.h_new, s.z_ref, opt, rng),
      std::invalid_argument);
}

TEST(EffectivenessTest, RejectsZRefOfAnotherLength) {
  // A short z_ref is a pinned error in every build type, before any
  // attack is scaled by it or noise is added to it.
  const Scenario s = make_scenario(1.2);
  EffectivenessOptions opt;
  opt.num_attacks = 10;
  opt.method = DetectionMethod::kAnalytic;
  const std::string message =
      "effectiveness: z_ref length must equal the measurement count";
  for (const std::size_t length : {s.z_ref.size() - 1, s.z_ref.size() + 1}) {
    linalg::Vector z(length, 10.0);
    stats::Rng rng(7);
    try {
      evaluate_effectiveness(s.h_old, s.h_new, z, opt, rng);
      ADD_FAILURE() << "z_ref of length " << length << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), message);
    }
    try {
      evaluate_candidates(s.h_old, {s.h_new}, z, opt, rng);
      ADD_FAILURE() << "batched z_ref of length " << length
                    << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), message);
    }
  }
}

TEST(EffectivenessTest, ReproducibleWithSameSeed) {
  const Scenario s = make_scenario(1.25);
  EffectivenessOptions opt;
  opt.num_attacks = 50;
  stats::Rng rng_a(11), rng_b(11);
  const auto ra =
      evaluate_effectiveness(s.h_old, s.h_new, s.z_ref, opt, rng_a);
  const auto rb =
      evaluate_effectiveness(s.h_old, s.h_new, s.z_ref, opt, rng_b);
  EXPECT_DOUBLE_EQ(ra.mean_detection, rb.mean_detection);
}

// --- batched candidate evaluation ---------------------------------------

TEST(EvaluateCandidatesTest, MatchesPerCandidateEvaluationWithSharedSeed) {
  // With the analytic detection method the only rng use is the attack
  // sample, so the batched API must reproduce per-candidate calls made
  // with identically seeded generators.
  const grid::PowerSystem sys = grid::make_case14();
  const opf::DispatchResult base = opf::solve_dc_opf(sys);
  ASSERT_TRUE(base.feasible);
  const linalg::SparseMatrix h0 = grid::sparse_measurement_matrix(sys);
  const linalg::Vector z0 = grid::noiseless_measurements(
      sys, sys.reactances(), base.theta_reduced);

  std::vector<linalg::SparseMatrix> candidates;
  for (double factor : {1.1, 1.3, 0.8}) {
    linalg::Vector x = sys.reactances();
    for (std::size_t l : sys.dfacts_branches()) x[l] *= factor;
    candidates.push_back(grid::sparse_measurement_matrix(sys, x));
  }

  EffectivenessOptions options;
  options.num_attacks = 120;
  options.deltas = {0.5, 0.9};

  stats::Rng batch_rng(41);
  const auto batched =
      evaluate_candidates(h0, candidates, z0, options, batch_rng);
  ASSERT_EQ(batched.size(), candidates.size());

  for (std::size_t i = 0; i < candidates.size(); ++i) {
    stats::Rng fresh(41);
    const EffectivenessResult single =
        evaluate_effectiveness(h0, candidates[i], z0, options, fresh);
    ASSERT_EQ(batched[i].detection_probabilities.size(),
              single.detection_probabilities.size());
    for (std::size_t a = 0; a < single.detection_probabilities.size(); ++a)
      EXPECT_DOUBLE_EQ(batched[i].detection_probabilities[a],
                       single.detection_probabilities[a]);
    ASSERT_EQ(batched[i].eta.size(), single.eta.size());
    for (std::size_t d = 0; d < single.eta.size(); ++d)
      EXPECT_DOUBLE_EQ(batched[i].eta[d], single.eta[d]);
  }
}

TEST(EvaluateCandidatesTest, EmptyBatchAndValidation) {
  const grid::PowerSystem sys = grid::make_case14();
  const linalg::SparseMatrix h0 = grid::sparse_measurement_matrix(sys);
  const linalg::Vector z0(h0.rows(), 10.0);
  EffectivenessOptions options;
  options.num_attacks = 10;
  stats::Rng rng(1);
  EXPECT_TRUE(evaluate_candidates(h0, {}, z0, options, rng).empty());
  EXPECT_THROW(evaluate_candidates(h0, {linalg::SparseMatrix(3, 2)}, z0,
                                   options, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace mtdgrid::mtd
