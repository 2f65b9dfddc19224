// Determinism suite for the parallel Monte-Carlo/search engine: every hot
// path must produce BIT-IDENTICAL results for thread counts 1, 2, and 8 at
// the same seed (ISSUE 4 acceptance; DESIGN.md "Threading model &
// deterministic seeding"). The comparisons below use exact == on doubles on
// purpose — "close enough" would hide ordering bugs.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "attack/fdi_attack.hpp"
#include "core/thread_pool.hpp"
#include "estimation/bdd.hpp"
#include "estimation/detection.hpp"
#include "estimation/state_estimator.hpp"
#include "grid/cases.hpp"
#include "grid/measurement.hpp"
#include "grid/power_flow.hpp"
#include "mtd/effectiveness.hpp"
#include "mtd/selection.hpp"
#include "opf/dc_opf.hpp"
#include "opf/direct_search.hpp"
#include "stats/rng.hpp"

namespace mtdgrid {
namespace {

const std::vector<std::size_t> kThreadCounts = {1, 2, 8};

/// Runs `fn` once per thread count and returns the per-count results.
template <typename Fn>
auto with_thread_counts(Fn&& fn)
    -> std::vector<decltype(fn())> {
  std::vector<decltype(fn())> out;
  for (std::size_t threads : kThreadCounts) {
    core::ThreadPool::set_global_num_threads(threads);
    out.push_back(fn());
  }
  core::ThreadPool::set_global_num_threads(0);  // restore the default
  return out;
}

struct Scenario {
  grid::PowerSystem sys;
  linalg::SparseMatrix h0;
  linalg::SparseMatrix h_mtd;
  linalg::Vector z_ref;
};

Scenario make_scenario() {
  Scenario s{grid::make_case14(), {}, {}, {}};
  s.h0 = grid::sparse_measurement_matrix(s.sys);
  linalg::Vector x = s.sys.reactances();
  for (std::size_t l : s.sys.dfacts_branches()) x[l] *= 1.3;
  s.h_mtd = grid::sparse_measurement_matrix(s.sys, x);
  const opf::DispatchResult d = opf::solve_dc_opf(s.sys, x);
  s.z_ref = grid::noiseless_measurements(s.sys, x, d.theta_reduced);
  return s;
}

TEST(ParallelDeterminismTest, EffectivenessBitIdenticalAcrossThreadCounts) {
  const Scenario s = make_scenario();
  mtd::EffectivenessOptions opt;
  opt.num_attacks = 150;
  opt.sigma_mw = 0.1;

  const auto runs = with_thread_counts([&] {
    stats::Rng rng(2024);
    return mtd::evaluate_effectiveness(s.h0, s.h_mtd, s.z_ref, opt, rng);
  });
  for (std::size_t k = 1; k < runs.size(); ++k) {
    SCOPED_TRACE("threads=" + std::to_string(kThreadCounts[k]));
    EXPECT_EQ(runs[0].mean_detection, runs[k].mean_detection);
    ASSERT_EQ(runs[0].detection_probabilities.size(),
              runs[k].detection_probabilities.size());
    for (std::size_t i = 0; i < runs[0].detection_probabilities.size(); ++i)
      EXPECT_EQ(runs[0].detection_probabilities[i],
                runs[k].detection_probabilities[i]);
    EXPECT_EQ(runs[0].eta, runs[k].eta);
  }
}

TEST(ParallelDeterminismTest, MonteCarloEffectivenessBitIdentical) {
  const Scenario s = make_scenario();
  mtd::EffectivenessOptions opt;
  opt.num_attacks = 25;
  opt.sigma_mw = 0.1;
  opt.method = mtd::DetectionMethod::kMonteCarlo;
  opt.noise_trials = 200;

  const auto runs = with_thread_counts([&] {
    stats::Rng rng(77);
    return mtd::evaluate_effectiveness(s.h0, s.h_mtd, s.z_ref, opt, rng);
  });
  for (std::size_t k = 1; k < runs.size(); ++k) {
    SCOPED_TRACE("threads=" + std::to_string(kThreadCounts[k]));
    EXPECT_EQ(runs[0].mean_detection, runs[k].mean_detection);
    EXPECT_EQ(runs[0].detection_probabilities,
              runs[k].detection_probabilities);
  }
}

TEST(ParallelDeterminismTest, EvaluateCandidatesBitIdentical) {
  const Scenario s = make_scenario();
  std::vector<linalg::SparseMatrix> candidates;
  for (double factor : {0.85, 1.1, 1.25, 1.4}) {
    linalg::Vector x = s.sys.reactances();
    for (std::size_t l : s.sys.dfacts_branches()) x[l] *= factor;
    candidates.push_back(grid::sparse_measurement_matrix(s.sys, x));
  }
  mtd::EffectivenessOptions opt;
  opt.num_attacks = 80;

  const auto runs = with_thread_counts([&] {
    stats::Rng rng(31);
    return mtd::evaluate_candidates(s.h0, candidates, s.z_ref, opt, rng);
  });
  for (std::size_t k = 1; k < runs.size(); ++k) {
    SCOPED_TRACE("threads=" + std::to_string(kThreadCounts[k]));
    ASSERT_EQ(runs[0].size(), runs[k].size());
    for (std::size_t c = 0; c < runs[0].size(); ++c) {
      EXPECT_EQ(runs[0][c].mean_detection, runs[k][c].mean_detection);
      EXPECT_EQ(runs[0][c].detection_probabilities,
                runs[k][c].detection_probabilities);
    }
  }
}

TEST(ParallelDeterminismTest, MonteCarloDetectionBitIdentical) {
  const Scenario s = make_scenario();
  const estimation::StateEstimator est(s.h_mtd, 0.5);
  const estimation::BadDataDetector bdd(est, 0.01);
  stats::Rng attack_rng(5);
  linalg::Vector c(s.h0.cols());
  for (std::size_t i = 0; i < c.size(); ++i) c[i] = attack_rng.gaussian();
  const linalg::Vector a = s.h0 * c;

  const auto runs = with_thread_counts([&] {
    stats::Rng rng(99);
    return estimation::monte_carlo_detection_probability(est, bdd, s.z_ref,
                                                         a, 3000, rng);
  });
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
}

TEST(ParallelDeterminismTest, MultiStartBitIdentical) {
  // Multi-modal objective: many local minima, so a scheduling-dependent
  // best-of reduction would show up immediately.
  const auto objective = [](const linalg::Vector& x) {
    double v = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i)
      v += std::sin(5.0 * x[i]) + 0.1 * x[i] * x[i];
    return v;
  };
  const linalg::Vector lo(3, -4.0), hi(3, 4.0), x0(3, 0.5);
  opf::DirectSearchOptions opts;
  opts.max_evaluations = 400;

  const auto runs = with_thread_counts([&] {
    stats::Rng rng(17);
    return opf::multi_start_minimize(objective, lo, hi, x0, 7, rng, opts);
  });
  for (std::size_t k = 1; k < runs.size(); ++k) {
    SCOPED_TRACE("threads=" + std::to_string(kThreadCounts[k]));
    EXPECT_EQ(runs[0].value, runs[k].value);
    EXPECT_EQ(runs[0].evaluations, runs[k].evaluations);
    for (std::size_t i = 0; i < runs[0].x.size(); ++i)
      EXPECT_EQ(runs[0].x[i], runs[k].x[i]);
  }
}

TEST(ParallelDeterminismTest, SelectionBitIdenticalAcrossThreadCounts) {
  grid::PowerSystem sys = grid::make_case14();
  const opf::DispatchResult base = opf::solve_dc_opf(sys);
  ASSERT_TRUE(base.feasible);

  mtd::MtdSelectionOptions sel;
  sel.gamma_threshold = 0.1;
  sel.extra_starts = 4;
  sel.search.max_evaluations = 250;

  const auto runs = with_thread_counts([&] {
    stats::Rng rng(4242);
    return mtd::select_mtd_perturbation(sys, sys.reactances(), base.cost, sel,
                                        rng);
  });
  for (std::size_t k = 1; k < runs.size(); ++k) {
    SCOPED_TRACE("threads=" + std::to_string(kThreadCounts[k]));
    EXPECT_EQ(runs[0].feasible, runs[k].feasible);
    EXPECT_EQ(runs[0].spa, runs[k].spa);            // bit-identical gamma
    EXPECT_EQ(runs[0].opf_cost, runs[k].opf_cost);  // and dispatch cost
    ASSERT_EQ(runs[0].reactances.size(), runs[k].reactances.size());
    for (std::size_t i = 0; i < runs[0].reactances.size(); ++i)
      EXPECT_EQ(runs[0].reactances[i], runs[k].reactances[i])
          << "selected candidate differs at branch " << i;
  }
}

TEST(ParallelDeterminismTest, SampleAttacksAdvanceRngByOneDraw) {
  // The documented stream contract: sampling N attacks consumes exactly
  // one raw draw from the caller's generator, independent of N.
  const Scenario s = make_scenario();
  stats::Rng rng_a(8), rng_b(8), reference(8);
  (void)attack::sample_attacks(s.h0, s.z_ref, 0.08, 3, rng_a);
  (void)attack::sample_attacks(s.h0, s.z_ref, 0.08, 200, rng_b);
  (void)reference.next_u64();
  const std::uint64_t next = reference.next_u64();
  EXPECT_EQ(rng_a.next_u64(), next);
  EXPECT_EQ(rng_b.next_u64(), next);
}

}  // namespace
}  // namespace mtdgrid
