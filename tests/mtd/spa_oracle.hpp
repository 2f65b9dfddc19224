#pragma once

// Differential oracle for mtd::SpaEvaluator, shared by spa_oracle_test
// (the small registry cases, case14x2 and case57x2, and case14x2 with
// weak ties) and spa_oracle_slow_test (case300).
//
// For each case the evaluator is built on two attacker keys — the
// nominal reactances and a seeded D-FACTS envelope draw — and every
// candidate's gamma is compared with the dense reference
// `spa(measurement_matrix(sys, x_att), measurement_matrix(sys, x))` to
// `kSpaOracleTol` absolute. Candidates cover:
//  * envelope draws: every D-FACTS branch uniform in its envelope;
//  * random subsets: each D-FACTS branch moved with probability 1/2;
//  * box corners: every D-FACTS branch at its lower or upper limit;
//  * tiny perturbations: 1e-7 relative steps (gamma ~ 0);
//  * reactances scaled by 10^4 or 10^-4 (gamma past pi/4).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <string>
#include <vector>

#include "grid/measurement.hpp"
#include "io/case_registry.hpp"
#include "mtd/spa.hpp"
#include "stats/rng.hpp"

namespace mtdgrid::test {

inline constexpr double kSpaOracleTol = 1e-10;

/// Largest gamma seen per draw kind, for the coverage assertions.
struct SpaOracleSummary {
  double max_tiny = 0.0;
  double max_scaled = 0.0;
};

/// Candidates for one attacker: reactance vectors that differ from
/// `x_att` only on the D-FACTS branches. `kind` labels each candidate.
inline void spa_oracle_candidates(const grid::PowerSystem& sys,
                                  const linalg::Vector& x_att,
                                  stats::Rng& rng,
                                  std::vector<linalg::Vector>& xs,
                                  std::vector<std::string>& kinds) {
  const std::vector<std::size_t> dfacts = sys.dfacts_branches();
  const linalg::Vector lo = sys.reactance_lower_limits();
  const linalg::Vector hi = sys.reactance_upper_limits();
  const auto add = [&](const std::string& kind, const auto& set) {
    linalg::Vector x = x_att;
    for (const std::size_t l : dfacts) set(l, x[l]);
    xs.push_back(std::move(x));
    kinds.push_back(kind);
  };
  for (int t = 0; t < 3; ++t)
    add("envelope",
        [&](std::size_t l, double& x) { x = rng.uniform(lo[l], hi[l]); });
  for (int t = 0; t < 3; ++t)
    add("subset", [&](std::size_t l, double& x) {
      if (rng.uniform() < 0.5) x = rng.uniform(lo[l], hi[l]);
    });
  for (int t = 0; t < 2; ++t)
    add("corner", [&](std::size_t l, double& x) {
      x = rng.uniform() < 0.5 ? lo[l] : hi[l];
    });
  for (int t = 0; t < 2; ++t)
    add("tiny", [&](std::size_t, double& x) {
      x *= 1.0 + 1e-7 * rng.uniform(-1.0, 1.0);
    });
  for (const double scale : {1e4, 1e-4})
    add("scaled", [&](std::size_t, double& x) {
      if (rng.uniform() < 0.5) x *= scale;
    });
}

/// Runs the oracle on `sys` for the nominal and one envelope attacker
/// key; returns the per-kind maxima over both. `label` names the case in
/// failure traces and seeds the draws. With `compare_scaled` false the
/// 10^+-4 scalings are range-checked but not compared with `spa()`: on a
/// weakly tied composite they make H(x) so ill-conditioned that the
/// angle itself is not defined to 1e-10 in double precision.
inline SpaOracleSummary check_spa_oracle(const grid::PowerSystem& sys,
                                         const std::string& label,
                                         bool compare_scaled = true) {
  SCOPED_TRACE(label);
  stats::Rng rng(0x5BA0 + label.size());
  linalg::Vector x_envelope = sys.reactances();
  const linalg::Vector lo = sys.reactance_lower_limits();
  const linalg::Vector hi = sys.reactance_upper_limits();
  for (const std::size_t l : sys.dfacts_branches())
    x_envelope[l] = rng.uniform(lo[l], hi[l]);

  SpaOracleSummary summary;
  for (const bool perturbed : {false, true}) {
    SCOPED_TRACE(perturbed ? "perturbed attacker" : "nominal attacker");
    const linalg::Vector x_att = perturbed ? x_envelope : sys.reactances();
    const linalg::Matrix h_att = grid::measurement_matrix(sys, x_att);
    const mtd::SpaEvaluator eval(sys, x_att);
    EXPECT_EQ(eval.gamma(x_att), 0.0);

    std::vector<linalg::Vector> xs;
    std::vector<std::string> kinds;
    spa_oracle_candidates(sys, x_att, rng, xs, kinds);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      SCOPED_TRACE(kinds[i] + " draw " + std::to_string(i));
      const double got = eval.gamma(xs[i]);
      if (compare_scaled || kinds[i] != "scaled")
        EXPECT_NEAR(got,
                    mtd::spa(h_att, grid::measurement_matrix(sys, xs[i])),
                    kSpaOracleTol);
      EXPECT_GE(got, 0.0);
      EXPECT_LE(got, std::numbers::pi / 2);
      if (kinds[i] == "tiny")
        summary.max_tiny = std::max(summary.max_tiny, got);
      if (kinds[i] == "scaled")
        summary.max_scaled = std::max(summary.max_scaled, got);
    }
  }
  return summary;
}

/// The oracle on a registry case.
inline SpaOracleSummary check_spa_oracle(const std::string& case_name) {
  return check_spa_oracle(io::load_case(case_name), case_name);
}

}  // namespace mtdgrid::test
