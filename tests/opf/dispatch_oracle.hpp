#pragma once

// Differential oracles for the dispatch and the power flow, shared by
// dc_opf_test and power_flow_test (the registry cases up to case118,
// case14x2 and case57x2) and case300_slow_test (case300).
//
// Both run at the same reactance draws: the nominal reactances, every
// D-FACTS device at its lower limit, every device at its upper limit,
// and three envelope draws (each device uniform in its range).
//  * `check_dispatch_oracle`: `opf::solve_dc_opf` (merit-order
//    certificate first) against the bare B-theta LP
//    `opf::solve_dispatch_lp` — same feasibility, cost within 1e-6
//    relative, balanced generation inside its limits, flows inside their
//    limits and consistent with the returned angles.
//  * `check_power_flow_oracle`: the angles of `grid::solve_dc_power_flow`
//    (sparse Cholesky) against a dense LU solve of the reduced
//    susceptance matrix built here, to 1e-10 relative.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "grid/power_flow.hpp"
#include "linalg/lu.hpp"
#include "opf/dc_opf.hpp"
#include "stats/rng.hpp"

namespace mtdgrid::test {

inline constexpr double kPowerFlowOracleTol = 1e-10;

/// The oracle's reactance draws for `sys`, seeded by `label`.
inline std::vector<linalg::Vector> oracle_reactances(
    const grid::PowerSystem& sys, const std::string& label) {
  const linalg::Vector lo = sys.reactance_lower_limits();
  const linalg::Vector hi = sys.reactance_upper_limits();
  std::vector<linalg::Vector> xs = {sys.reactances(), lo, hi};
  stats::Rng rng(500 + label.size());
  for (int t = 0; t < 3; ++t) {
    linalg::Vector x = sys.reactances();
    for (std::size_t l : sys.dfacts_branches())
      x[l] = rng.uniform(lo[l], hi[l]);
    xs.push_back(std::move(x));
  }
  return xs;
}

inline void check_dispatch_oracle(const grid::PowerSystem& sys,
                                  const std::string& label) {
  SCOPED_TRACE(label);
  const std::vector<linalg::Vector> xs = oracle_reactances(sys, label);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    SCOPED_TRACE("draw " + std::to_string(i));
    const linalg::Vector& x = xs[i];
    const opf::DispatchResult reference = opf::solve_dispatch_lp(sys, x);
    const opf::DispatchResult got = opf::solve_dc_opf(sys, x);
    ASSERT_EQ(got.feasible, reference.feasible);
    if (!reference.feasible) continue;
    EXPECT_NEAR(got.cost, reference.cost,
                1e-6 * std::max(1.0, std::abs(reference.cost)));
    EXPECT_NEAR(got.generation_mw.sum(), sys.total_load_mw(), 1e-6);
    for (std::size_t g = 0; g < sys.num_generators(); ++g) {
      EXPECT_GE(got.generation_mw[g], sys.generator(g).min_mw - 1e-9);
      EXPECT_LE(got.generation_mw[g], sys.generator(g).max_mw + 1e-9);
    }
    for (std::size_t l = 0; l < sys.num_branches(); ++l)
      EXPECT_LE(std::abs(got.flows_mw[l]),
                sys.branch(l).flow_limit_mw + 1e-5);
    EXPECT_LT(linalg::max_abs_diff(
                  grid::branch_flows(sys, x, got.theta_reduced), got.flows_mw),
              1e-6);
  }
}

inline void check_power_flow_oracle(const grid::PowerSystem& sys,
                                    const std::string& label) {
  SCOPED_TRACE(label);
  // Balanced injections: every generator at the same share of its
  // capacity, enough to cover the load.
  double capacity = 0.0;
  for (const grid::Generator& g : sys.generators()) capacity += g.max_mw;
  linalg::Vector generation(sys.num_generators());
  for (std::size_t g = 0; g < sys.num_generators(); ++g)
    generation[g] =
        sys.generator(g).max_mw * sys.total_load_mw() / capacity;
  const linalg::Vector injections = grid::nodal_injections(sys, generation);
  const std::size_t n = sys.num_buses() - 1;  // slack = bus 0
  linalg::Vector p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = injections[i + 1];

  for (const linalg::Vector& x : oracle_reactances(sys, label)) {
    const linalg::Matrix b = sys.susceptance_matrix(x);
    linalg::Matrix b_reduced(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) b_reduced(i, j) = b(i + 1, j + 1);
    const linalg::Vector dense = linalg::LuDecomposition(b_reduced).solve(p);
    const grid::DcPowerFlowResult pf =
        grid::solve_dc_power_flow(sys, x, injections);
    const double rel = linalg::max_abs_diff(pf.theta_reduced, dense) /
                       std::max(dense.norm_inf(), 1e-300);
    EXPECT_LT(rel, kPowerFlowOracleTol);
  }
}

}  // namespace mtdgrid::test
