#include "opf/dc_opf.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "grid/power_flow.hpp"
#include "opf/simplex.hpp"

namespace mtdgrid::opf {

DispatchResult solve_dispatch_lp(const grid::PowerSystem& sys,
                                 const linalg::Vector& x) {
  const std::size_t num_gen = sys.num_generators();
  const std::size_t num_buses = sys.num_buses();
  const std::size_t num_branches = sys.num_branches();
  const std::size_t state_dim = num_buses - 1;
  const std::size_t num_vars = num_gen + state_dim;

  LinearProgram lp;
  lp.objective = linalg::Vector(num_vars);
  for (std::size_t g = 0; g < num_gen; ++g)
    lp.objective[g] = sys.generator(g).cost_per_mwh;

  // Nodal balance (one equality per bus): sum_g@i G - [B theta]_i = load_i,
  // where B theta uses the full susceptance matrix with the slack angle
  // fixed at zero (so only non-slack columns appear).
  const linalg::Matrix b_full = sys.susceptance_matrix(x);
  const linalg::Matrix b_cols = b_full.without_col(sys.slack_bus());
  lp.eq_matrix = linalg::Matrix(num_buses, num_vars);
  lp.eq_rhs = linalg::Vector(num_buses);
  for (std::size_t i = 0; i < num_buses; ++i) {
    for (std::size_t j = 0; j < state_dim; ++j)
      lp.eq_matrix(i, num_gen + j) = -b_cols(i, j);
    lp.eq_rhs[i] = sys.bus(i).load_mw;
  }
  for (std::size_t g = 0; g < num_gen; ++g)
    lp.eq_matrix(sys.generator(g).bus, g) += 1.0;

  // Flow limits: -fmax <= D A_r^T theta <= fmax (two rows per branch).
  const linalg::Matrix a_reduced = sys.reduced_branch_incidence();
  const linalg::Vector d = sys.branch_susceptances(x);
  lp.ub_matrix = linalg::Matrix(2 * num_branches, num_vars);
  lp.ub_rhs = linalg::Vector(2 * num_branches);
  for (std::size_t l = 0; l < num_branches; ++l) {
    for (std::size_t j = 0; j < state_dim; ++j) {
      const double coeff = d[l] * a_reduced(l, j);
      lp.ub_matrix(l, num_gen + j) = coeff;
      lp.ub_matrix(num_branches + l, num_gen + j) = -coeff;
    }
    lp.ub_rhs[l] = sys.branch(l).flow_limit_mw;
    lp.ub_rhs[num_branches + l] = sys.branch(l).flow_limit_mw;
  }

  // Variable bounds: generator limits; angles free.
  lp.lower_bounds = linalg::Vector(num_vars, -kLpInfinity);
  lp.upper_bounds = linalg::Vector(num_vars, kLpInfinity);
  for (std::size_t g = 0; g < num_gen; ++g) {
    lp.lower_bounds[g] = sys.generator(g).min_mw;
    lp.upper_bounds[g] = sys.generator(g).max_mw;
  }

  const LpSolution sol = solve_linear_program(lp);
  DispatchResult result;
  if (sol.status != LpStatus::kOptimal) return result;

  result.feasible = true;
  result.cost = sol.objective;
  result.generation_mw = linalg::Vector(num_gen);
  for (std::size_t g = 0; g < num_gen; ++g)
    result.generation_mw[g] = sol.x[g];
  result.theta_reduced = linalg::Vector(state_dim);
  for (std::size_t j = 0; j < state_dim; ++j)
    result.theta_reduced[j] = sol.x[num_gen + j];
  result.flows_mw = grid::branch_flows(sys, x, result.theta_reduced);
  return result;
}

DispatchResult solve_dc_opf(const grid::PowerSystem& sys) {
  return solve_dc_opf(sys, sys.reactances());
}

double dispatch_cost(const grid::PowerSystem& sys,
                     const linalg::Vector& generation_mw) {
  assert(generation_mw.size() == sys.num_generators());
  double cost = 0.0;
  for (std::size_t g = 0; g < sys.num_generators(); ++g)
    cost += sys.generator(g).cost_per_mwh * generation_mw[g];
  return cost;
}

namespace {

// Merit-order fill: every generator at its minimum, then the residual load
// assigned in ascending cost order. This is the exact optimum of the
// dispatch LP with the flow limits relaxed (the balance constraints summed
// over buses reduce to sum G = total load, and the angles are free), so it
// is an optimality certificate whenever it is flow-feasible. Returns false
// when the minimums exceed the load or the capacity falls short of it (the
// LP then decides feasibility).
bool merit_order_fill(const grid::PowerSystem& sys,
                      linalg::Vector& generation) {
  const std::size_t num_gen = sys.num_generators();
  generation = linalg::Vector(num_gen);
  double residual = sys.total_load_mw();
  for (std::size_t g = 0; g < num_gen; ++g) {
    generation[g] = sys.generator(g).min_mw;
    residual -= sys.generator(g).min_mw;
  }
  if (residual < -1e-9) return false;

  std::vector<std::size_t> order(num_gen);
  for (std::size_t g = 0; g < num_gen; ++g) order[g] = g;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return sys.generator(a).cost_per_mwh < sys.generator(b).cost_per_mwh;
  });
  for (std::size_t g : order) {
    const double headroom = sys.generator(g).max_mw - sys.generator(g).min_mw;
    const double add = std::min(residual, headroom);
    if (add > 0.0) {
      generation[g] += add;
      residual -= add;
    }
  }
  return residual <= 1e-9;
}

}  // namespace

DispatchResult solve_dc_opf(const grid::PowerSystem& sys,
                            const linalg::Vector& x) {
  linalg::Vector generation;
  if (merit_order_fill(sys, generation)) {
    try {
      grid::DcPowerFlowResult pf = grid::solve_dc_power_flow(
          sys, x, grid::nodal_injections(sys, generation));
      bool within_limits = true;
      for (std::size_t l = 0; l < sys.num_branches() && within_limits; ++l)
        within_limits =
            std::abs(pf.flows_mw[l]) <= sys.branch(l).flow_limit_mw + 1e-6;
      if (within_limits) {
        DispatchResult result;
        result.feasible = true;
        result.cost = dispatch_cost(sys, generation);
        result.generation_mw = std::move(generation);
        result.theta_reduced = std::move(pf.theta_reduced);
        result.flows_mw = std::move(pf.flows_mw);
        return result;
      }
    } catch (const std::runtime_error&) {
      // Singular B (a disconnected candidate): the LP reports infeasibility.
    }
  }
  return solve_dispatch_lp(sys, x);
}

}  // namespace mtdgrid::opf
