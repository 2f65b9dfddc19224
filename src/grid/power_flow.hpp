#pragma once

#include "grid/power_system.hpp"
#include "linalg/vector.hpp"

namespace mtdgrid::grid {

/// Result of a DC power-flow solve.
struct DcPowerFlowResult {
  linalg::Vector theta_reduced;  ///< bus voltage angles, slack removed (rad)
  linalg::Vector theta_full;     ///< all bus angles with theta_slack = 0
  linalg::Vector flows_mw;       ///< branch flows, MW, sign = from->to
};

/// Solves the DC power flow B_r theta = p for the given nodal injections
/// (generation minus load, MW, length N). The injections must balance to
/// zero within 1e-6 of max(1, ||p||_1); the slack equation is redundant
/// and dropped.
///
/// B_r is assembled directly in CSR (branch order, the TripletBuilder
/// insertion-order contract) and solved with the minimum-degree-ordered
/// sparse Cholesky: B_r is symmetric positive definite for a connected
/// network and has ~2 entries per branch, so the solve scales to the
/// composed mega-grids, where a dense B_r would not fit. Each call
/// factors B_r once and counts one `power_flow_solves` (and one
/// `cholesky_factorizations`) in the active metrics registry.
/// Throws std::invalid_argument on a wrong-length injection vector, on
/// imbalance, or on a malformed `x` (see
/// `PowerSystem::branch_susceptances`); std::runtime_error when the
/// susceptance matrix is singular (disconnected network).
DcPowerFlowResult solve_dc_power_flow(const PowerSystem& sys,
                                      const linalg::Vector& x,
                                      const linalg::Vector& injections_mw);

/// Branch flows for a given reduced state: f = D A_r^T theta (MW).
linalg::Vector branch_flows(const PowerSystem& sys, const linalg::Vector& x,
                            const linalg::Vector& theta_reduced);

/// Nodal injections implied by a dispatch: injections_i = gen_i - load_i.
/// `generation_mw` has one entry per generator (summed onto its bus).
linalg::Vector nodal_injections(const PowerSystem& sys,
                                const linalg::Vector& generation_mw);

}  // namespace mtdgrid::grid
