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
/// zero within `balance_tol`; the slack equation is redundant and dropped.
/// Throws std::invalid_argument on imbalance, std::runtime_error when the
/// susceptance matrix is singular (disconnected network).
DcPowerFlowResult solve_dc_power_flow(const PowerSystem& sys,
                                      const linalg::Vector& x,
                                      const linalg::Vector& injections_mw,
                                      double balance_tol = 1e-6);

/// Sparse DC power flow (CSR counterpart of `solve_dc_power_flow`):
/// assembles the reduced susceptance matrix directly in CSR
/// (TripletBuilder, branch assembly order) and solves it
/// with the minimum-degree-ordered sparse Cholesky — B_r is symmetric
/// positive definite for a connected network. At mega-grid scale
/// (1k-10k buses, ROADMAP "Synthetic mega-grids") the dense LU path is
/// O(N^2) memory and O(N^3) time while the grid's B_r has ~2 entries per
/// branch, so this is the only tractable route; the composed-case audit
/// and the zone-decomposed selection boundary check run through it.
/// Same exceptions as the dense solver; angles agree with it to solver
/// tolerance (not bit-exactly — the factorizations differ), which the
/// conformance tests pin.
DcPowerFlowResult solve_dc_power_flow_sparse(const PowerSystem& sys,
                                             const linalg::Vector& x,
                                             const linalg::Vector& injections_mw,
                                             double balance_tol = 1e-6);

/// Branch flows for a given reduced state: f = D A_r^T theta (MW).
linalg::Vector branch_flows(const PowerSystem& sys, const linalg::Vector& x,
                            const linalg::Vector& theta_reduced);

/// Nodal injections implied by a dispatch: injections_i = gen_i - load_i.
/// `generation_mw` has one entry per generator (summed onto its bus).
linalg::Vector nodal_injections(const PowerSystem& sys,
                                const linalg::Vector& generation_mw);

}  // namespace mtdgrid::grid
