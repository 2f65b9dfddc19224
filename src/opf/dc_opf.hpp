#pragma once

#include "grid/power_system.hpp"
#include "linalg/vector.hpp"

namespace mtdgrid::opf {

/// Solution of the DC optimal power flow (paper problem (1) for fixed
/// branch reactances): the least-cost generation dispatch that balances
/// the load and respects flow and generator limits.
struct DispatchResult {
  bool feasible = false;         ///< a valid dispatch was found
  linalg::Vector generation_mw;  ///< per-generator dispatch G_i (MW)
  linalg::Vector theta_reduced;  ///< bus angles, slack removed (rad)
  linalg::Vector flows_mw;       ///< branch flows (MW)
  double cost = 0.0;             ///< total generation cost, $/h
};

/// Solves the DC-OPF for the given branch reactances `x` (length L).
/// Returns `feasible == false` when no dispatch satisfies the constraints.
///
/// The flow-relaxed dispatch — every generator at its minimum, then the
/// residual load filled in ascending cost order — is the exact optimum of
/// the dispatch LP with the flow limits dropped. Each call builds that
/// merit-order fill and runs one power flow at `x`; when every |flow| is
/// within its limit + 1e-6 MW the fill is returned as a certificate of
/// optimality. Otherwise (congestion, insufficient capacity, minimums
/// above the load, or a singular susceptance matrix) the call falls back
/// to `solve_dispatch_lp`. The fill and the LP optimum have equal cost up
/// to solver tolerance; at tied generator costs they may split the tied
/// generation differently. Thread-safe; a malformed `x` throws
/// `PowerSystem::branch_susceptances`'s std::invalid_argument.
DispatchResult solve_dc_opf(const grid::PowerSystem& sys,
                            const linalg::Vector& x);

/// Solves the DC-OPF at the system's current nominal reactances.
DispatchResult solve_dc_opf(const grid::PowerSystem& sys);

/// The B-theta dispatch LP at reactances `x`, solved by the dense simplex
/// with no merit-order shortcut: `solve_dc_opf`'s fallback, and the oracle
/// the certificate is tested against.
DispatchResult solve_dispatch_lp(const grid::PowerSystem& sys,
                                 const linalg::Vector& x);

/// Total generation cost of a dispatch under the system's linear cost
/// model, sum_i c_i * G_i.
double dispatch_cost(const grid::PowerSystem& sys,
                     const linalg::Vector& generation_mw);

}  // namespace mtdgrid::opf
