#pragma once

#include "grid/power_system.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse_matrix.hpp"
#include "linalg/vector.hpp"

namespace mtdgrid::grid {

/// The DC measurement model of the paper (Section III):
///
///   z = H theta + n,   z = [f; -f; p]
///
/// where f are the L forward branch flows, -f the reverse flows, and p the
/// N nodal injections, so M = 2L + N. We use the *reduced* state (slack
/// angle removed), which makes H an M x (N-1) full-column-rank matrix:
///
///   H = [ D A_r^T ; -D A_r^T ; A_r D A_r^T-rows-for-all-buses ]
///
/// with A_r the reduced incidence and D = diag(base_mva / x_l).
/// Flows and injections are in MW, angles in radians.

/// Number of measurements M = 2L + N for the given system.
std::size_t measurement_count(const PowerSystem& sys);

/// Builds the measurement matrix H for reactances `x` (length L).
linalg::Matrix measurement_matrix(const PowerSystem& sys,
                                  const linalg::Vector& x);

/// Builds H at the system's current nominal reactances.
linalg::Matrix measurement_matrix(const PowerSystem& sys);

/// Builds H for reactances `x` directly in CSR, without a dense
/// intermediate — the CSR entry point of the measurement model. H has ~2 entries per flow row and (degree+1) per
/// injection row, so nnz is O(L + N) against the dense M x (N-1) block.
/// Values are bit-identical to `measurement_matrix`: each injection entry
/// accumulates its per-branch susceptance contributions in branch order,
/// the same order the dense susceptance-matrix loop uses.
linalg::SparseMatrix sparse_measurement_matrix(const PowerSystem& sys,
                                               const linalg::Vector& x);

/// Sparse H at the system's current nominal reactances.
linalg::SparseMatrix sparse_measurement_matrix(const PowerSystem& sys);

/// Column of the reduced state (slack angle removed) that `bus` maps to,
/// or `sys.num_buses()` as an out-of-range sentinel for the slack bus
/// itself (which has no column). Shared by the CSR builder and the rank-k
/// SPA evaluator so the mapping lives in exactly one place.
std::size_t reduced_state_column(const PowerSystem& sys, std::size_t bus);

/// Indices of branches whose reactance differs between `x_old` and `x_new`
/// by more than `rel_tol` relative to the old value: the D-FACTS candidate
/// "diff" that `mtd::SpaEvaluator` scores.
std::vector<std::size_t> changed_branches(const linalg::Vector& x_old,
                                          const linalg::Vector& x_new,
                                          double rel_tol = 0.0);

/// Noise-free measurement vector z = H(x) theta for the reduced state
/// `theta_reduced` (length N-1), multiplied through the CSR H: bit-equal
/// to the dense product, which only adds exact zeros besides.
linalg::Vector noiseless_measurements(const PowerSystem& sys,
                                      const linalg::Vector& x,
                                      const linalg::Vector& theta_reduced);

}  // namespace mtdgrid::grid
