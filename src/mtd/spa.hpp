#pragma once

#include <vector>

#include "grid/power_system.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse_matrix.hpp"
#include "linalg/vector.hpp"

namespace mtdgrid::mtd {

/// The paper's MTD design metric gamma(H, H') between the column spaces of
/// the pre- and post-perturbation measurement matrices, in radians in
/// [0, pi/2].
///
/// Definitional note (documented in DESIGN.md): the paper's Definition V.1
/// names the *smallest* principal angle, but the smallest angle is
/// identically zero for every realizable D-FACTS perturbation — any state
/// direction that is constant across the endpoints of all D-FACTS branches
/// satisfies H c = H' c, so Col(H) and Col(H') always intersect when only
/// a subset of lines is perturbed. The quantity that actually varies over
/// [0, ~0.45] rad (as in the paper's Figs. 6-11) and that validates the
/// residual bound ||r'_a|| <= sin(gamma) ||a|| (paper eq. (7)) is the
/// *largest* principal angle — exactly what MATLAB's `subspace()` returns,
/// which is what the paper's simulations used. This function therefore
/// returns the largest principal angle:
///
///  * gamma == 0    : column spaces identical (e.g. H' = (1+eta) H); every
///                    attack a = Hc stays stealthy.
///  * gamma == pi/2 : some attack direction is driven fully out of
///                    Col(H'); larger gamma forces more of every attack
///                    into the residual and so raises detection.
double spa(const linalg::Matrix& h_old, const linalg::Matrix& h_new);

/// The literal smallest principal angle of Definition V.1, exposed for
/// completeness and for the tests that demonstrate the subtlety above.
double smallest_angle(const linalg::Matrix& h_old,
                      const linalg::Matrix& h_new);

/// Theorem-1 ideal-MTD check: true when the two column spaces are fully
/// orthogonal (all principal angles equal pi/2 within `tol` radians).
bool column_spaces_orthogonal(const linalg::Matrix& h_old,
                              const linalg::Matrix& h_new,
                              double tol = 1e-8);

/// Amortized gamma(H_attacker, H(x)) evaluation for the selection hot loop.
///
/// The plain `spa()` call orthonormalizes BOTH matrices and runs a Jacobi
/// SVD of the full principal-angle core on every invocation — at IEEE
/// 57-bus scale that is ~8 ms per candidate, and the attacker matrix is
/// re-factorized thousands of times. This evaluator does the work once:
///
///  * the attacker basis Q0 and triangular factor R0 are computed at
///    construction (Householder thin QR);
///  * when `h_attacker` is recognized as a measurement matrix of `sys`
///    (H = S diag(d) A_r for recovered reactances x_ref — true for every
///    matrix produced by `grid::measurement_matrix`), a candidate x that
///    changes k branch reactances is handled as the rank-k update
///    H(x) = H0 + U W^T. The updated orthonormal factor lives in
///    span[Q0, Q_u] with Q_u spanning only k extra directions, so the
///    principal angles come from a QR of the small (n+k) x n matrix
///    [R0 + (Q0^T U) W^T; R_u W^T]: the nonzero angle sines are the
///    singular values of its bottom k x n block, and no O(M n^2) or
///    O(n^3)-SVD work is touched. ~20x faster per candidate at 57-bus
///    scale, with gammas matching `spa()` to ~1e-12 rad.
///  * otherwise (arbitrary attacker matrix) it falls back to rebuilding
///    H(x) and reusing the cached Q0 — still ~2x faster than `spa()`.
class SpaEvaluator {
 public:
  /// `h_attacker` must have the measurement dimensions of `sys`
  /// (2L + N rows, N - 1 columns); throws std::invalid_argument otherwise.
  SpaEvaluator(const grid::PowerSystem& sys, const linalg::Matrix& h_attacker);

  /// Sparse construction path: `h_attacker` in CSR, e.g. from
  /// `grid::sparse_measurement_matrix`. Reference-reactance recognition
  /// and its verification run on the O(L + N) stored entries instead of
  /// the dense M x (N-1) block; only the attacker QR basis Q0 —
  /// inherently dense — is then materialized. The rank-k gamma() update
  /// math is shared with the dense constructor unchanged.
  SpaEvaluator(const grid::PowerSystem& sys,
               const linalg::SparseMatrix& h_attacker);

  /// gamma(h_attacker, H(sys, x)) — the largest-principal-angle SPA metric,
  /// identical (to ~1e-12 rad) to `spa(h_attacker, measurement_matrix(sys,
  /// x))`. `x` is the full length-L reactance vector, all entries > 0.
  double gamma(const linalg::Vector& x) const;

  /// gamma against an explicit post-perturbation matrix (cached-Q0 path).
  double gamma_full(const linalg::Matrix& h_new) const;

  /// True when the rank-k incremental path is active (h_attacker was
  /// recognized as a measurement matrix of the system).
  bool incremental() const { return incremental_; }

  /// The reference reactances recovered from h_attacker (only meaningful
  /// when `incremental()`).
  const linalg::Vector& reference_reactances() const { return x_ref_; }

 private:
  /// Shared tail of both constructors: thin-QR factorization of h0_ (the
  /// incremental path when `recovered`, the cached-Q0 fallback otherwise).
  void build_basis(bool recovered);

  /// Recovers x_ref/d_ref from the forward-flow rows; `flow_entry(l, c)`
  /// reads H(l, c). Returns false when any branch yields no positive
  /// susceptance.
  template <typename FlowEntry>
  bool recover_reference(const FlowEntry& flow_entry);

  grid::PowerSystem sys_;       // value copy: the evaluator owns its model
  linalg::Matrix h0_;           // attacker matrix
  linalg::Matrix q0_;           // orthonormal basis of Col(h0)
  linalg::Matrix r0_;           // triangular factor (incremental mode only)
  linalg::Vector x_ref_;        // recovered reference reactances
  linalg::Vector d_ref_;        // susceptances at x_ref
  bool incremental_ = false;
};

}  // namespace mtdgrid::mtd
