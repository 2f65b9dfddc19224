#pragma once

#include <cstddef>
#include <vector>

#include "grid/power_system.hpp"
#include "linalg/matrix.hpp"
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

/// Amortized gamma(H(x_ref), H(x)) evaluation for the selection hot loop.
///
/// The plain `spa()` call orthonormalizes BOTH matrices and runs a Jacobi
/// SVD of the full principal-angle core on every invocation. This
/// evaluator moves all size-dependent work into its constructor. The
/// attacker's key is its reactance vector x_ref, H0 = H(x_ref), and only
/// the d D-FACTS susceptances ever change, so H(x) = H0 + U_D diag(delta)
/// A_D^T. The constructor solves against H0 once per D-FACTS branch and
/// keeps three d x d tables: C = U_perp^T U_perp (U_perp = the part of
/// U_D outside Col(H0)), T = A_D^T Z and E = A_D^T (H0^T H0)^{-1} A_D,
/// with Z = (H0^T H0)^{-1} H0^T U_D; C and E are held as triangular
/// factors of explicit vectors so no digit is lost to squaring as
/// gamma -> 0. The solves run on the min-degree `linalg::SparseCholesky`
/// of the unweighted Gram H0^T H0, each with one refinement step. When
/// that factor fails its pivot test (the Gram squares cond(H0): a weakly
/// tied composite such as case14x2 at tie reactance 1e5) the same tables
/// come from a dense thin QR of H0 instead. A candidate changing k
/// branches then costs O(k^3) work on k x k matrices and never touches
/// an M x n or n x n matrix (DESIGN.md "Rank-k incremental updates").
/// The gammas match `spa()` to ~1e-12.
///
/// `gamma` is const and keeps no scratch state, so one evaluator may be
/// shared by any number of threads.
class SpaEvaluator {
 public:
  /// `x_ref` is the attacker's full length-L reactance vector, all entries
  /// > 0. Throws std::invalid_argument("SpaEvaluator: reference reactance
  /// vector length") or ("SpaEvaluator: reference reactances must be > 0")
  /// on a malformed key, and ("SpaEvaluator: H(x_ref) is rank deficient")
  /// when the measurement matrix at x_ref has no full column rank.
  SpaEvaluator(const grid::PowerSystem& sys, const linalg::Vector& x_ref);

  /// gamma(H(sys, x_ref), H(sys, x)) — the largest-principal-angle SPA
  /// metric, identical (to ~1e-12 rad) to `spa(measurement_matrix(sys,
  /// x_ref), measurement_matrix(sys, x))`. `x` is the full length-L
  /// reactance vector, all entries > 0, and may differ from x_ref only on
  /// D-FACTS branches; any other changed branch throws
  /// std::invalid_argument("SpaEvaluator: branch <l> is not a D-FACTS
  /// branch").
  double gamma(const linalg::Vector& x) const;

 private:
  static constexpr std::size_t kNotDfacts = static_cast<std::size_t>(-1);

  double base_mva_;
  linalg::Vector x_ref_;        // the attacker's reactances
  linalg::Vector d_ref_;        // susceptances at x_ref
  // Branch -> D-FACTS slot (kNotDfacts otherwise) and the d x d tables
  // indexed by slot.
  std::vector<std::size_t> dfacts_slot_;
  linalg::Matrix c_factor_;     // R_C: R_C^T R_C = C = U_perp^T U_perp
  linalg::Matrix t_;            // T = A_D^T Z
  linalg::Matrix e_factor_;     // R_E: R_E^T R_E = E = A_D^T (H0^T H0)^{-1} A_D
};

}  // namespace mtdgrid::mtd
