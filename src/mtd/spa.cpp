#include "mtd/spa.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string>

#include "grid/measurement.hpp"
#include "linalg/lu.hpp"
#include "linalg/qr.hpp"
#include "linalg/sparse_cholesky.hpp"
#include "linalg/subspace.hpp"
#include "linalg/svd.hpp"
#include "obs/scope.hpp"

namespace mtdgrid::mtd {

double spa(const linalg::Matrix& h_old, const linalg::Matrix& h_new) {
  return linalg::largest_principal_angle(h_old, h_new);
}

double smallest_angle(const linalg::Matrix& h_old,
                      const linalg::Matrix& h_new) {
  return linalg::smallest_principal_angle(h_old, h_new);
}

bool column_spaces_orthogonal(const linalg::Matrix& h_old,
                              const linalg::Matrix& h_new, double tol) {
  return smallest_angle(h_old, h_new) >= std::numbers::pi / 2.0 - tol;
}

bool SpaEvaluator::recover_reference(const linalg::SparseMatrix& h) {
  // Try to recognize h_attacker as H(sys, x_ref) for some reactances: each
  // forward-flow row is d_l * (e_from - e_to)^T, so any non-slack endpoint
  // entry reveals d_l.
  const std::size_t num_branches = sys_.num_branches();
  const std::size_t num_buses = sys_.num_buses();
  x_ref_ = linalg::Vector(num_branches);
  d_ref_ = linalg::Vector(num_branches);
  for (std::size_t l = 0; l < num_branches; ++l) {
    const grid::Branch& br = sys_.branch(l);
    const std::size_t cf = grid::reduced_state_column(sys_, br.from);
    const std::size_t ct = grid::reduced_state_column(sys_, br.to);
    double d = 0.0;
    if (cf < num_buses) {
      d = h.coeff(l, cf);
    } else if (ct < num_buses) {
      d = -h.coeff(l, ct);
    }
    if (!(d > 0.0)) return false;
    d_ref_[l] = d;
    x_ref_[l] = sys_.base_mva() / d;
  }
  return true;
}

bool SpaEvaluator::build_tables(const linalg::SparseMatrix& h) {
  const linalg::SparseCholesky gram(
      h.weighted_gram(linalg::Vector(h.rows(), 1.0)));
  if (gram.failed()) return false;

  const std::vector<std::size_t> dfacts = sys_.dfacts_branches();
  const std::size_t d = dfacts.size();
  const std::size_t n = h.cols();
  const std::size_t num_branches = sys_.num_branches();
  const std::size_t num_buses = sys_.num_buses();
  dfacts_slot_.assign(num_branches, kNotDfacts);

  // H(x) = H0 + U_D diag(delta) A_D^T: column j of U_D is the 4-sparse
  // structure vector of branch j (+1 forward flow row, -1 reverse flow
  // row, +1/-1 at the endpoint injection rows) and column j of A_D its
  // reduced-incidence vector (+1 from bus, -1 to bus, slack dropped).
  // Z = (H0^T H0)^{-1} H0^T U_D by one seminormal solve plus one
  // refinement step; U_perp = U_D - H0 Z; V = H0 (H0^T H0)^{-1} A_D, so
  // that E = V^T V.
  linalg::Matrix u_perp(h.rows(), d), v(h.rows(), d);
  t_ = linalg::Matrix(d, d);
  std::vector<std::size_t> col_from(d), col_to(d);
  for (std::size_t j = 0; j < d; ++j) {
    const grid::Branch& br = sys_.branch(dfacts[j]);
    col_from[j] = grid::reduced_state_column(sys_, br.from);
    col_to[j] = grid::reduced_state_column(sys_, br.to);
  }
  for (std::size_t j = 0; j < d; ++j) {
    const std::size_t l = dfacts[j];
    const grid::Branch& br = sys_.branch(l);
    dfacts_slot_[l] = j;
    linalg::Vector u(h.rows());
    u[l] = 1.0;
    u[num_branches + l] = -1.0;
    u[2 * num_branches + br.from] = 1.0;
    u[2 * num_branches + br.to] = -1.0;
    linalg::Vector z = gram.solve(h.transpose_times(u));
    z += gram.solve(h.transpose_times(u - h * z));
    u_perp.set_col(j, u - h * z);
    linalg::Vector a(n);
    if (col_from[j] < num_buses) a[col_from[j]] = 1.0;
    if (col_to[j] < num_buses) a[col_to[j]] = -1.0;
    v.set_col(j, h * gram.solve(a));
    for (std::size_t i = 0; i < d; ++i)
      t_(i, j) = (col_from[i] < num_buses ? z[col_from[i]] : 0.0) -
                 (col_to[i] < num_buses ? z[col_to[i]] : 0.0);
  }

  // C and E are kept as triangular factors of the explicit U_perp and V
  // (R^T R = C, resp. E). The equivalent C = U^T U - Z^T H0^T H0 Z is a
  // difference of Grams that cancels every digit as gamma -> 0, and even
  // exact Grams square the rounding: when a candidate's rotation cancels
  // to ~0 (a whole D-FACTS cycle scaled uniformly) tan^2 from C and E is
  // off by ~1e-16 absolute, i.e. gamma by ~1e-8.
  c_factor_ = linalg::QrDecomposition(u_perp).r();
  e_factor_ = linalg::QrDecomposition(v).r();
  return true;
}

SpaEvaluator::SpaEvaluator(const grid::PowerSystem& sys,
                           const linalg::Matrix& h_attacker)
    : SpaEvaluator(sys, linalg::SparseMatrix::from_dense(h_attacker)) {}

SpaEvaluator::SpaEvaluator(const grid::PowerSystem& sys,
                           const linalg::SparseMatrix& h_attacker)
    : sys_(sys) {
  if (h_attacker.rows() != grid::measurement_count(sys_) ||
      h_attacker.cols() != sys_.num_buses() - 1)
    throw std::invalid_argument(
        "SpaEvaluator: h_attacker does not have the system's measurement "
        "dimensions");

  // Recognition and verification on the sparse entries (O(nnz), no dense
  // intermediate): flow rows hold at most two stored values each.
  if (recover_reference(h_attacker)) {
    const linalg::SparseMatrix h_ref =
        grid::sparse_measurement_matrix(sys_, x_ref_);
    const double scale = std::max(1.0, h_attacker.max_abs());
    if (linalg::max_abs_diff(h_ref, h_attacker) <= 1e-8 * scale &&
        build_tables(h_ref)) {
      incremental_ = true;
      return;
    }
  }
  h0_ = h_attacker.to_dense();
  q0_ = linalg::orthonormal_basis_qr(h0_);
}

double SpaEvaluator::gamma(const linalg::Vector& x) const {
  if (x.size() != sys_.num_branches())
    throw std::invalid_argument("SpaEvaluator: reactance vector length");
  if (!incremental_) return gamma_full(grid::measurement_matrix(sys_, x));
  obs::add(obs::Work::kSpaFastPathEvals);

  // Relative tolerance: the x_ref recovered from h_attacker carries ~1e-16
  // reconstruction rounding, so candidates numerically equal to the
  // reference must diff to the empty set (gamma identically 0), and
  // sub-1e-12 reactance jitter contributes < 1e-11 rad anyway.
  const std::vector<std::size_t> changed =
      grid::changed_branches(x_ref_, x, 1e-12);
  if (changed.empty()) return 0.0;
  const std::size_t k = changed.size();
  std::vector<std::size_t> slot(k);
  linalg::Vector delta(k);
  for (std::size_t a = 0; a < k; ++a) {
    const std::size_t l = changed[a];
    if (!(x[l] > 0.0))
      throw std::invalid_argument("SpaEvaluator: reactances must be > 0");
    slot[a] = dfacts_slot_[l];
    if (slot[a] == kNotDfacts)
      throw std::invalid_argument("SpaEvaluator: branch " +
                                  std::to_string(l) +
                                  " is not a D-FACTS branch");
    delta[a] = sys_.base_mva() / x[l] - d_ref_[l];
  }

  // Col(H(x)) is the graph of y -> U_perp (I+S)^{-1} diag(delta) A^T y
  // over Col(H0), with S = diag(delta) T_cc, so tan(gamma) is that map's
  // largest singular value: tan(gamma) = sigma_max(R_C (I+S)^{-1} R_E^T)
  // for any k x k factors R_C^T R_C = C_cc and R_E^T R_E =
  // diag(delta) E_cc diag(delta) — QR-reduced from the tables' columns.
  const std::size_t d = c_factor_.rows();
  linalg::Matrix c_cols(d, k), e_cols(d, k), i_plus_s_t(k, k);
  for (std::size_t b = 0; b < k; ++b) {
    for (std::size_t i = 0; i < d; ++i) {
      c_cols(i, b) = c_factor_(i, slot[b]);
      e_cols(i, b) = e_factor_(i, slot[b]) * delta[b];
    }
    for (std::size_t a = 0; a < k; ++a)
      i_plus_s_t(b, a) =
          (a == b ? 1.0 : 0.0) + delta[a] * t_(slot[a], slot[b]);
  }
  const linalg::LuDecomposition lu(i_plus_s_t);
  // Singular I+S: some state direction of H(x) lies in Col(H0)^perp.
  if (lu.singular()) return std::numbers::pi / 2.0;
  const linalg::Matrix rc_solved =  // R_C (I+S)^{-1}
      lu.solve(linalg::QrDecomposition(c_cols).r().transposed())
          .transposed();
  const linalg::Matrix map =
      rc_solved * linalg::QrDecomposition(e_cols).r().transposed();
  return std::atan(linalg::largest_singular_value(map));
}

double SpaEvaluator::gamma_full(const linalg::Matrix& h_new) const {
  if (incremental_)
    throw std::logic_error(
        "SpaEvaluator: gamma_full needs an unrecognized attacker matrix");
  obs::add(obs::Work::kSpaFullEvals);
  if (h_new.rows() != h0_.rows())
    throw std::invalid_argument(
        "SpaEvaluator: candidate matrix row dimension");
  const linalg::Matrix qb = linalg::orthonormal_basis_qr(h_new);
  const linalg::Matrix core = q0_.transpose_times(qb);
  const double c = std::clamp(linalg::smallest_singular_value(core), 0.0, 1.0);
  return std::acos(c);
}

}  // namespace mtdgrid::mtd
