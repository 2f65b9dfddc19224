#include "mtd/spa.hpp"

#include <cmath>
#include <numbers>
#include <optional>
#include <stdexcept>
#include <string>

#include "grid/measurement.hpp"
#include "linalg/lu.hpp"
#include "linalg/qr.hpp"
#include "linalg/sparse_cholesky.hpp"
#include "linalg/sparse_matrix.hpp"
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

SpaEvaluator::SpaEvaluator(const grid::PowerSystem& sys,
                           const linalg::Vector& x_ref)
    : base_mva_(sys.base_mva()), x_ref_(x_ref) {
  const std::size_t num_branches = sys.num_branches();
  const std::size_t num_buses = sys.num_buses();
  if (x_ref_.size() != num_branches)
    throw std::invalid_argument(
        "SpaEvaluator: reference reactance vector length");
  for (std::size_t l = 0; l < num_branches; ++l)
    if (!(x_ref_[l] > 0.0))
      throw std::invalid_argument(
          "SpaEvaluator: reference reactances must be > 0");
  d_ref_ = sys.branch_susceptances(x_ref_);

  // The two least-squares products of H0 = H(x_ref) the tables need:
  // z = (H0^T H0)^{-1} H0^T u and v = H0 (H0^T H0)^{-1} a. The sparse
  // Gram factor serves both, each with one refinement step. The Gram
  // squares cond(H0), so on weakly tied composites it fails its pivot
  // test; a dense thin QR H0 = Q R then gives z = R^{-1} Q^T u and
  // v = Q R^{-T} a.
  const linalg::SparseMatrix h = grid::sparse_measurement_matrix(sys, x_ref_);
  const std::size_t n = h.cols();
  const linalg::SparseCholesky gram(
      h.weighted_gram(linalg::Vector(h.rows(), 1.0)));
  std::optional<linalg::QrDecomposition> qr;
  if (gram.failed()) {
    qr.emplace(h.to_dense());
    if (qr->rank() < n)
      throw std::invalid_argument("SpaEvaluator: H(x_ref) is rank deficient");
  }
  const auto project = [&](const linalg::Vector& u) {
    if (qr) return qr->solve_least_squares(u);
    linalg::Vector z = gram.solve(h.transpose_times(u));
    z += gram.solve(h.transpose_times(u - h * z));
    return z;
  };
  const auto lift = [&](const linalg::Vector& a) {
    if (qr) {
      const linalg::Matrix& r = qr->r();
      linalg::Vector y(n);  // R^{-T} a by forward substitution
      for (std::size_t i = 0; i < n; ++i) {
        double acc = a[i];
        for (std::size_t j = 0; j < i; ++j) acc -= r(j, i) * y[j];
        y[i] = acc / r(i, i);
      }
      return qr->q_thin() * y;
    }
    linalg::Vector w = gram.solve(a);
    w += gram.solve(a - h.transpose_times(h * w));
    return h * w;
  };

  const std::vector<std::size_t> dfacts = sys.dfacts_branches();
  const std::size_t d = dfacts.size();
  dfacts_slot_.assign(num_branches, kNotDfacts);

  // H(x) = H0 + U_D diag(delta) A_D^T: column j of U_D is the 4-sparse
  // structure vector of branch j (+1 forward flow row, -1 reverse flow
  // row, +1/-1 at the endpoint injection rows) and column j of A_D its
  // reduced-incidence vector (+1 from bus, -1 to bus, slack dropped).
  // U_perp = U_D - H0 Z and V = H0 (H0^T H0)^{-1} A_D, so that E = V^T V.
  linalg::Matrix u_perp(h.rows(), d), v(h.rows(), d);
  t_ = linalg::Matrix(d, d);
  std::vector<std::size_t> col_from(d), col_to(d);
  for (std::size_t j = 0; j < d; ++j) {
    const grid::Branch& br = sys.branch(dfacts[j]);
    col_from[j] = grid::reduced_state_column(sys, br.from);
    col_to[j] = grid::reduced_state_column(sys, br.to);
  }
  for (std::size_t j = 0; j < d; ++j) {
    const std::size_t l = dfacts[j];
    const grid::Branch& br = sys.branch(l);
    dfacts_slot_[l] = j;
    linalg::Vector u(h.rows());
    u[l] = 1.0;
    u[num_branches + l] = -1.0;
    u[2 * num_branches + br.from] = 1.0;
    u[2 * num_branches + br.to] = -1.0;
    const linalg::Vector z = project(u);
    u_perp.set_col(j, u - h * z);
    linalg::Vector a(n);
    if (col_from[j] < num_buses) a[col_from[j]] = 1.0;
    if (col_to[j] < num_buses) a[col_to[j]] = -1.0;
    v.set_col(j, lift(a));
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
}

double SpaEvaluator::gamma(const linalg::Vector& x) const {
  if (x.size() != x_ref_.size())
    throw std::invalid_argument("SpaEvaluator: reactance vector length");
  obs::add(obs::Work::kSpaFastPathEvals);

  // Relative tolerance: candidates numerically equal to the reference
  // diff to the empty set (gamma identically 0), and sub-1e-12 reactance
  // jitter contributes < 1e-11 rad anyway.
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
    delta[a] = base_mva_ / x[l] - d_ref_[l];
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

}  // namespace mtdgrid::mtd
