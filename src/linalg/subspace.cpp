#include "linalg/subspace.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "linalg/qr.hpp"
#include "linalg/svd.hpp"

namespace mtdgrid::linalg {

namespace {

/// Bjorck-Golub core: theta_i = acos(sigma_i(Qa^T Qb)) from the overlap
/// Qa^T Qb, ascending. Rounding can push cosines a hair beyond [0, 1],
/// hence the clamp.
std::vector<double> angles_from_core(const Matrix& overlap) {
  const SvdDecomposition svd(overlap);
  const std::size_t count = std::min(overlap.rows(), overlap.cols());
  std::vector<double> angles;
  angles.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double c = std::clamp(svd.singular_values()[i], 0.0, 1.0);
    angles.push_back(std::acos(c));
  }
  std::sort(angles.begin(), angles.end());
  return angles;
}

/// Below this angle `refine_small_largest_angle` re-reads the largest
/// angle by the sine route. The cosine route's absolute error is about
/// eps / theta, floored at sqrt(eps) ~ 1e-8 as theta -> 0; above 1e-2 it
/// is already under ~1e-13, and the sine route's extra O(M n^2) products
/// would add ~40% to every call (BM_LargestPrincipalAngleQr) for no digit.
constexpr double kSineRouteBelow = 1e-2;

/// Largest principal angle given orthonormal bases, their overlap
/// Qa^T Qb and its cosine-route value `theta`. acos(sigma_min(Qa^T Qb))
/// resolves an angle near 0 only to ~sqrt(eps) ~ 1e-8 absolute, so small
/// angles are re-read the Bjorck-Golub sine way:
/// asin(sigma_max(Qs - Ql (Ql^T Qs))), where Qs is the basis with fewer
/// columns (its residual's singular values are the sines of exactly the
/// min(rank) principal angles).
double refine_small_largest_angle(const Matrix& qa, const Matrix& qb,
                                  const Matrix& overlap, double theta) {
  if (theta >= kSineRouteBelow) return theta;
  const Matrix residual = qa.cols() >= qb.cols()
                              ? qb - qa * overlap
                              : qa - qb * overlap.transposed();
  return std::asin(
      std::clamp(largest_singular_value(residual), 0.0, 1.0));
}

}  // namespace

std::vector<double> principal_angles(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows() && "subspaces must live in the same space");
  const Matrix qa = orthonormal_column_basis(a);
  const Matrix qb = orthonormal_column_basis(b);
  if (qa.cols() == 0 || qb.cols() == 0) return {};
  return angles_from_core(qa.transpose_times(qb));
}

std::vector<double> principal_angles_qr(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows() && "subspaces must live in the same space");
  const Matrix qa = orthonormal_basis_qr(a);
  const Matrix qb = orthonormal_basis_qr(b);
  if (qa.cols() == 0 || qb.cols() == 0) return {};
  return angles_from_core(qa.transpose_times(qb));
}

double largest_principal_angle_qr(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows() && "subspaces must live in the same space");
  const Matrix qa = orthonormal_basis_qr(a);
  const Matrix qb = orthonormal_basis_qr(b);
  assert(qa.cols() > 0 && qb.cols() > 0 &&
         "both matrices must have non-trivial ranges");
  const Matrix overlap = qa.transpose_times(qb);
  const double c = std::clamp(smallest_singular_value(overlap), 0.0, 1.0);
  return refine_small_largest_angle(qa, qb, overlap, std::acos(c));
}

double smallest_principal_angle(const Matrix& a, const Matrix& b) {
  const auto angles = principal_angles(a, b);
  assert(!angles.empty() && "both matrices must have non-trivial ranges");
  return angles.front();
}

double largest_principal_angle(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows() && "subspaces must live in the same space");
  const Matrix qa = orthonormal_column_basis(a);
  const Matrix qb = orthonormal_column_basis(b);
  assert(qa.cols() > 0 && qb.cols() > 0 &&
         "both matrices must have non-trivial ranges");
  const Matrix overlap = qa.transpose_times(qb);
  return refine_small_largest_angle(qa, qb, overlap,
                                    angles_from_core(overlap).back());
}

bool column_space_contains(const Matrix& a, const Matrix& b, double tol) {
  assert(a.rows() == b.rows());
  const Matrix qa = orthonormal_column_basis(a);
  // b is inside Col(A) iff the residual b - Qa Qa^T b vanishes.
  const Matrix projected = qa * (qa.transpose_times(b));
  double scale = std::max(1.0, b.max_abs());
  return max_abs_diff(projected, b) <= tol * scale;
}

}  // namespace mtdgrid::linalg
