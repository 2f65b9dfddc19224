#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace mtdgrid::linalg {

/// Principal angles between the column spaces of two matrices, in radians,
/// sorted ascending (theta_1 = smallest). Computed the Bjorck-Golub way:
/// orthonormal bases Q1, Q2, then theta_i = acos(sigma_i(Q1^T Q2)).
///
/// The number of angles returned is min(rank(A), rank(B)).
std::vector<double> principal_angles(const Matrix& a, const Matrix& b);

/// The smallest principal angle (SPA) between Col(A) and Col(B), in
/// radians in [0, pi/2]. This is the gamma(H, H') metric of the paper:
/// 0 means the subspaces share a direction (perfectly aligned in the
/// rank-1 sense); pi/2 means they are fully orthogonal.
double smallest_principal_angle(const Matrix& a, const Matrix& b);

/// Largest principal angle, in radians in [0, pi/2]. Angles below 1e-2
/// come from the sine route asin(sigma_max(Qb - Qa Qa^T Qb)), exact to
/// ~1e-16 absolute near 0 where the cosine route is off by ~1e-8.
double largest_principal_angle(const Matrix& a, const Matrix& b);

/// Principal angles computed the fast way: Householder thin-QR bases (with
/// a rank-revealing fallback) and the SVD of the small core Q1^T Q2. The
/// angles agree with `principal_angles` to ~1e-12 for the well-separated
/// angles of the measurement model (both routes are cosine-based; they
/// differ only through basis rounding).
std::vector<double> principal_angles_qr(const Matrix& a, const Matrix& b);

/// Largest principal angle via the QR route, but extracting ONLY the
/// smallest singular value of the core (tridiagonal Sturm bisection instead
/// of a full Jacobi SVD). This is the hot-path gamma(H, H') evaluation:
/// ~15x faster than `largest_principal_angle` at IEEE 57-bus scale while
/// matching it to ~1e-12 rad. Uses the same sine route below 1e-2.
double largest_principal_angle_qr(const Matrix& a, const Matrix& b);

/// True when every column of `b` lies in Col(A) within tolerance, i.e.
/// rank([A | b]) == rank(A). This is the Proposition-1 stealth test.
bool column_space_contains(const Matrix& a, const Matrix& b,
                           double tol = 1e-8);

}  // namespace mtdgrid::linalg
