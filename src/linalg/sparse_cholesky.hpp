#pragma once

#include <cstddef>
#include <vector>

#include "linalg/sparse_matrix.hpp"
#include "linalg/vector.hpp"

namespace mtdgrid::linalg {

/// Fill-reducing AMD-style minimum-degree ordering for the symmetric
/// pattern of `a` (an n x n sparse matrix; values are ignored, the union
/// of the pattern and its transpose is used). Returns a permutation
/// `perm` with perm[k] = the original index eliminated at step k.
///
/// This is the classic minimum-degree heuristic on the elimination graph:
/// repeatedly eliminate a vertex of minimum degree and connect its
/// neighbors into a clique. Ties break on the lowest original index, so
/// the ordering — and everything factored through it — is deterministic.
/// (Full AMD adds supernode detection and approximate degrees; at the
/// 10^2..10^4 state dimensions of the bundled and ROADMAP grids the exact
/// greedy variant is fast enough and typically within a few percent of
/// AMD's fill.)
std::vector<std::size_t> minimum_degree_ordering(const SparseMatrix& a);

/// Sparse Cholesky factorization `P A P^T = L L^T` of a symmetric
/// positive-definite matrix: the weighted-Gram factor of
/// `estimation::StateEstimator` and the susceptance solve of
/// `grid::solve_dc_power_flow_sparse`.
///
/// The factorization is simplicial up-looking (CSparse-style): an
/// elimination tree drives the symbolic pattern of each row of L, and a
/// sparse triangular solve produces its values. The permutation defaults
/// to `minimum_degree_ordering`; pass an explicit one to override (e.g.
/// the identity, for tests pinning fill). Positive-definiteness uses the
/// same relative tolerance as the dense `CholeskyDecomposition`:
/// a pivot d <= 1e-12 * max_diagonal marks the factorization failed.
class SparseCholesky {
 public:
  /// Factorizes `a` (both triangles must be stored; only the lower
  /// triangle of the permuted matrix is read).
  explicit SparseCholesky(const SparseMatrix& a);

  /// Factorizes with a caller-supplied elimination order.
  SparseCholesky(const SparseMatrix& a, std::vector<std::size_t> perm);

  /// True when the matrix was not positive definite within tolerance.
  bool failed() const { return failed_; }

  /// Solves `A x = b`. Requires `!failed()`.
  Vector solve(const Vector& b) const;

  /// The elimination order used (perm[k] = original index at step k).
  const std::vector<std::size_t>& permutation() const { return perm_; }

  /// Stored entries of L including the unit diagonal's slot — the fill
  /// metric the ordering tests pin.
  std::size_t factor_nnz() const { return l_values_.size(); }

 private:
  void factorize(const SparseMatrix& a);

  std::size_t n_ = 0;
  std::vector<std::size_t> perm_;     // elimination order
  std::vector<std::size_t> inv_perm_;  // inv_perm_[perm_[k]] = k
  // L in CSC: column j spans [l_col_ptr_[j], l_col_ptr_[j+1]), row
  // indices ascending, the diagonal entry first.
  std::vector<std::size_t> l_col_ptr_;
  std::vector<std::size_t> l_row_idx_;
  std::vector<double> l_values_;
  bool failed_ = false;
};

}  // namespace mtdgrid::linalg
