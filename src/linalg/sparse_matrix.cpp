#include "linalg/sparse_matrix.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace mtdgrid::linalg {

SparseMatrix SparseMatrix::from_dense(const Matrix& a, double drop_tol) {
  SparseMatrix out(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      const double v = a(i, j);
      if (v == 0.0 || std::abs(v) <= drop_tol) continue;
      out.col_idx_.push_back(j);
      out.values_.push_back(v);
    }
    out.row_ptr_[i + 1] = out.values_.size();
  }
  return out;
}

Matrix SparseMatrix::to_dense() const {
  Matrix out(rows_, cols_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t p = row_ptr_[i]; p < row_ptr_[i + 1]; ++p)
      out(i, col_idx_[p]) = values_[p];
  return out;
}

double SparseMatrix::coeff(std::size_t i, std::size_t j) const {
  assert(i < rows_ && j < cols_);
  const auto begin = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[i]);
  const auto end = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[i + 1]);
  const auto it = std::lower_bound(begin, end, j);
  if (it == end || *it != j) return 0.0;
  return values_[static_cast<std::size_t>(it - col_idx_.begin())];
}

Vector SparseMatrix::operator*(const Vector& v) const {
  assert(v.size() == cols_);
  Vector out(rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    double acc = 0.0;
    for (std::size_t p = row_ptr_[i]; p < row_ptr_[i + 1]; ++p)
      acc += values_[p] * v[col_idx_[p]];
    out[i] = acc;
  }
  return out;
}

Vector SparseMatrix::transpose_times(const Vector& v) const {
  assert(v.size() == rows_);
  Vector out(cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double vi = v[i];
    if (vi == 0.0) continue;
    for (std::size_t p = row_ptr_[i]; p < row_ptr_[i + 1]; ++p)
      out[col_idx_[p]] += values_[p] * vi;
  }
  return out;
}

SparseMatrix SparseMatrix::transposed() const {
  SparseMatrix out(cols_, rows_);
  // Counting sort by column: two passes, no comparisons — O(nnz + cols).
  std::vector<std::size_t> count(cols_, 0);
  for (const std::size_t j : col_idx_) ++count[j];
  for (std::size_t j = 0; j < cols_; ++j)
    out.row_ptr_[j + 1] = out.row_ptr_[j] + count[j];
  out.col_idx_.resize(nnz());
  out.values_.resize(nnz());
  std::vector<std::size_t> next(out.row_ptr_.begin(), out.row_ptr_.end() - 1);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t p = row_ptr_[i]; p < row_ptr_[i + 1]; ++p) {
      const std::size_t q = next[col_idx_[p]]++;
      out.col_idx_[q] = i;  // row indices of the transpose stay ascending
      out.values_[q] = values_[p];
    }
  }
  return out;
}

SparseMatrix SparseMatrix::weighted_gram(const Vector& w) const {
  assert(w.size() == rows_);
  TripletBuilder builder(cols_, cols_);
  std::size_t contributions = 0;
  for (std::size_t k = 0; k < rows_; ++k) {
    const std::size_t len = row_ptr_[k + 1] - row_ptr_[k];
    contributions += len * len;
  }
  builder.reserve(contributions);
  for (std::size_t k = 0; k < rows_; ++k) {
    const double wk = w[k];
    if (wk == 0.0) continue;
    for (std::size_t p = row_ptr_[k]; p < row_ptr_[k + 1]; ++p) {
      const double left = wk * values_[p];
      if (left == 0.0) continue;
      builder.add(col_idx_[p], col_idx_[p], left * values_[p]);
      // One product feeds both (i,j) and (j,i), so the assembled Gram is
      // exactly symmetric ((w*vi)*vj and (w*vj)*vi can differ by an ulp).
      for (std::size_t q = p + 1; q < row_ptr_[k + 1]; ++q) {
        const double contribution = left * values_[q];
        builder.add(col_idx_[p], col_idx_[q], contribution);
        builder.add(col_idx_[q], col_idx_[p], contribution);
      }
    }
  }
  return builder.build();
}

double SparseMatrix::max_abs() const {
  double best = 0.0;
  for (const double v : values_) best = std::max(best, std::abs(v));
  return best;
}

double max_abs_diff(const SparseMatrix& a, const SparseMatrix& b) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  double best = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    std::size_t pa = a.row_ptr()[i], pb = b.row_ptr()[i];
    const std::size_t ea = a.row_ptr()[i + 1], eb = b.row_ptr()[i + 1];
    while (pa < ea || pb < eb) {
      const std::size_t ja = pa < ea ? a.col_idx()[pa] : a.cols();
      const std::size_t jb = pb < eb ? b.col_idx()[pb] : b.cols();
      double diff = 0.0;
      if (ja < jb) {
        diff = a.values()[pa++];
      } else if (jb < ja) {
        diff = b.values()[pb++];
      } else {
        diff = a.values()[pa++] - b.values()[pb++];
      }
      best = std::max(best, std::abs(diff));
    }
  }
  return best;
}

void TripletBuilder::add(std::size_t i, std::size_t j, double value) {
  assert(i < rows_ && j < cols_);
  triplets_.push_back({i, j, value});
}

SparseMatrix TripletBuilder::build() const {
  std::vector<Triplet> sorted = triplets_;
  // Stable: duplicates keep insertion order, so their sum below matches
  // the order the caller emitted them in (bit-for-bit reproducible).
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Triplet& a, const Triplet& b) {
                     if (a.row != b.row) return a.row < b.row;
                     return a.col < b.col;
                   });
  SparseMatrix out(rows_, cols_);
  out.col_idx_.reserve(sorted.size());
  out.values_.reserve(sorted.size());
  std::size_t pos = 0;
  for (std::size_t i = 0; i < rows_; ++i) {
    while (pos < sorted.size() && sorted[pos].row == i) {
      const std::size_t j = sorted[pos].col;
      double acc = 0.0;
      while (pos < sorted.size() && sorted[pos].row == i &&
             sorted[pos].col == j)
        acc += sorted[pos++].value;
      out.col_idx_.push_back(j);
      out.values_.push_back(acc);
    }
    out.row_ptr_[i + 1] = out.values_.size();
  }
  return out;
}

}  // namespace mtdgrid::linalg
