#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "linalg/vector.hpp"

namespace mtdgrid::linalg {

/// Dense row-major real matrix with value semantics.
///
/// Sized for the problems in this library (measurement matrices of a few
/// dozen rows/columns), so all algorithms are straightforward dense ones.
class Matrix {
 public:
  /// Creates an empty 0x0 matrix.
  Matrix() = default;

  /// Creates a `rows` x `cols` matrix with every element set to `value`.
  Matrix(std::size_t rows, std::size_t cols, double value = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, value) {}

  /// Creates a matrix from nested braces, e.g. `Matrix{{1,2},{3,4}}`.
  /// All rows must have the same length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// The `n` x `n` identity matrix.
  static Matrix identity(std::size_t n);

  /// A square matrix with `d` on the diagonal and zeros elsewhere.
  static Matrix diagonal(const Vector& d);

  /// A single-column matrix holding `v`.
  static Matrix column(const Vector& v);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Element access (asserted in debug builds).
  double& operator()(std::size_t i, std::size_t j);
  double operator()(std::size_t i, std::size_t j) const;

  /// Mutable row-major storage: element (i, j) is `data()[i * cols() + j]`.
  double* data() { return data_.data(); }

  /// Read-only row-major storage, laid out as for the mutable `data()`.
  const double* data() const { return data_.data(); }

  // --- arithmetic --------------------------------------------------------
  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double s);

  /// Matrix product `this * rhs`; inner dimensions must agree.
  Matrix operator*(const Matrix& rhs) const;

  /// Matrix-vector product `this * v`.
  Vector operator*(const Vector& v) const;

  /// Transpose as a new matrix.
  Matrix transposed() const;

  /// `this^T * v` without materializing the transpose.
  Vector transpose_times(const Vector& v) const;

  /// `this^T * rhs` without materializing the transpose.
  Matrix transpose_times(const Matrix& rhs) const;

  /// Row `i` as a vector.
  Vector row(std::size_t i) const;

  /// Column `j` as a vector.
  Vector col(std::size_t j) const;

  /// Overwrites row `i` with `v` (sizes must match).
  void set_row(std::size_t i, const Vector& v);

  /// Overwrites column `j` with `v` (sizes must match).
  void set_col(std::size_t j, const Vector& v);

  /// Contiguous sub-block of size `nrows` x `ncols` starting at (r0, c0).
  Matrix block(std::size_t r0, std::size_t c0, std::size_t nrows,
               std::size_t ncols) const;

  /// Horizontal concatenation `[this | right]` (row counts must match).
  Matrix hstack(const Matrix& right) const;

  /// Vertical concatenation `[this; below]` (column counts must match).
  Matrix vstack(const Matrix& below) const;

  /// Copy of this matrix with column `j` removed.
  Matrix without_col(std::size_t j) const;

  /// Frobenius norm (square root of the sum of squared elements).
  double frobenius_norm() const;

  /// Largest absolute element.
  double max_abs() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

Matrix operator+(Matrix lhs, const Matrix& rhs);
Matrix operator-(Matrix lhs, const Matrix& rhs);
Matrix operator*(Matrix m, double s);
Matrix operator*(double s, Matrix m);

/// Maximum absolute elementwise difference between equally sized matrices.
double max_abs_diff(const Matrix& a, const Matrix& b);

}  // namespace mtdgrid::linalg
