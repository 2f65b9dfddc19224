#include "linalg/matrix.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace mtdgrid::linalg {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    assert(r.size() == cols_ && "all rows must have the same length");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::diagonal(const Vector& d) {
  Matrix m(d.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
  return m;
}

Matrix Matrix::column(const Vector& v) {
  Matrix m(v.size(), 1);
  for (std::size_t i = 0; i < v.size(); ++i) m(i, 0) = v[i];
  return m;
}

double& Matrix::operator()(std::size_t i, std::size_t j) {
  assert(i < rows_ && j < cols_);
  return data_[i * cols_ + j];
}

double Matrix::operator()(std::size_t i, std::size_t j) const {
  assert(i < rows_ && j < cols_);
  return data_[i * cols_ + j];
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  assert(rows_ == rhs.rows_ && cols_ == rhs.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  assert(rows_ == rhs.rows_ && cols_ == rhs.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  assert(cols_ == rhs.rows_);
  Matrix out(rows_, rhs.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double aik = (*this)(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < rhs.cols_; ++j) {
        out(i, j) += aik * rhs(k, j);
      }
    }
  }
  return out;
}

Vector Matrix::operator*(const Vector& v) const {
  assert(cols_ == v.size());
  Vector out(rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) acc += (*this)(i, j) * v[j];
    out[i] = acc;
  }
  return out;
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) out(j, i) = (*this)(i, j);
  return out;
}

Vector Matrix::transpose_times(const Vector& v) const {
  assert(rows_ == v.size());
  Vector out(cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double vi = v[i];
    if (vi == 0.0) continue;
    for (std::size_t j = 0; j < cols_; ++j) out[j] += (*this)(i, j) * vi;
  }
  return out;
}

Matrix Matrix::transpose_times(const Matrix& rhs) const {
  assert(rows_ == rhs.rows_);
  Matrix out(cols_, rhs.cols_);
  for (std::size_t k = 0; k < rows_; ++k) {
    for (std::size_t i = 0; i < cols_; ++i) {
      const double aki = (*this)(k, i);
      if (aki == 0.0) continue;
      for (std::size_t j = 0; j < rhs.cols_; ++j) {
        out(i, j) += aki * rhs(k, j);
      }
    }
  }
  return out;
}

Vector Matrix::row(std::size_t i) const {
  assert(i < rows_);
  Vector out(cols_);
  for (std::size_t j = 0; j < cols_; ++j) out[j] = (*this)(i, j);
  return out;
}

Vector Matrix::col(std::size_t j) const {
  assert(j < cols_);
  Vector out(rows_);
  for (std::size_t i = 0; i < rows_; ++i) out[i] = (*this)(i, j);
  return out;
}

void Matrix::set_col(std::size_t j, const Vector& v) {
  assert(j < cols_ && v.size() == rows_);
  for (std::size_t i = 0; i < rows_; ++i) (*this)(i, j) = v[i];
}

Matrix Matrix::block(std::size_t r0, std::size_t c0, std::size_t nrows,
                     std::size_t ncols) const {
  assert(r0 + nrows <= rows_ && c0 + ncols <= cols_);
  Matrix out(nrows, ncols);
  for (std::size_t i = 0; i < nrows; ++i)
    for (std::size_t j = 0; j < ncols; ++j) out(i, j) = (*this)(r0 + i, c0 + j);
  return out;
}

Matrix Matrix::hstack(const Matrix& right) const {
  assert(rows_ == right.rows_);
  Matrix out(rows_, cols_ + right.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) out(i, j) = (*this)(i, j);
    for (std::size_t j = 0; j < right.cols_; ++j)
      out(i, cols_ + j) = right(i, j);
  }
  return out;
}

Matrix Matrix::without_col(std::size_t jskip) const {
  assert(jskip < cols_);
  Matrix out(rows_, cols_ - 1);
  for (std::size_t i = 0; i < rows_; ++i) {
    std::size_t jo = 0;
    for (std::size_t j = 0; j < cols_; ++j) {
      if (j == jskip) continue;
      out(i, jo++) = (*this)(i, j);
    }
  }
  return out;
}

double Matrix::frobenius_norm() const {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return std::sqrt(acc);
}

double Matrix::max_abs() const {
  double acc = 0.0;
  for (double v : data_) acc = std::max(acc, std::abs(v));
  return acc;
}

Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }
Matrix operator*(Matrix m, double s) { return m *= s; }
Matrix operator*(double s, Matrix m) { return m *= s; }

double max_abs_diff(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      acc = std::max(acc, std::abs(a(i, j) - b(i, j)));
  return acc;
}

}  // namespace mtdgrid::linalg
