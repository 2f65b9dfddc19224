#include "linalg/vector.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace mtdgrid::linalg {

double& Vector::operator[](std::size_t i) {
  assert(i < data_.size());
  return data_[i];
}

double Vector::operator[](std::size_t i) const {
  assert(i < data_.size());
  return data_[i];
}

Vector& Vector::operator+=(const Vector& rhs) {
  assert(size() == rhs.size());
  for (std::size_t i = 0; i < size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Vector& Vector::operator-=(const Vector& rhs) {
  assert(size() == rhs.size());
  for (std::size_t i = 0; i < size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Vector& Vector::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

Vector& Vector::operator/=(double s) {
  assert(s != 0.0);
  for (double& v : data_) v /= s;
  return *this;
}

double Vector::norm() const { return std::sqrt(dot(*this)); }

double Vector::norm1() const {
  double acc = 0.0;
  for (double v : data_) acc += std::abs(v);
  return acc;
}

double Vector::norm_inf() const {
  double acc = 0.0;
  for (double v : data_) acc = std::max(acc, std::abs(v));
  return acc;
}

double Vector::sum() const {
  return std::accumulate(data_.begin(), data_.end(), 0.0);
}

double Vector::dot(const Vector& rhs) const {
  assert(size() == rhs.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < size(); ++i) acc += data_[i] * rhs.data_[i];
  return acc;
}

Vector Vector::hadamard(const Vector& rhs) const {
  assert(size() == rhs.size());
  Vector out(size());
  for (std::size_t i = 0; i < size(); ++i) out[i] = data_[i] * rhs.data_[i];
  return out;
}

Vector Vector::segment(std::size_t begin, std::size_t count) const {
  assert(begin + count <= size());
  Vector out(count);
  for (std::size_t i = 0; i < count; ++i) out[i] = data_[begin + i];
  return out;
}

Vector operator+(Vector lhs, const Vector& rhs) { return lhs += rhs; }
Vector operator-(Vector lhs, const Vector& rhs) { return lhs -= rhs; }
Vector operator*(Vector v, double s) { return v *= s; }
Vector operator*(double s, Vector v) { return v *= s; }
Vector operator/(Vector v, double s) { return v /= s; }

Vector operator-(Vector v) {
  for (double& x : v) x = -x;
  return v;
}

double max_abs_diff(const Vector& a, const Vector& b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    acc = std::max(acc, std::abs(a[i] - b[i]));
  return acc;
}

}  // namespace mtdgrid::linalg
