#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace mtdgrid::linalg {

/// Dense real-valued vector used throughout the library.
///
/// The power-grid problems in this repository are small (tens of buses,
/// tens of branches), so a simple contiguous `double` container with value
/// semantics is the right tool; no expression templates or views are needed.
class Vector {
 public:
  /// Creates an empty (zero-length) vector.
  Vector() = default;

  /// Creates a vector of `n` elements, all initialized to `value`.
  explicit Vector(std::size_t n, double value = 0.0) : data_(n, value) {}

  /// Creates a vector from an explicit element list, e.g. `Vector{1.0, 2.0}`.
  Vector(std::initializer_list<double> values) : data_(values) {}

  /// Creates a vector that takes ownership of `values`.
  explicit Vector(std::vector<double> values) : data_(std::move(values)) {}

  /// Number of elements.
  std::size_t size() const { return data_.size(); }

  /// True when the vector has no elements.
  bool empty() const { return data_.empty(); }

  /// Bounds-checked in debug builds via assert; element access.
  double& operator[](std::size_t i);
  double operator[](std::size_t i) const;

  /// Read-only view of the underlying storage.
  const std::vector<double>& data() const { return data_; }

  /// Mutable view of the underlying storage.
  std::vector<double>& data() { return data_; }

  // --- elementwise arithmetic (sizes must match) -------------------------
  Vector& operator+=(const Vector& rhs);
  Vector& operator-=(const Vector& rhs);
  Vector& operator*=(double s);
  Vector& operator/=(double s);

  /// Euclidean (L2) norm.
  double norm() const;

  /// Sum of absolute values (L1 norm).
  double norm1() const;

  /// Largest absolute element (L-infinity norm).
  double norm_inf() const;

  /// Sum of all elements.
  double sum() const;

  /// Inner product with `rhs`; sizes must match.
  double dot(const Vector& rhs) const;

  /// Returns a copy with every element multiplied elementwise by `rhs`.
  Vector hadamard(const Vector& rhs) const;

  /// Returns the slice `[begin, begin+count)` as a new vector.
  Vector segment(std::size_t begin, std::size_t count) const;

  /// Iterators so the vector works with range-for and <algorithm>.
  auto begin() { return data_.begin(); }
  auto end() { return data_.end(); }
  auto begin() const { return data_.begin(); }
  auto end() const { return data_.end(); }

 private:
  std::vector<double> data_;
};

Vector operator+(Vector lhs, const Vector& rhs);
Vector operator-(Vector lhs, const Vector& rhs);
Vector operator*(Vector v, double s);
Vector operator*(double s, Vector v);
Vector operator/(Vector v, double s);
Vector operator-(Vector v);

/// Maximum absolute difference between two equally sized vectors.
double max_abs_diff(const Vector& a, const Vector& b);

}  // namespace mtdgrid::linalg
