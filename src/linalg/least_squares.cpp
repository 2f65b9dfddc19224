#include "linalg/least_squares.hpp"

#include "linalg/qr.hpp"

namespace mtdgrid::linalg {

Vector solve_least_squares(const Matrix& a, const Vector& b) {
  QrDecomposition qr(a);
  return qr.solve_least_squares(b);
}

}  // namespace mtdgrid::linalg
