#include "attack/fdi_attack.hpp"

#include <cassert>
#include <stdexcept>

#include "core/parallel.hpp"
#include "linalg/subspace.hpp"

namespace mtdgrid::attack {

FdiAttack make_stealthy_attack(const linalg::SparseMatrix& h,
                               const linalg::Vector& c) {
  assert(c.size() == h.cols());
  return {c, h * c};
}

FdiAttack random_stealthy_attack(const linalg::SparseMatrix& h,
                                 const linalg::Vector& z_ref,
                                 double relative_magnitude, stats::Rng& rng) {
  assert(z_ref.size() == h.rows());
  if (relative_magnitude <= 0.0)
    throw std::invalid_argument("attack magnitude must be positive");
  const double z_norm1 = z_ref.norm1();
  if (z_norm1 <= 0.0)
    throw std::invalid_argument("reference measurement must be non-zero");

  linalg::Vector c(h.cols());
  for (std::size_t i = 0; i < c.size(); ++i) c[i] = rng.gaussian();
  linalg::Vector a = h * c;
  const double a_norm1 = a.norm1();
  if (a_norm1 == 0.0) {
    // Degenerate draw (probability zero up to rounding); retry recursively.
    return random_stealthy_attack(h, z_ref, relative_magnitude, rng);
  }
  const double scale = relative_magnitude * z_norm1 / a_norm1;
  c *= scale;
  a *= scale;
  return {std::move(c), std::move(a)};
}

std::vector<FdiAttack> sample_attacks(const linalg::SparseMatrix& h,
                                      const linalg::Vector& z_ref,
                                      double relative_magnitude, int count,
                                      stats::Rng& rng) {
  assert(count >= 0);
  return sample_attacks_seeded(h, z_ref, relative_magnitude, count,
                               rng.split());
}

std::vector<FdiAttack> sample_attacks_seeded(const linalg::SparseMatrix& h,
                                             const linalg::Vector& z_ref,
                                             double relative_magnitude,
                                             int count, std::uint64_t root) {
  assert(count >= 0);
  // Each attack owns stream (root, i): the draw is independent of which
  // worker runs it and of how the other attacks are scheduled.
  return core::parallel_map<FdiAttack>(
      static_cast<std::size_t>(count), [&](std::size_t i) {
        stats::Rng stream = stats::make_stream(root, i);
        return random_stealthy_attack(h, z_ref, relative_magnitude, stream);
      });
}

bool remains_stealthy_under(const linalg::Matrix& h_new, const FdiAttack& atk,
                            double tol) {
  return linalg::column_space_contains(h_new, linalg::Matrix::column(atk.a),
                                       tol);
}

}  // namespace mtdgrid::attack
