#pragma once

#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/sparse_matrix.hpp"
#include "linalg/vector.hpp"
#include "stats/rng.hpp"

namespace mtdgrid::attack {

/// A false-data-injection attack of the stealthy form a = H c (paper
/// Section III): `c` is the state offset the attacker injects and `a` the
/// resulting measurement corruption. Such attacks bypass the BDD of the
/// system whose measurement matrix is H.
struct FdiAttack {
  linalg::Vector c;  ///< attacker-chosen state perturbation (dim n)
  linalg::Vector a;  ///< measurement-space injection a = H c (dim M)
};

/// Builds the stealthy attack a = H c for an explicit `c`. The builders
/// take CSR H; the sparse a = H c is bit-equal to the dense product.
FdiAttack make_stealthy_attack(const linalg::SparseMatrix& h,
                               const linalg::Vector& c);

/// Draws a random stealthy attack the way the paper's Monte-Carlo study
/// does: c ~ N(0, I), then scaled so that ||a||_1 / ||z_ref||_1 equals
/// `relative_magnitude` (0.08 in the paper), keeping injections small
/// relative to the true measurements.
FdiAttack random_stealthy_attack(const linalg::SparseMatrix& h,
                                 const linalg::Vector& z_ref,
                                 double relative_magnitude, stats::Rng& rng);

/// Draws `count` independent random stealthy attacks. Attack i is produced
/// from its own counter-based stream `stats::make_stream(root, i)` with
/// `root = rng.split()`, and the draws are spread across the global thread
/// pool — the sample is a pure function of `(h, z_ref, relative_magnitude,
/// count, root)`, bit-identical for every thread count, and `rng` advances
/// by exactly one raw draw regardless of `count`.
std::vector<FdiAttack> sample_attacks(const linalg::SparseMatrix& h,
                                      const linalg::Vector& z_ref,
                                      double relative_magnitude, int count,
                                      stats::Rng& rng);

/// The seed-explicit core of `sample_attacks`: attack i is drawn from
/// `stats::make_stream(root, i)`. Exposed so batched evaluators can share
/// one attack sample across candidates by passing the same `root`.
std::vector<FdiAttack> sample_attacks_seeded(const linalg::SparseMatrix& h,
                                             const linalg::Vector& z_ref,
                                             double relative_magnitude,
                                             int count, std::uint64_t root);

/// Proposition 1 stealth test: the attack stays undetectable under the new
/// measurement matrix `h_new` iff a lies in Col(h_new), i.e.
/// rank(h_new) == rank([h_new | a]).
bool remains_stealthy_under(const linalg::Matrix& h_new, const FdiAttack& atk,
                            double tol = 1e-8);

}  // namespace mtdgrid::attack
