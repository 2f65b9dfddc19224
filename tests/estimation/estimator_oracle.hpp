#pragma once

// Differential oracle for estimation::StateEstimator, shared by
// estimator_oracle_test (every registry case but the mega-grids, plus
// case14x2 and case57x2) and estimator_oracle_slow_test (the mega-grids).
//
// For each case the estimator runs at nominal reactances and at seeded
// random D-FACTS envelope reactances, with homogeneous and with
// per-sensor sigmas. Every configuration checks:
//  * estimate and residual against a dense Householder-QR least-squares
//    solve of W^{1/2} H (1e-9 relative) — when the dense M x n problem
//    fits `kMaxDenseOracleEntries`;
//  * dense and CSR input give bit-identical results (same size limit);
//  * optimality: H^T W r = 0 up to rounding of the terms summed;
//  * stealth invariance: r(z + H c) = r(z);
//  * noiseless recovery: estimate(H theta) = theta.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "estimation/state_estimator.hpp"
#include "grid/measurement.hpp"
#include "io/case_registry.hpp"
#include "linalg/least_squares.hpp"
#include "stats/rng.hpp"

namespace mtdgrid::test {

/// Registry cases the oracle runs only in its `slow`-labelled binary.
inline const std::vector<std::string> kSlowOracleCases = {"case118x9",
                                                          "case300x17"};

/// Largest M * n for which the dense QR oracle runs (case118x9 is
/// ~4.8M; case300x17, ~97M, gets the property checks only).
inline constexpr std::size_t kMaxDenseOracleEntries = 8'000'000;

inline constexpr double kOracleTol = 1e-9;

inline double rel_diff(const linalg::Vector& got, const linalg::Vector& want,
                       double scale) {
  return linalg::max_abs_diff(got, want) / std::max(scale, 1e-300);
}

inline void check_one_configuration(const linalg::SparseMatrix& hs,
                                    const linalg::Vector& sigmas,
                                    stats::Rng& rng,
                                    const std::string& label) {
  SCOPED_TRACE(label);
  const estimation::StateEstimator est(hs, sigmas);
  const std::size_t m = hs.rows();
  const std::size_t n = hs.cols();

  linalg::Vector theta(n);
  for (std::size_t i = 0; i < n; ++i) theta[i] = rng.gaussian(0.0, 0.1);
  const linalg::Vector z_clean = hs * theta;
  linalg::Vector z = z_clean;
  for (std::size_t i = 0; i < m; ++i) z[i] += rng.gaussian(0.0, sigmas[i]);

  const linalg::Vector x = est.estimate(z);
  const linalg::Vector r = est.residual(z);
  const double z_scale = z.norm_inf();

  if (m * n <= kMaxDenseOracleEntries) {
    const linalg::Matrix h = hs.to_dense();
    linalg::Matrix scaled = h;
    linalg::Vector b(m);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) scaled(i, j) /= sigmas[i];
      b[i] = z[i] / sigmas[i];
    }
    const linalg::Vector x_qr = linalg::solve_least_squares(scaled, b);
    EXPECT_LE(rel_diff(x, x_qr, x_qr.norm_inf()), kOracleTol);
    EXPECT_LE(rel_diff(r, z - h * x_qr, z_scale), kOracleTol);

    const estimation::StateEstimator dense_input(h, sigmas);
    EXPECT_EQ(linalg::max_abs_diff(dense_input.estimate(z), x), 0.0);
    EXPECT_EQ(dense_input.normalized_residual_norm(z),
              est.normalized_residual_norm(z));
  }

  // Optimality: H^T W r = 0, relative to the magnitude of the terms
  // whose cancellation produces it.
  linalg::Vector wr(m);
  linalg::Vector wz_abs(m);
  for (std::size_t i = 0; i < m; ++i) {
    const double w = 1.0 / (sigmas[i] * sigmas[i]);
    wr[i] = w * r[i];
    wz_abs[i] = w * std::abs(z[i]);
  }
  const linalg::Vector gradient = hs.transpose_times(wr);
  double term_scale = 0.0;
  for (std::size_t k = 0; k < m; ++k)
    for (std::size_t p = hs.row_ptr()[k]; p < hs.row_ptr()[k + 1]; ++p)
      term_scale =
          std::max(term_scale, std::abs(hs.values()[p]) * wz_abs[k]);
  EXPECT_LE(gradient.norm_inf(), kOracleTol * term_scale);

  // Stealth invariance: a column-space shift leaves the residual alone.
  linalg::Vector c(n);
  for (std::size_t i = 0; i < n; ++i) c[i] = rng.gaussian(0.0, 0.1);
  const linalg::Vector shift = hs * c;
  EXPECT_LE(rel_diff(est.residual(z + shift), r,
                     std::max(z_scale, shift.norm_inf())),
            kOracleTol);

  // Noiseless recovery.
  EXPECT_LE(rel_diff(est.estimate(z_clean), theta, theta.norm_inf()),
            kOracleTol);
}

/// Runs the four configurations (nominal / envelope reactances x
/// homogeneous / per-sensor sigmas) of one case.
inline void check_estimator_oracle(const std::string& case_name) {
  const grid::PowerSystem sys = io::load_case(case_name);
  stats::Rng rng(0x5e0 + sys.num_buses());

  linalg::Vector envelope = sys.reactances();
  const linalg::Vector lo = sys.reactance_lower_limits();
  const linalg::Vector hi = sys.reactance_upper_limits();
  for (const std::size_t l : sys.dfacts_branches())
    envelope[l] = rng.uniform(lo[l], hi[l]);

  for (const bool perturbed : {false, true}) {
    const linalg::SparseMatrix hs = grid::sparse_measurement_matrix(
        sys, perturbed ? envelope : sys.reactances());
    linalg::Vector per_sensor(hs.rows());
    for (std::size_t i = 0; i < per_sensor.size(); ++i)
      per_sensor[i] = rng.uniform(0.2, 2.0);
    const std::string x_label = perturbed ? "envelope" : "nominal";
    check_one_configuration(hs, linalg::Vector(hs.rows(), 0.7), rng,
                            x_label + " reactances, homogeneous sigma");
    check_one_configuration(hs, per_sensor, rng,
                            x_label + " reactances, per-sensor sigmas");
  }
}

}  // namespace mtdgrid::test
