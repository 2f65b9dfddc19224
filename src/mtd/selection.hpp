#pragma once

#include "grid/power_system.hpp"
#include "linalg/vector.hpp"
#include "mtd/spa.hpp"
#include "opf/dc_opf.hpp"
#include "opf/direct_search.hpp"
#include "stats/rng.hpp"

namespace mtdgrid::mtd {

/// Options for the SPA-constrained minimum-cost MTD selection (paper
/// problem (4)).
struct MtdSelectionOptions {
  double gamma_threshold = 0.2;  ///< gamma_th constraint (radians)
  /// Multi-starts beyond the nominal point and the warm start (fmincon
  /// MultiStart): `extra_starts / 2` random interior points, the rest the
  /// best-scoring corners of the D-FACTS box.
  int extra_starts = 4;
  opf::DirectSearchOptions search;  ///< Nelder-Mead budget per start
  /// Tolerance on the SPA constraint when declaring feasibility.
  double constraint_tol = 2e-3;
  /// When true, penalize |gamma - gamma_th| instead of only the deficit,
  /// pinning the achieved SPA near the threshold. Used by the Fig. 6
  /// sweeps and the daily loop, where each point must sit *at* a given
  /// gamma; the flat-cost plateau would otherwise let the optimizer drift
  /// to a larger angle.
  bool pin_gamma = false;
  /// Optional incumbent D-FACTS reactances (one entry per D-FACTS branch,
  /// `dfacts_branches()` order) added to the start portfolio — e.g. the
  /// previous hour's perturbation in the daily loop. Empty = none.
  linalg::Vector warm_start;
};

/// Result of the MTD perturbation selection.
struct MtdSelectionResult {
  bool feasible = false;       ///< SPA constraint met and OPF feasible
  linalg::Vector reactances;   ///< chosen post-perturbation reactances x'
  opf::DispatchResult dispatch;  ///< OPF at the chosen reactances
  double spa = 0.0;            ///< achieved gamma(H_attacker, H(x'))
  double opf_cost = 0.0;       ///< C'_OPF (cost with MTD)
  double base_opf_cost = 0.0;  ///< C_OPF (cost without MTD)
  double cost_increase = 0.0;  ///< C_MTD = (C' - C)/C, paper eq. (3)
};

/// Solves problem (4): minimize operational cost over the D-FACTS
/// reactances subject to gamma(H_attacker, H(x')) >= gamma_th and the
/// OPF constraints. `x_attacker` is the full length-L reactance vector
/// the attacker learned, so H_t = H(x_attacker); it may differ from the
/// system's nominal reactances only on D-FACTS branches.
/// `base_opf_cost` must be the no-MTD OPF cost C_OPF,t' used to normalize
/// the paper's cost metric (3). A malformed `x_attacker` throws the
/// `SpaEvaluator` constructor's std::invalid_argument.
///
/// Implementation: for fixed reactances the cost is the DC-OPF
/// (`opf::solve_dc_opf`: the merit-order certificate, with the dispatch
/// LP as its fallback); the SPA constraint is enforced with an
/// exact-penalty term (weight 1e4 x the base cost) and
/// the D-FACTS reactances are optimized by `opf::multi_start_minimize`
/// over the start portfolio, mirroring the paper's fmincon + MultiStart
/// approach. Each call builds one `SpaEvaluator` (the k x k gamma
/// tables), which is const and thread-safe and shared by every pool
/// worker. The reported `spa` comes from the same evaluator.
MtdSelectionResult select_mtd_perturbation(const grid::PowerSystem& sys,
                                           const linalg::Vector& x_attacker,
                                           double base_opf_cost,
                                           const MtdSelectionOptions& options,
                                           stats::Rng& rng);

}  // namespace mtdgrid::mtd
