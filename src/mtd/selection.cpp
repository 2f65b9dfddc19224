#include "mtd/selection.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/parallel.hpp"
#include "mtd/spa.hpp"
#include "opf/reactance_opf.hpp"

namespace mtdgrid::mtd {

MtdSelectionResult select_mtd_perturbation(const grid::PowerSystem& sys,
                                           const linalg::Vector& x_attacker,
                                           double base_opf_cost,
                                           const MtdSelectionOptions& options,
                                           stats::Rng& rng) {
  if (base_opf_cost <= 0.0)
    throw std::invalid_argument("MTD selection: base OPF cost must be > 0");
  if (options.gamma_threshold < 0.0)
    throw std::invalid_argument("MTD selection: negative gamma threshold");
  const auto dfacts = sys.dfacts_branches();
  if (dfacts.empty())
    throw std::invalid_argument("MTD selection: system has no D-FACTS");

  const linalg::Vector lo_full = sys.reactance_lower_limits();
  const linalg::Vector hi_full = sys.reactance_upper_limits();
  linalg::Vector lo(dfacts.size()), hi(dfacts.size()), x0(dfacts.size());
  for (std::size_t k = 0; k < dfacts.size(); ++k) {
    lo[k] = lo_full[dfacts[k]];
    hi[k] = hi_full[dfacts[k]];
    x0[k] = sys.branch(dfacts[k]).reactance;
  }

  // Constraint-violation penalty relative to the base OPF cost; large
  // enough that a feasible point always beats an infeasible one.
  constexpr double kPenaltyScale = 1e4;
  const double penalty = kPenaltyScale * base_opf_cost;
  constexpr double kInfeasiblePenalty = 1e15;

  // One SPA evaluator per call, shared by every worker: it is const and
  // thread-safe, and one construction keeps the Gram factorization count
  // independent of the thread count.
  const SpaEvaluator spa_eval(sys, x_attacker);

  // Penalized objective: dispatch cost + quadratic penalty on the unmet
  // part of the SPA constraint (exact for a large enough multiplier).
  const auto objective = [&](const linalg::Vector& dfacts_x) {
    const linalg::Vector x = opf::expand_dfacts_reactances(sys, dfacts_x);
    const opf::DispatchResult d = opf::solve_dc_opf(sys, x);
    if (!d.feasible) return kInfeasiblePenalty;
    const double gamma = spa_eval.gamma(x);
    const double deficit =
        options.pin_gamma ? std::abs(options.gamma_threshold - gamma)
                          : std::max(0.0, options.gamma_threshold - gamma);
    return d.cost + penalty * deficit * (1.0 + deficit);
  };

  // Multi-start portfolio: the nominal point, the incumbent warm start
  // when provided, random interior points, and
  // the best corners of the D-FACTS box. Corners produce the largest
  // column-space rotations, so they are essential starts when gamma_th is
  // near the achievable ceiling (interior starts alone often stall on the
  // penalty plateau). With up to 8 D-FACTS branches the full corner set is
  // small enough to probe exhaustively; otherwise sample it.
  std::vector<linalg::Vector> starts;
  starts.push_back(x0);
  if (options.warm_start.size() == dfacts.size() &&
      options.warm_start.size() > 0) {
    linalg::Vector warm = options.warm_start;
    for (std::size_t i = 0; i < warm.size(); ++i)
      warm[i] = std::clamp(warm[i], lo[i], hi[i]);
    starts.push_back(std::move(warm));
  }
  const int num_random = std::max(0, options.extra_starts / 2);
  const int num_corners = options.extra_starts - num_random;
  for (int s = 0; s < num_random; ++s) {
    linalg::Vector start(lo.size());
    for (std::size_t i = 0; i < lo.size(); ++i)
      start[i] = rng.uniform(lo[i], hi[i]);
    starts.push_back(std::move(start));
  }
  if (num_corners > 0) {
    struct ScoredCorner {
      double score;
      linalg::Vector x;
    };
    // Corner generation stays sequential (it draws from `rng` when the box
    // has more than 8 dimensions); the expensive scoring sweep fans out
    // across the pool.
    std::vector<ScoredCorner> corners;
    const std::size_t dims = lo.size();
    const std::size_t total =
        dims <= 8 ? (std::size_t{1} << dims) : std::size_t{64};
    for (std::size_t c = 0; c < total; ++c) {
      linalg::Vector corner(dims);
      for (std::size_t i = 0; i < dims; ++i) {
        const bool high =
            dims <= 8 ? ((c >> i) & 1u) != 0 : rng.uniform() < 0.5;
        corner[i] = high ? hi[i] : lo[i];
      }
      corners.push_back({0.0, std::move(corner)});
    }
    core::parallel_for(corners.size(), [&](std::size_t c) {
      corners[c].score = objective(corners[c].x);
    });
    std::sort(corners.begin(), corners.end(),
              [](const ScoredCorner& a, const ScoredCorner& b) {
                return a.score < b.score;
              });
    const std::size_t take =
        std::min<std::size_t>(static_cast<std::size_t>(num_corners),
                              corners.size());
    for (std::size_t i = 0; i < take; ++i)
      starts.push_back(std::move(corners[i].x));
  }

  // Every start is in the portfolio already, so the multi-start draws
  // nothing more from `rng`.
  const opf::DirectSearchResult best = opf::multi_start_minimize(
      objective, lo, hi, starts, 0, rng, options.search);

  MtdSelectionResult result;
  result.reactances = opf::expand_dfacts_reactances(sys, best.x);
  result.dispatch = opf::solve_dc_opf(sys, result.reactances);
  result.spa = spa_eval.gamma(result.reactances);
  result.base_opf_cost = base_opf_cost;
  if (result.dispatch.feasible) {
    result.opf_cost = result.dispatch.cost;
    result.cost_increase =
        (result.opf_cost - base_opf_cost) / base_opf_cost;
  }
  result.feasible =
      result.dispatch.feasible &&
      result.spa >= options.gamma_threshold - options.constraint_tol;
  return result;
}

}  // namespace mtdgrid::mtd
