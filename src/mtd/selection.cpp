#include "mtd/selection.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "core/parallel.hpp"
#include "grid/measurement.hpp"
#include "mtd/spa.hpp"
#include "opf/reactance_opf.hpp"

namespace mtdgrid::mtd {

MtdSelectionResult select_mtd_perturbation(const grid::PowerSystem& sys,
                                           const linalg::Matrix& h_attacker,
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

  const double penalty = options.penalty_scale * base_opf_cost;
  constexpr double kInfeasiblePenalty = 1e15;

  // Amortized hot-path evaluators. The SPA evaluator is built once per
  // call and shared by every worker: its gamma() is const, and one
  // construction keeps the Gram factorization count independent of the
  // thread count. The dispatch evaluator stays per worker
  // (SelectionWorkerState) so its atomic counters' cache lines are not
  // shared; each pool worker builds its own lazily on first use and
  // reuses it across the corner-scoring and multi-start regions below.
  // With `options.worker_cache` those states additionally survive across
  // *calls* with unchanged inputs (the daily gamma-grid retries); states
  // are interchangeable either way.
  std::unique_ptr<const SpaEvaluator> spa_eval;
  if (options.use_fast_path)
    spa_eval = std::make_unique<const SpaEvaluator>(sys, h_attacker);
  core::WorkerStates<SelectionWorkerState> local_states;
  core::WorkerStates<SelectionWorkerState>& worker_states =
      options.worker_cache != nullptr ? options.worker_cache->slots()
                                      : local_states;
  if (options.worker_cache == nullptr)
    local_states.resize(core::worker_state_slots());
  const auto make_state = [&] {
    SelectionWorkerState state;
    if (options.use_fast_path)
      state.dispatch_eval = std::make_unique<opf::DispatchEvaluator>(sys);
    return state;
  };

  // Penalized objective: dispatch cost + quadratic penalty on the unmet
  // part of the SPA constraint (exact for a large enough multiplier).
  // Evaluated through a worker's own state; identical states give
  // identical values, so the objective is a pure function of dfacts_x.
  const auto objective_with = [&](const SelectionWorkerState& state,
                                  const linalg::Vector& dfacts_x) {
    const linalg::Vector x = opf::expand_dfacts_reactances(sys, dfacts_x);
    const opf::DispatchResult d = state.dispatch_eval
                                      ? state.dispatch_eval->evaluate(x)
                                      : opf::solve_dc_opf(sys, x);
    if (!d.feasible) return kInfeasiblePenalty;
    const double gamma =
        spa_eval ? spa_eval->gamma(x)
                 : spa(h_attacker, grid::measurement_matrix(sys, x));
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
    // across the pool with one dispatch evaluator per worker.
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
    core::parallel_for_with_shared_state(
        corners.size(), worker_states, make_state,
        [&](SelectionWorkerState& state, std::size_t c) {
          corners[c].score = objective_with(state, corners[c].x);
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

  // One Nelder-Mead run per start, in parallel with per-worker states;
  // the ordered strict-'<' fold below picks the same winner the sequential
  // start loop would.
  std::vector<opf::DirectSearchResult> results(starts.size());
  core::parallel_for_with_shared_state(
      starts.size(), worker_states, make_state,
      [&](SelectionWorkerState& state, std::size_t i) {
        results[i] = opf::nelder_mead_box(
            [&](const linalg::Vector& x) { return objective_with(state, x); },
            lo, hi, starts[i], options.search);
      });
  opf::DirectSearchResult best;
  bool first = true;
  for (opf::DirectSearchResult& r : results) {
    if (first || r.value < best.value) {
      best = std::move(r);
      first = false;
    }
  }

  MtdSelectionResult result;
  result.reactances = opf::expand_dfacts_reactances(sys, best.x);
  result.dispatch = opf::solve_dc_opf(sys, result.reactances);
  result.h_mtd = grid::measurement_matrix(sys, result.reactances);
  result.spa = spa(h_attacker, result.h_mtd);
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
