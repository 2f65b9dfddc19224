#pragma once

#include <functional>
#include <vector>

#include "linalg/vector.hpp"
#include "stats/rng.hpp"

namespace mtdgrid::opf {

/// Options for the bound-constrained direct-search minimizers.
struct DirectSearchOptions {
  int max_evaluations = 4000;   ///< budget of objective evaluations
  double initial_step = 0.25;   ///< simplex edge, relative to the box width
};

/// Result of a direct-search minimization.
struct DirectSearchResult {
  linalg::Vector x;       ///< best point found (inside the box)
  double value = 0.0;     ///< objective at `x`
  int evaluations = 0;    ///< number of objective evaluations used
};

/// Nelder-Mead simplex search restricted to the box [lo, hi] (iterates are
/// projected onto the box). `x0` is the start point; it is clamped into the
/// box. Stops when the evaluation budget is spent or the simplex has
/// collapsed to 1e-8 in both x and (relative) objective value. Suitable for the low-dimensional (|L_D| <= ~10) reactance searches
/// this library performs; the objective may be non-smooth (it embeds an LP).
DirectSearchResult nelder_mead_box(
    const std::function<double(const linalg::Vector&)>& objective,
    const linalg::Vector& lo, const linalg::Vector& hi,
    const linalg::Vector& x0, const DirectSearchOptions& options = {});

/// Multi-start wrapper mirroring the paper's fmincon+MultiStart usage:
/// runs Nelder-Mead from `x0` plus `extra_starts` uniform random points in
/// the box (drawn from `rng`) and returns the best result.
///
/// The starts run concurrently on the global `core::ThreadPool`, so
/// `objective` must be safe to call from several threads at once (pure
/// functions and const evaluators qualify; see DESIGN.md "Threading model"
/// for the per-worker-state pattern when it is not). Determinism: the
/// start portfolio is drawn sequentially from `rng` up front and the
/// best-of reduction scans results in start order, so the outcome — and
/// the state `rng` is left in — is bit-identical for every thread count.
DirectSearchResult multi_start_minimize(
    const std::function<double(const linalg::Vector&)>& objective,
    const linalg::Vector& lo, const linalg::Vector& hi,
    const linalg::Vector& x0, int extra_starts, stats::Rng& rng,
    const DirectSearchOptions& options = {});

/// Multi-start with an explicit start portfolio (e.g. the incumbent
/// solution of the previous solve plus the nominal point) in addition to
/// `extra_starts` random interior points. Every start is clamped into the
/// box; an empty portfolio behaves like a single random start.
DirectSearchResult multi_start_minimize(
    const std::function<double(const linalg::Vector&)>& objective,
    const linalg::Vector& lo, const linalg::Vector& hi,
    const std::vector<linalg::Vector>& starts, int extra_starts,
    stats::Rng& rng, const DirectSearchOptions& options = {});

}  // namespace mtdgrid::opf
