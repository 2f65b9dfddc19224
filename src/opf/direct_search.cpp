#include "opf/direct_search.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "core/parallel.hpp"

namespace mtdgrid::opf {

namespace {

// Simplex-size convergence threshold, in x and in relative f.
constexpr double kTolerance = 1e-8;

linalg::Vector clamp_to_box(linalg::Vector x, const linalg::Vector& lo,
                            const linalg::Vector& hi) {
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = std::clamp(x[i], lo[i], hi[i]);
  return x;
}

}  // namespace

DirectSearchResult nelder_mead_box(
    const std::function<double(const linalg::Vector&)>& objective,
    const linalg::Vector& lo, const linalg::Vector& hi,
    const linalg::Vector& x0, const DirectSearchOptions& options) {
  assert(lo.size() == hi.size() && lo.size() == x0.size());
  const std::size_t n = x0.size();

  struct Point {
    linalg::Vector x;
    double f;
  };

  int evaluations = 0;
  const auto eval = [&](const linalg::Vector& x) {
    ++evaluations;
    return objective(x);
  };

  // Initial simplex: x0 plus one vertex per coordinate, stepping a fraction
  // of the box width (stepping inward when at the upper bound).
  std::vector<Point> simplex;
  simplex.reserve(n + 1);
  linalg::Vector start = clamp_to_box(x0, lo, hi);
  simplex.push_back({start, eval(start)});
  for (std::size_t i = 0; i < n; ++i) {
    linalg::Vector v = start;
    const double width = hi[i] - lo[i];
    double step = options.initial_step * (width > 0.0 ? width : 1.0);
    if (v[i] + step > hi[i]) step = -step;
    v[i] = std::clamp(v[i] + step, lo[i], hi[i]);
    simplex.push_back({v, eval(v)});
  }

  const auto by_value = [](const Point& a, const Point& b) {
    return a.f < b.f;
  };
  std::sort(simplex.begin(), simplex.end(), by_value);

  while (evaluations < options.max_evaluations) {
    // Convergence: the simplex has collapsed in both x and f.
    double max_spread = 0.0;
    for (std::size_t i = 1; i <= n; ++i)
      max_spread = std::max(
          max_spread, linalg::max_abs_diff(simplex[0].x, simplex[i].x));
    const double f_spread = std::abs(simplex[n].f - simplex[0].f);
    if (max_spread < kTolerance &&
        f_spread < kTolerance * (1.0 + std::abs(simplex[0].f)))
      break;

    // Centroid of all but the worst vertex.
    linalg::Vector centroid(n);
    for (std::size_t i = 0; i < n; ++i) {
      double acc = 0.0;
      for (std::size_t k = 0; k < n; ++k) acc += simplex[k].x[i];
      centroid[i] = acc / static_cast<double>(n);
    }

    const Point& worst = simplex[n];
    const auto blend = [&](double coeff) {
      linalg::Vector x(n);
      for (std::size_t i = 0; i < n; ++i)
        x[i] = centroid[i] + coeff * (centroid[i] - worst.x[i]);
      return clamp_to_box(std::move(x), lo, hi);
    };

    // Standard Nelder-Mead moves: reflect, expand, contract, shrink.
    const linalg::Vector xr = blend(1.0);
    const double fr = eval(xr);
    if (fr < simplex[0].f) {
      const linalg::Vector xe = blend(2.0);
      const double fe = eval(xe);
      simplex[n] = (fe < fr) ? Point{xe, fe} : Point{xr, fr};
    } else if (fr < simplex[n - 1].f) {
      simplex[n] = {xr, fr};
    } else {
      const bool outside = fr < worst.f;
      const linalg::Vector xc = blend(outside ? 0.5 : -0.5);
      const double fc = eval(xc);
      if (fc < std::min(fr, worst.f)) {
        simplex[n] = {xc, fc};
      } else {
        // Shrink toward the best vertex.
        for (std::size_t i = 1; i <= n; ++i) {
          linalg::Vector x(n);
          for (std::size_t k = 0; k < n; ++k)
            x[k] = simplex[0].x[k] + 0.5 * (simplex[i].x[k] - simplex[0].x[k]);
          simplex[i].x = clamp_to_box(std::move(x), lo, hi);
          simplex[i].f = eval(simplex[i].x);
          if (evaluations >= options.max_evaluations) break;
        }
      }
    }
    std::sort(simplex.begin(), simplex.end(), by_value);
  }

  return {simplex[0].x, simplex[0].f, evaluations};
}

DirectSearchResult multi_start_minimize(
    const std::function<double(const linalg::Vector&)>& objective,
    const linalg::Vector& lo, const linalg::Vector& hi,
    const linalg::Vector& x0, int extra_starts, stats::Rng& rng,
    const DirectSearchOptions& options) {
  return multi_start_minimize(objective, lo, hi,
                              std::vector<linalg::Vector>{x0}, extra_starts,
                              rng, options);
}

DirectSearchResult multi_start_minimize(
    const std::function<double(const linalg::Vector&)>& objective,
    const linalg::Vector& lo, const linalg::Vector& hi,
    const std::vector<linalg::Vector>& starts, int extra_starts,
    stats::Rng& rng, const DirectSearchOptions& options) {
  // Draw the whole start portfolio up front, sequentially from `rng`: the
  // points (and the generator's final state) are then independent of how
  // the searches below are scheduled.
  std::vector<linalg::Vector> portfolio = starts;
  const int random_starts =
      starts.empty() ? std::max(1, extra_starts) : extra_starts;
  for (int s = 0; s < random_starts; ++s) {
    linalg::Vector start(lo.size());
    for (std::size_t i = 0; i < lo.size(); ++i)
      start[i] = rng.uniform(lo[i], hi[i]);
    portfolio.push_back(std::move(start));
  }

  // One independent Nelder-Mead per start, in parallel; the best-of fold
  // runs in start order with a strict '<', matching the sequential scan.
  const std::vector<DirectSearchResult> results =
      core::parallel_map<DirectSearchResult>(
          portfolio.size(), [&](std::size_t i) {
            return nelder_mead_box(objective, lo, hi, portfolio[i], options);
          });

  DirectSearchResult best;
  bool first = true;
  int total_evals = 0;
  for (const DirectSearchResult& r : results) {
    total_evals += r.evaluations;
    if (first || r.value < best.value) {
      best = r;
      first = false;
    }
  }
  best.evaluations = total_evals;
  return best;
}

}  // namespace mtdgrid::opf
