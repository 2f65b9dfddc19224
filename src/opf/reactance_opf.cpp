#include "opf/reactance_opf.hpp"

#include <cassert>

namespace mtdgrid::opf {

linalg::Vector expand_dfacts_reactances(const grid::PowerSystem& sys,
                                        const linalg::Vector& dfacts_x) {
  const auto dfacts = sys.dfacts_branches();
  assert(dfacts_x.size() == dfacts.size());
  linalg::Vector x = sys.reactances();
  for (std::size_t k = 0; k < dfacts.size(); ++k) x[dfacts[k]] = dfacts_x[k];
  return x;
}

ReactanceOpfResult solve_reactance_opf(const grid::PowerSystem& sys,
                                       stats::Rng& rng,
                                       const ReactanceOpfOptions& options) {
  const auto dfacts = sys.dfacts_branches();
  ReactanceOpfResult result;

  if (dfacts.empty()) {
    // No D-FACTS: problem (1) degenerates to the plain dispatch LP.
    result.reactances = sys.reactances();
    result.dispatch = solve_dc_opf(sys, result.reactances);
    result.feasible = result.dispatch.feasible;
    return result;
  }

  const linalg::Vector lo_full = sys.reactance_lower_limits();
  const linalg::Vector hi_full = sys.reactance_upper_limits();
  linalg::Vector lo(dfacts.size()), hi(dfacts.size()), x0(dfacts.size());
  for (std::size_t k = 0; k < dfacts.size(); ++k) {
    lo[k] = lo_full[dfacts[k]];
    hi[k] = hi_full[dfacts[k]];
    x0[k] = sys.branch(dfacts[k]).reactance;
  }

  constexpr double kInfeasiblePenalty = 1e12;
  const auto objective = [&](const linalg::Vector& dfacts_x) {
    const linalg::Vector x = expand_dfacts_reactances(sys, dfacts_x);
    const DispatchResult d = solve_dc_opf(sys, x);
    return d.feasible ? d.cost : kInfeasiblePenalty;
  };

  const DirectSearchResult best = multi_start_minimize(
      objective, lo, hi, x0, options.extra_starts, rng, options.search);

  result.reactances = expand_dfacts_reactances(sys, best.x);
  result.dispatch = solve_dc_opf(sys, result.reactances);
  result.feasible =
      result.dispatch.feasible && best.value < kInfeasiblePenalty;
  return result;
}

}  // namespace mtdgrid::opf
