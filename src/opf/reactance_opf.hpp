#pragma once

#include "grid/power_system.hpp"
#include "opf/dc_opf.hpp"
#include "opf/direct_search.hpp"
#include "stats/rng.hpp"

namespace mtdgrid::opf {

/// Options for the reactance-augmented OPF (paper problem (1) with the
/// D-FACTS reactances as decision variables alongside the dispatch).
struct ReactanceOpfOptions {
  int extra_starts = 4;          ///< random multi-starts beyond the nominal x
  DirectSearchOptions search;    ///< inner Nelder-Mead budget
};

/// Result of the reactance-augmented OPF.
struct ReactanceOpfResult {
  bool feasible = false;      ///< a feasible (x, dispatch) pair was found
  linalg::Vector reactances;  ///< full branch reactance vector (length L)
  DispatchResult dispatch;    ///< dispatch at the optimized reactances
};

/// Solves min_{g, x} cost subject to the DC-OPF constraints and the
/// D-FACTS reactance limits. For fixed x the problem is an LP, answered by
/// `solve_dc_opf` (merit-order certificate, simplex fallback); the few
/// D-FACTS reactances are optimized by multi-start Nelder-Mead, mirroring
/// the paper's fmincon-with-MultiStart setup.
ReactanceOpfResult solve_reactance_opf(const grid::PowerSystem& sys,
                                       stats::Rng& rng,
                                       const ReactanceOpfOptions& options = {});

/// Expands a vector of D-FACTS-branch reactances (one entry per D-FACTS
/// branch, in `dfacts_branches()` order) into a full length-L reactance
/// vector, keeping non-D-FACTS branches at their nominal values.
linalg::Vector expand_dfacts_reactances(const grid::PowerSystem& sys,
                                        const linalg::Vector& dfacts_x);

}  // namespace mtdgrid::opf
