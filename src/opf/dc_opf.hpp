#pragma once

#include <atomic>
#include <cstddef>

#include "grid/power_system.hpp"
#include "linalg/vector.hpp"

namespace mtdgrid::opf {

/// Solution of the DC optimal power flow (paper problem (1) for fixed
/// branch reactances): the least-cost generation dispatch that balances
/// the load and respects flow and generator limits.
struct DispatchResult {
  bool feasible = false;         ///< a valid dispatch was found
  linalg::Vector generation_mw;  ///< per-generator dispatch G_i (MW)
  linalg::Vector theta_reduced;  ///< bus angles, slack removed (rad)
  linalg::Vector flows_mw;       ///< branch flows (MW)
  double cost = 0.0;             ///< total generation cost, $/h
};

/// Solves the DC-OPF for the given branch reactances `x` (length L).
/// Returns `feasible == false` when no dispatch satisfies the constraints.
DispatchResult solve_dc_opf(const grid::PowerSystem& sys,
                            const linalg::Vector& x);

/// Solves the DC-OPF at the system's current nominal reactances.
DispatchResult solve_dc_opf(const grid::PowerSystem& sys);

/// Total generation cost of a dispatch under the system's linear cost
/// model, sum_i c_i * G_i.
double dispatch_cost(const grid::PowerSystem& sys,
                     const linalg::Vector& generation_mw);

/// Amortized DC-OPF evaluation for sweeping many reactance candidates over
/// a fixed system and load (the MTD selection loop calls the dispatch LP
/// once per candidate, ~8 ms at 57-bus scale with the dense simplex).
///
/// The flow-relaxed dispatch — the merit-order generator fill — is the
/// exact optimum of the LP with the flow limits dropped, and it does not
/// depend on the reactances at all. It is computed ONCE at construction;
/// `evaluate(x)` then runs a single power flow to check it against the
/// flow limits at x. When it fits (the common case away from congestion)
/// it is provably optimal for the full LP and the simplex solve is
/// skipped; otherwise the evaluator falls back to `solve_dc_opf`.
class DispatchEvaluator {
 public:
  /// Builds the evaluator for `sys`, solving the flow-relaxed dispatch
  /// once; `sys` must outlive the evaluator.
  explicit DispatchEvaluator(const grid::PowerSystem& sys);
  /// The evaluator only references the system; a temporary would dangle.
  explicit DispatchEvaluator(grid::PowerSystem&&) = delete;

  /// Optimal dispatch at reactances `x`; bit-equal cost to `solve_dc_opf`
  /// up to LP solver tolerances. Safe to call concurrently from several
  /// threads: all candidate-independent state is set at construction and
  /// the instrumentation counters are atomic, so the selection sweep
  /// builds one evaluator per call and shares it across the pool.
  DispatchResult evaluate(const linalg::Vector& x) const;

  /// Instrumentation: how often the relaxed dispatch was accepted.
  std::size_t fast_path_hits() const { return fast_hits_; }
  /// Instrumentation: how often the full simplex fallback ran.
  std::size_t lp_fallbacks() const { return lp_fallbacks_; }

 private:
  const grid::PowerSystem& sys_;  // must outlive the evaluator
  bool relaxed_ok_ = false;
  linalg::Vector relaxed_generation_;
  linalg::Vector injections_mw_;
  double relaxed_cost_ = 0.0;
  mutable std::atomic<std::size_t> fast_hits_{0};
  mutable std::atomic<std::size_t> lp_fallbacks_{0};
};

}  // namespace mtdgrid::opf
