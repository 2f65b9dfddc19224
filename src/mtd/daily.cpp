#include "mtd/daily.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "grid/measurement.hpp"
#include "mtd/spa.hpp"
#include "obs/scope.hpp"
#include "opf/reactance_opf.hpp"

namespace mtdgrid::mtd {

DailyEngine::DailyEngine(grid::PowerSystem sys, grid::DailyLoadTrace trace,
                         DailySimulationOptions options)
    : sys_(std::move(sys)),
      trace_(std::move(trace)),
      options_(std::move(options)),
      base_loads_(sys_.loads_mw()),
      dfacts_(sys_.dfacts_branches()) {
  if (options_.gamma_grid.empty())
    throw std::invalid_argument("daily simulation: empty gamma grid");

  const std::size_t hours = trace_.size();

  // Pass 1: the no-MTD system of every hour — problem (1) with D-FACTS,
  // giving x_t, H_t and C_OPF,t. These are both the defender's baseline
  // and the attacker's (one-hour-stale) knowledge source.
  //
  // The hourly OPF is warm-started from the previous hour's reactances and
  // polished with a *local* search only. This models how utilities track
  // the slowly varying load (OPF every few minutes) and is what makes
  // gamma(H_t, H_t') nearly zero in Fig. 11: a randomized multi-start
  // would hop across the flat-cost plateau in x and hand the attacker's
  // stale knowledge a spurious MTD effect.
  const linalg::Vector lo_full = sys_.reactance_lower_limits();
  const linalg::Vector hi_full = sys_.reactance_upper_limits();
  linalg::Vector lo(dfacts_.size()), hi(dfacts_.size()), x_warm(dfacts_.size());
  for (std::size_t k = 0; k < dfacts_.size(); ++k) {
    lo[k] = lo_full[dfacts_[k]];
    hi[k] = hi_full[dfacts_[k]];
    x_warm[k] = sys_.branch(dfacts_[k]).reactance;
  }

  base_.resize(hours);
  obs::Span span("mtd.baseline", "mtd");
  for (std::size_t h = 0; h < hours; ++h) {
    trace_.apply(sys_, h, base_loads_);
    constexpr double kInfeasiblePenalty = 1e12;
    // The local search runs LP-free whenever the hour's merit-order
    // dispatch stays inside the flow limits (`solve_dc_opf`'s certificate).
    const auto cost_of = [&](const linalg::Vector& dfacts_x) {
      const linalg::Vector x = opf::expand_dfacts_reactances(sys_, dfacts_x);
      const opf::DispatchResult d = opf::solve_dc_opf(sys_, x);
      return d.feasible ? d.cost : kInfeasiblePenalty;
    };
    opf::DirectSearchOptions local;
    local.max_evaluations = options_.base_search_evaluations;
    local.initial_step = 0.05;  // small step: stay near the warm start
    const opf::DirectSearchResult r =
        opf::nelder_mead_box(cost_of, lo, hi, x_warm, local);
    if (r.value >= kInfeasiblePenalty) continue;
    x_warm = r.x;
    base_[h].reactances = opf::expand_dfacts_reactances(sys_, r.x);
    const opf::DispatchResult d = opf::solve_dc_opf(sys_, base_[h].reactances);
    base_[h].feasible = d.feasible;
    base_[h].cost = d.cost;
  }
}

DailyHourOutcome DailyEngine::advance_hour(stats::Rng& rng) {
  obs::add(obs::Work::kEngineHours);
  obs::Span span("mtd.advance_hour", "mtd");
  const std::size_t hours = trace_.size();
  const std::size_t h = hour_ % hours;  // trace hour of this step

  DailyHourOutcome out;
  HourlyRecord& rec = out.record;
  rec.hour = hour_;
  rec.total_load_mw = trace_.total_mw(h);
  ++hour_;

  // Apply the hour's loads even when it cannot be keyed: a caller holding
  // an earlier key re-dispatches against `system()` at this hour's loads.
  trace_.apply(sys_, h, base_loads_);
  const std::size_t prev = (h + hours - 1) % hours;
  if (!base_[h].feasible || !base_[prev].feasible) return out;
  rec.base_opf_cost = base_[h].cost;

  const linalg::Vector& x_attacker = base_[prev].reactances;
  const linalg::Vector& x_now = base_[h].reactances;
  const linalg::SparseMatrix h_attacker =
      grid::sparse_measurement_matrix(sys_, x_attacker);
  // The record's angles from this hour's no-MTD key. gamma is symmetric
  // (sin gamma = ||P - P'||_2 for equal-dimension subspaces), so the one
  // evaluator also gives gamma(H_t, H_t'); gamma(H_t, H'_t') is the
  // selection's own.
  const SpaEvaluator from_now(sys_, x_now);

  // The effectiveness each hour's key must reach: eta'(target_delta).
  constexpr double kTargetEta = 0.9;
  MtdSelectionOptions sel = options_.selection;
  // Pin the achieved SPA at gamma_th: minimizing cost over the flat-cost
  // plateau leaves the angle under-determined, and a drifting angle would
  // decouple the tuned threshold from the achieved effectiveness (and
  // from the cost the paper's Fig. 10 attributes to it).
  sel.pin_gamma = true;
  // Warm-start from the previous hour's perturbation: the load moves a
  // few percent per hour, so the incumbent is usually near-feasible for
  // the new hour and saves the search most of its exploration budget.
  sel.warm_start = mtd_warm_;
  bool done = false;
  for (std::size_t gi = start_idx_; gi < options_.gamma_grid.size(); ++gi) {
    sel.gamma_threshold = options_.gamma_grid[gi];
    MtdSelectionResult res =
        select_mtd_perturbation(sys_, x_attacker, base_[h].cost, sel, rng);
    if (!res.feasible) continue;
    mtd_warm_ = linalg::Vector(dfacts_.size());
    for (std::size_t k = 0; k < dfacts_.size(); ++k)
      mtd_warm_[k] = res.reactances[dfacts_[k]];

    const linalg::Vector z_ref = grid::noiseless_measurements(
        sys_, res.reactances, res.dispatch.theta_reduced);
    EffectivenessOptions eff = options_.effectiveness;
    eff.deltas = {options_.target_delta};
    const EffectivenessResult er = evaluate_effectiveness(
        h_attacker, grid::sparse_measurement_matrix(sys_, res.reactances),
        z_ref, eff, rng);

    rec.gamma_threshold = sel.gamma_threshold;
    rec.mtd_opf_cost = res.opf_cost;
    // C_MTD is non-negative by construction (problem (4)'s feasible set
    // is contained in problem (1)'s); a tiny negative value only means
    // the warm-started hourly baseline was not polished to the global
    // optimum, so report "no additional cost".
    rec.cost_increase_pct = std::max(0.0, 100.0 * res.cost_increase);
    rec.gamma_ht_htp = from_now.gamma(x_attacker);
    rec.gamma_ht_hmtd = res.spa;
    rec.gamma_htp_hmtd = from_now.gamma(res.reactances);
    rec.eta_at_target = er.eta[0];
    rec.feasible = true;

    // Export the operational state of this (so far best) key.
    out.z_ref = z_ref;
    out.dispatch = std::move(res.dispatch);
    out.reactances = std::move(res.reactances);

    if (er.eta[0] >= kTargetEta) {
      done = true;
      // Warm-start the next hour one grid step below this one.
      start_idx_ = (gi > 0) ? gi - 1 : 0;
      break;
    }
  }
  if (!done && !rec.feasible) {
    // Nothing feasible from the warm start onward: retry from scratch
    // next hour.
    start_idx_ = 0;
  }
  return out;
}

std::vector<HourlyRecord> run_daily_simulation(
    grid::PowerSystem sys, const grid::DailyLoadTrace& trace,
    const DailySimulationOptions& options, stats::Rng& rng) {
  DailyEngine engine(std::move(sys), trace, options);
  std::vector<HourlyRecord> records;
  records.reserve(trace.size());
  for (std::size_t h = 0; h < trace.size(); ++h)
    records.push_back(engine.advance_hour(rng).record);
  return records;
}

}  // namespace mtdgrid::mtd
