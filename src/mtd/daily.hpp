#pragma once

#include <cstddef>
#include <vector>

#include "grid/load_trace.hpp"
#include "grid/power_system.hpp"
#include "linalg/vector.hpp"
#include "mtd/effectiveness.hpp"
#include "mtd/selection.hpp"
#include "opf/dc_opf.hpp"
#include "stats/rng.hpp"

namespace mtdgrid::mtd {

/// Options for the day-long MTD simulation (paper Section VII-C).
struct DailySimulationOptions {
  /// Target effectiveness: tune gamma_th per hour until
  /// eta'(target_delta) >= target_eta (paper uses delta=0.9, eta=0.9).
  double target_delta = 0.9;  ///< delta at which eta' is evaluated
  double target_eta = 0.9;    ///< required eta'(target_delta)
  /// Candidate gamma_th grid searched in ascending order. Capped at 0.30
  /// rad: the achievable SPA ceiling varies by hour with the no-MTD
  /// operating point (cf. Fig. 11) and hovers around 0.25-0.32 for the
  /// IEEE 14-bus D-FACTS deployment.
  std::vector<double> gamma_grid = {0.05, 0.10, 0.15, 0.20, 0.25, 0.30};
  /// Nelder-Mead evaluation budget of each hour's *baseline* (no-MTD)
  /// OPF polish — the warm-started local search of problem (1). The
  /// historical budget is 400; the serving daemon lowers it to trade
  /// startup time against baseline quality.
  int base_search_evaluations = 400;
  EffectivenessOptions effectiveness;  ///< per-hour evaluation settings
  MtdSelectionOptions selection;       ///< per-hour problem-(4) settings
};

/// One hour of the day-long simulation.
struct HourlyRecord {
  std::size_t hour = 0;  ///< virtual-clock hour (trace hour = hour % 24)
  double total_load_mw = 0.0;     ///< system load this hour (MW)
  double base_opf_cost = 0.0;     ///< C_OPF,t' (no MTD)
  double mtd_opf_cost = 0.0;      ///< C'_OPF,t' (with MTD)
  double cost_increase_pct = 0.0; ///< 100 * C_MTD (paper eq. (3))
  double gamma_threshold = 0.0;   ///< gamma_th used at this hour
  double gamma_ht_htp = 0.0;      ///< gamma(H_t, H_t')   (natural drift)
  double gamma_ht_hmtd = 0.0;     ///< gamma(H_t, H'_t')  (attacker view)
  double gamma_htp_hmtd = 0.0;    ///< gamma(H_t', H'_t') (cost driver)
  double eta_at_target = 0.0;     ///< achieved eta'(target_delta)
  bool feasible = false;          ///< selection met gamma_th and the OPF
};

/// Everything one re-keying step produces: the Fig. 9-11 record plus the
/// operational state a serving layer needs — the key (its reactance
/// vector), the dispatch, and the noiseless reference measurement at the
/// new operating point.
/// When `record.feasible` is false (no gamma grid entry admitted a
/// feasible selection, or a baseline OPF failed) the operational fields
/// are empty and the previous key should stay in force.
struct DailyHourOutcome {
  HourlyRecord record;        ///< the per-hour simulation record
  linalg::Vector reactances;  ///< the key: post-MTD reactances x' (length L)
  opf::DispatchResult dispatch;  ///< OPF dispatch at the chosen key
  linalg::Vector z_ref;       ///< noiseless measurements at the new key
};

/// The per-hour re-keying step of the paper's Section VII-C experiment,
/// factored out of `run_daily_simulation` so a long-running process (the
/// serving daemon) can advance a virtual clock hour by hour indefinitely.
///
/// Construction runs "pass 1": the no-MTD OPF of every trace hour
/// (problem (1)), warm-started hour to hour so gamma(H_t, H_t') stays
/// small (Fig. 11) — this is both the defender's baseline and the
/// attacker's one-hour-stale knowledge source, and it consumes no
/// randomness. Each `advance_hour` call then performs one "pass 2" step
/// for the next hour: tune gamma_th over the grid against the *previous*
/// hour's no-MTD key (cyclic at midnight) and solve problem (4),
/// exactly as `run_daily_simulation` does — 24 calls reproduce its
/// records bit for bit. Past hour 23 the engine wraps onto the trace's
/// next day while the warm-start state (incumbent perturbation, gamma
/// grid position) keeps carrying forward.
///
/// Keys are reactance vectors: `advance_hour` scores on CSR H and takes
/// the record's angles from `SpaEvaluator`s, never building a dense H.
///
/// \see serve::MtdDaemon for the serving layer built on this engine
/// (DESIGN.md "Serving architecture").
class DailyEngine {
 public:
  /// Builds the engine and runs the pass-1 baseline for every trace hour.
  /// Consumes no draws from any rng; throws std::invalid_argument on an
  /// empty gamma grid.
  DailyEngine(grid::PowerSystem sys, grid::DailyLoadTrace trace,
              DailySimulationOptions options);

  /// Runs the re-keying step for hour `next_hour()` and advances the
  /// virtual clock. `rng` advances exactly as the corresponding
  /// `run_daily_simulation` hour would (selection + effectiveness draws).
  DailyHourOutcome advance_hour(stats::Rng& rng);

  /// The hour index the next `advance_hour` call will produce (absolute,
  /// not wrapped: hour 24 is the second day's midnight).
  std::size_t next_hour() const { return hour_; }

  /// Hours per day of the underlying trace (24 for `DailyLoadTrace`).
  std::size_t hours_per_day() const { return trace_.size(); }

  /// The load trace the virtual clock replays, day after day.
  const grid::DailyLoadTrace& trace() const { return trace_; }

  /// The system operated on; loads are those of the hour last advanced
  /// (applied even when that hour could not be keyed).
  const grid::PowerSystem& system() const { return sys_; }

  /// The simulation options the engine was built with.
  const DailySimulationOptions& options() const { return options_; }

  /// The pass-1 no-MTD key of `trace_hour`: that hour's baseline and the
  /// next hour's attacker key (empty when its baseline OPF failed).
  const linalg::Vector& baseline_key(std::size_t trace_hour) const {
    return base_.at(trace_hour).reactances;
  }

 private:
  struct BaseHour {
    linalg::Vector reactances;
    double cost = 0.0;
    bool feasible = false;
  };

  grid::PowerSystem sys_;
  grid::DailyLoadTrace trace_;
  DailySimulationOptions options_;
  linalg::Vector base_loads_;
  std::vector<std::size_t> dfacts_;
  std::vector<BaseHour> base_;
  linalg::Vector mtd_warm_;     // previous hour's D-FACTS perturbation
  std::size_t start_idx_ = 0;   // gamma grid warm-start position
  std::size_t hour_ = 0;        // absolute virtual-clock hour
};

/// Runs the paper's dynamic-load experiment: for each hour of `trace`,
/// solve the no-MTD OPF (problem (1)), craft the attacker's knowledge from
/// the *previous* hour's no-MTD matrix, tune gamma_th to reach the target
/// effectiveness, and solve problem (4). Produces the data behind
/// Fig. 9 (fixing one hour and sweeping gamma), Fig. 10 and Fig. 11.
/// Implemented as one `DailyEngine` pass over the trace.
std::vector<HourlyRecord> run_daily_simulation(
    grid::PowerSystem sys, const grid::DailyLoadTrace& trace,
    const DailySimulationOptions& options, stats::Rng& rng);

}  // namespace mtdgrid::mtd
