// Reproduces Fig. 9: the tradeoff between the MTD's effectiveness
// eta'(delta) and its operational cost (relative OPF cost increase,
// paper eq. (3)) on the IEEE 14-bus system at the 6 PM load of the daily
// trace, with the attacker's knowledge outdated by one hour.

#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "grid/cases.hpp"
#include "grid/load_trace.hpp"
#include "grid/measurement.hpp"
#include "grid/power_flow.hpp"
#include "mtd/effectiveness.hpp"
#include "mtd/selection.hpp"
#include "opf/reactance_opf.hpp"
#include "stats/rng.hpp"

namespace {

using namespace mtdgrid;

void run_experiment() {
  const bench::Scale scale = bench::scale_from_env();
  grid::PowerSystem sys = grid::make_case14();
  const grid::DailyLoadTrace trace =
      grid::DailyLoadTrace::nyiso_winter_weekday();
  const linalg::Vector base_loads = sys.loads_mw();
  stats::Rng rng(31);

  // Attacker knowledge: the no-MTD system at 5 PM (one hour stale).
  trace.apply(sys, 16, base_loads);
  const opf::ReactanceOpfResult base_5pm = opf::solve_reactance_opf(sys, rng);
  const linalg::SparseMatrix h_attacker =
      grid::sparse_measurement_matrix(sys, base_5pm.reactances);

  // Defender operates at the 6 PM load.
  trace.apply(sys, 17, base_loads);
  const opf::ReactanceOpfResult base_6pm = opf::solve_reactance_opf(sys, rng);

  bench::print_header(
      "Fig. 9 — effectiveness vs operational cost, 6 PM load",
      "Paper shape: cost ~ 0 for low eta'(delta), then a steep rise as "
      "eta' -> 1 (e.g. 0.96% -> 2.31% between eta'(0.9) of 0.8 and 0.9).");
  std::printf("  6 PM load: %.0f MW, no-MTD OPF cost: $%.2f\n\n",
              trace.total_mw(17), base_6pm.dispatch.cost);

  const std::vector<double> deltas = {0.5, 0.8, 0.9, 0.95};
  std::printf("  %-10s %-12s %10s %10s %10s %10s %12s\n", "gamma_th",
              "gamma", "eta(0.50)", "eta(0.80)", "eta(0.90)", "eta(0.95)",
              "cost incr.");
  for (double gamma_th :
       {0.02, 0.05, 0.10, 0.15, 0.20, 0.25, 0.28, 0.30}) {
    mtd::MtdSelectionOptions sel;
    sel.gamma_threshold = gamma_th;
    sel.pin_gamma = true;  // see selection.hpp: keeps the achieved angle
                           // tied to the threshold across the sweep
    sel.extra_starts = bench::extra_starts_for(scale);
    sel.search.max_evaluations = bench::search_evals_for(scale);
    // The penalized direct search is noisy on the pinned-angle manifold;
    // keep the cheapest of a few independent solves, as MultiStart would.
    const int repeats = scale == bench::Scale::kFast ? 1 : 3;
    mtd::MtdSelectionResult r = mtd::select_mtd_perturbation(
        sys, base_5pm.reactances, base_6pm.dispatch.cost, sel, rng);
    for (int rep = 1; rep < repeats; ++rep) {
      const mtd::MtdSelectionResult candidate = mtd::select_mtd_perturbation(
          sys, base_5pm.reactances, base_6pm.dispatch.cost, sel, rng);
      if (candidate.feasible &&
          (!r.feasible || candidate.opf_cost < r.opf_cost))
        r = candidate;
    }
    if (!r.dispatch.feasible) {
      std::printf("  %-10.2f    (infeasible)\n", gamma_th);
      continue;
    }
    const linalg::Vector z_ref = grid::noiseless_measurements(
        sys, r.reactances, r.dispatch.theta_reduced);
    mtd::EffectivenessOptions eff;
    eff.num_attacks = bench::attacks_for(scale);
    eff.sigma_mw = 0.05;
    eff.deltas = deltas;
    const auto e = mtd::evaluate_effectiveness(
        h_attacker, grid::sparse_measurement_matrix(sys, r.reactances), z_ref,
        eff, rng);
    std::printf("  %-10.2f %-12.3f %10.3f %10.3f %10.3f %10.3f %11.3f%%\n",
                gamma_th, r.spa, e.eta[0], e.eta[1], e.eta[2], e.eta[3],
                100.0 * std::max(0.0, r.cost_increase));
  }
  std::printf("\n");
}

void BM_Problem4Selection(benchmark::State& state) {
  grid::PowerSystem sys = grid::make_case14();
  stats::Rng rng(5);
  const opf::ReactanceOpfResult base = opf::solve_reactance_opf(sys, rng);
  mtd::MtdSelectionOptions sel;
  sel.gamma_threshold = 0.2;
  sel.extra_starts = 1;
  sel.search.max_evaluations = 300;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mtd::select_mtd_perturbation(
        sys, base.reactances, base.dispatch.cost, sel, rng));
  }
}
BENCHMARK(BM_Problem4Selection)->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace

int main(int argc, char** argv) {
  run_experiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
