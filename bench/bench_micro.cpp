// Microbenchmarks of the core kernels every experiment is built from:
// measurement-matrix assembly, DC power flow, the dispatch LP, the WLS
// estimator, SPA computation, and the full attack-detection path. Useful
// for sizing the Monte-Carlo budgets and search budgets in the harness.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "attack/fdi_attack.hpp"
#include "estimation/bdd.hpp"
#include "estimation/detection.hpp"
#include "estimation/state_estimator.hpp"
#include "grid/cases.hpp"
#include "grid/compose.hpp"
#include "grid/measurement.hpp"
#include "grid/power_flow.hpp"
#include "io/case_registry.hpp"
#include "linalg/subspace.hpp"
#include "linalg/svd.hpp"
#include "mtd/spa.hpp"
#include "mtd/zone_selection.hpp"
#include "opf/dc_opf.hpp"
#include "stats/rng.hpp"

namespace {

using namespace mtdgrid;

grid::PowerSystem system_for(int id) {
  switch (id) {
    case 0: return grid::make_case4();
    case 1: return grid::make_case_wscc9();
    case 2: return grid::make_case14();
    case 3: return grid::make_case_ieee30();
    case 4: return grid::make_case57();
    default: return grid::make_case118();
  }
}

const char* system_name(int id) {
  switch (id) {
    case 0: return "case4";
    case 1: return "wscc9";
    case 2: return "ieee14";
    case 3: return "ieee30";
    case 4: return "case57";
    default: return "case118";
  }
}

void BM_MeasurementMatrix(benchmark::State& state) {
  const grid::PowerSystem sys = system_for(static_cast<int>(state.range(0)));
  const linalg::Vector x = sys.reactances();
  for (auto _ : state) {
    benchmark::DoNotOptimize(grid::measurement_matrix(sys, x));
  }
  state.SetLabel(system_name(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_MeasurementMatrix)->DenseRange(0, 5);

void BM_DcPowerFlow(benchmark::State& state) {
  const grid::PowerSystem sys = system_for(static_cast<int>(state.range(0)));
  linalg::Vector injections(sys.num_buses());
  for (std::size_t i = 0; i < sys.num_buses(); ++i)
    injections[i] = -sys.bus(i).load_mw;
  injections[0] += sys.total_load_mw();
  const linalg::Vector x = sys.reactances();
  for (auto _ : state) {
    benchmark::DoNotOptimize(grid::solve_dc_power_flow(sys, x, injections));
  }
  state.SetLabel(system_name(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_DcPowerFlow)->DenseRange(0, 5);

void BM_DispatchLp(benchmark::State& state) {
  const grid::PowerSystem sys = system_for(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(opf::solve_dc_opf(sys));
  }
  state.SetLabel(system_name(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_DispatchLp)->DenseRange(0, 5)->Unit(benchmark::kMicrosecond);

void BM_EstimatorConstruction(benchmark::State& state) {
  const grid::PowerSystem sys = system_for(static_cast<int>(state.range(0)));
  const linalg::Matrix h = grid::measurement_matrix(sys);
  for (auto _ : state) {
    estimation::StateEstimator est(h, 1.0);
    benchmark::DoNotOptimize(est);
  }
  state.SetLabel(system_name(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_EstimatorConstruction)->DenseRange(0, 5);

void BM_WlsEstimate(benchmark::State& state) {
  const grid::PowerSystem sys = grid::make_case14();
  const linalg::Matrix h = grid::measurement_matrix(sys);
  const estimation::StateEstimator est(h, 1.0);
  stats::Rng rng(1);
  linalg::Vector z(h.rows());
  for (std::size_t i = 0; i < z.size(); ++i) z[i] = rng.gaussian(0.0, 10.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.estimate(z));
  }
}
BENCHMARK(BM_WlsEstimate);

// The full state-estimation path — dense H compressed to CSR, weighted
// Gram assembled and factored, one estimate — the work the daily engine
// and every `mtd::evaluate_effectiveness` call redo at each re-key.
// Arguments name the registry grid: case118, case300, and the composed
// case118x3 tile (the same artifact shape CI's composed-case gate
// audits).
void BM_StateEstimation(benchmark::State& state, const std::string& name) {
  const grid::PowerSystem sys = io::load_case(name);
  const linalg::Matrix h = grid::measurement_matrix(sys);
  stats::Rng rng(5);
  linalg::Vector z(h.rows());
  for (std::size_t i = 0; i < z.size(); ++i) z[i] = rng.gaussian(0.0, 10.0);
  for (auto _ : state) {
    const estimation::StateEstimator est(h, 1.0);
    benchmark::DoNotOptimize(est.estimate(z));
  }
}
BENCHMARK_CAPTURE(BM_StateEstimation, case118, std::string("case118"))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_StateEstimation, case300, std::string("case300"))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_StateEstimation, case118x3, std::string("case118x3"))
    ->Unit(benchmark::kMillisecond);

void BM_ResidualNorm(benchmark::State& state) {
  const grid::PowerSystem sys = grid::make_case14();
  const linalg::Matrix h = grid::measurement_matrix(sys);
  const estimation::StateEstimator est(h, 1.0);
  stats::Rng rng(2);
  linalg::Vector z(h.rows());
  for (std::size_t i = 0; i < z.size(); ++i) z[i] = rng.gaussian(0.0, 10.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.normalized_residual_norm(z));
  }
}
BENCHMARK(BM_ResidualNorm);

void BM_Spa(benchmark::State& state) {
  const grid::PowerSystem sys = system_for(static_cast<int>(state.range(0)));
  const linalg::Matrix h0 = grid::measurement_matrix(sys);
  linalg::Vector x = sys.reactances();
  for (std::size_t l : sys.dfacts_branches()) x[l] *= 1.3;
  const linalg::Matrix h1 = grid::measurement_matrix(sys, x);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mtd::spa(h0, h1));
  }
  state.SetLabel(system_name(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_Spa)->DenseRange(0, 4);

void BM_AnalyticDetectionProbability(benchmark::State& state) {
  const grid::PowerSystem sys = grid::make_case14();
  const linalg::Matrix h0 = grid::measurement_matrix(sys);
  linalg::Vector x = sys.reactances();
  for (std::size_t l : sys.dfacts_branches()) x[l] *= 1.3;
  const estimation::StateEstimator est(grid::measurement_matrix(sys, x),
                                       0.1);
  const estimation::BadDataDetector bdd(est, 5e-4);
  stats::Rng rng(3);
  const attack::FdiAttack atk = attack::random_stealthy_attack(
      h0, linalg::Vector(h0.rows(), 25.0), 0.08, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        estimation::analytic_detection_probability(est, bdd, atk.a));
  }
}
BENCHMARK(BM_AnalyticDetectionProbability);

// --- the SPA/selection hot path: SVD baseline vs QR fast path -----------
//
// The candidate sweep below is the inner loop of the MTD selection search
// (paper problem (4)): every candidate needs the dispatch and the gamma
// against the attacker matrix. The *Svd variants are the pre-optimization
// reference (full H rebuild + Bjorck-Golub SVD spa + one simplex solve per
// candidate); the *Fast variants are the shipped path (SpaEvaluator rank-k
// updates + DispatchEvaluator merit-order certificate). CI guards the Fast
// timings against bench/baseline.json and asserts Fast >= 5x Svd.

std::vector<linalg::Vector> selection_candidates(
    const grid::PowerSystem& sys, int count) {
  // Deterministic candidate sweep across the D-FACTS box.
  stats::Rng rng(1234);
  const linalg::Vector lo = sys.reactance_lower_limits();
  const linalg::Vector hi = sys.reactance_upper_limits();
  std::vector<linalg::Vector> candidates;
  candidates.reserve(count);
  for (int c = 0; c < count; ++c) {
    linalg::Vector x = sys.reactances();
    for (std::size_t l : sys.dfacts_branches())
      if (rng.uniform() < 0.8) x[l] = rng.uniform(lo[l], hi[l]);
    candidates.push_back(std::move(x));
  }
  return candidates;
}

constexpr int kSelectionSweep = 16;

void BM_Case57SelectionLoopSvd(benchmark::State& state) {
  const grid::PowerSystem sys = grid::make_case57();
  const linalg::Matrix h0 = grid::measurement_matrix(sys);
  const auto candidates = selection_candidates(sys, kSelectionSweep);
  for (auto _ : state) {
    double acc = 0.0;
    for (const linalg::Vector& x : candidates) {
      const opf::DispatchResult d = opf::solve_dc_opf(sys, x);
      acc += d.feasible ? d.cost : 0.0;
      acc += mtd::spa(h0, grid::measurement_matrix(sys, x));
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * kSelectionSweep);
}
BENCHMARK(BM_Case57SelectionLoopSvd)->Unit(benchmark::kMillisecond);

void BM_Case57SelectionLoopFast(benchmark::State& state) {
  const grid::PowerSystem sys = grid::make_case57();
  const linalg::Matrix h0 = grid::measurement_matrix(sys);
  const auto candidates = selection_candidates(sys, kSelectionSweep);
  const mtd::SpaEvaluator spa_eval(sys, h0);
  const opf::DispatchEvaluator dispatch_eval(sys);
  for (auto _ : state) {
    double acc = 0.0;
    for (const linalg::Vector& x : candidates) {
      const opf::DispatchResult d = dispatch_eval.evaluate(x);
      acc += d.feasible ? d.cost : 0.0;
      acc += spa_eval.gamma(x);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * kSelectionSweep);
}
BENCHMARK(BM_Case57SelectionLoopFast)->Unit(benchmark::kMillisecond);

void BM_Case118SelectionLoopFast(benchmark::State& state) {
  // The amortized selection sweep at IEEE 118-bus scale (490 x 117
  // measurement model, loaded through the io subsystem). Guarded in CI
  // against bench/baseline.json like the case57 loops.
  const grid::PowerSystem sys = grid::make_case118();
  const linalg::Matrix h0 = grid::measurement_matrix(sys);
  const auto candidates = selection_candidates(sys, kSelectionSweep);
  const mtd::SpaEvaluator spa_eval(sys, h0);
  const opf::DispatchEvaluator dispatch_eval(sys);
  for (auto _ : state) {
    double acc = 0.0;
    for (const linalg::Vector& x : candidates) {
      const opf::DispatchResult d = dispatch_eval.evaluate(x);
      acc += d.feasible ? d.cost : 0.0;
      acc += spa_eval.gamma(x);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * kSelectionSweep);
}
BENCHMARK(BM_Case118SelectionLoopFast)->Unit(benchmark::kMillisecond);

void BM_ZoneSelectionCase118x9(benchmark::State& state) {
  // End-to-end zone-decomposed D-FACTS selection on the 1062-bus
  // composed mega-grid: 9 per-zone selections (118-bus-sized dense
  // solves) plus the full-model sparse SPA boundary recheck — the
  // workload that is intractable for the monolithic dense path. Same
  // tiny budget as the slow-tier test; one iteration is ~20 s, so the
  // benchmark pins Iterations(1) and CI guards the normalized time.
  grid::ComposeOptions copt;
  copt.copies = 9;
  const grid::ComposeResult composed =
      grid::compose_cases(grid::make_case118(), copt);
  const grid::ZonePartition partition = composed.zones();
  mtd::ZoneSelectionOptions opt;
  opt.selection.gamma_threshold = 0.01;
  opt.selection.extra_starts = 0;
  opt.selection.search.max_evaluations = 20;
  opt.max_rounds = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mtd::select_mtd_zones(composed.system, partition, opt, 118900));
  }
  state.SetLabel("case118x9/9-zones");
}
BENCHMARK(BM_ZoneSelectionCase118x9)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);

void BM_SpaIncremental(benchmark::State& state) {
  const grid::PowerSystem sys = system_for(static_cast<int>(state.range(0)));
  const linalg::Matrix h0 = grid::measurement_matrix(sys);
  const mtd::SpaEvaluator eval(sys, h0);
  linalg::Vector x = sys.reactances();
  for (std::size_t l : sys.dfacts_branches()) x[l] *= 1.3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.gamma(x));
  }
  state.SetLabel(system_name(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_SpaIncremental)->DenseRange(0, 5);

void BM_LargestPrincipalAngleQr(benchmark::State& state) {
  const grid::PowerSystem sys = system_for(static_cast<int>(state.range(0)));
  const linalg::Matrix h0 = grid::measurement_matrix(sys);
  linalg::Vector x = sys.reactances();
  for (std::size_t l : sys.dfacts_branches()) x[l] *= 1.3;
  const linalg::Matrix h1 = grid::measurement_matrix(sys, x);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::largest_principal_angle_qr(h0, h1));
  }
  state.SetLabel(system_name(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_LargestPrincipalAngleQr)->DenseRange(0, 5);

void BM_IncrementalHUpdate(benchmark::State& state) {
  const grid::PowerSystem sys = grid::make_case57();
  const linalg::Vector x0 = sys.reactances();
  linalg::Vector x1 = x0;
  for (std::size_t l : sys.dfacts_branches()) x1[l] *= 1.3;
  const auto changed = grid::changed_branches(x0, x1);
  linalg::Matrix h = grid::measurement_matrix(sys, x0);
  bool forward = true;
  for (auto _ : state) {
    if (forward) {
      grid::update_measurement_matrix(sys, h, x0, x1, changed);
    } else {
      grid::update_measurement_matrix(sys, h, x1, x0, changed);
    }
    forward = !forward;
    benchmark::DoNotOptimize(h);
  }
}
BENCHMARK(BM_IncrementalHUpdate);

void BM_DispatchEvaluatorCase57(benchmark::State& state) {
  const grid::PowerSystem sys = grid::make_case57();
  const opf::DispatchEvaluator evaluator(sys);
  linalg::Vector x = sys.reactances();
  for (std::size_t l : sys.dfacts_branches()) x[l] *= 1.3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.evaluate(x));
  }
}
BENCHMARK(BM_DispatchEvaluatorCase57)->Unit(benchmark::kMicrosecond);

void BM_JacobiSvd(benchmark::State& state) {
  stats::Rng rng(4);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  linalg::Matrix a(2 * n, n);
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) a(i, j) = rng.gaussian();
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::SvdDecomposition(a));
  }
}
BENCHMARK(BM_JacobiSvd)->Arg(8)->Arg(16)->Arg(32);

}  // namespace

BENCHMARK_MAIN();
