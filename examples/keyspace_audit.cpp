// Keyspace audit: why random MTD perturbations are not enough.
//
// Prior work implements MTD by drawing random reactance perturbations from
// a "keyspace" (e.g. within +/-2% of nominal). This tool audits such a
// keyspace on any of the bundled benchmark systems: it draws N members,
// evaluates each one's effectiveness against attacks crafted from the
// current measurement matrix, and reports the distribution — then contrasts
// it with a single SPA-designed perturbation at the same device limits.
//
// Usage: keyspace_audit [--threads N] [case-name-or-.m-path] [keyspace_size]

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "cli.hpp"
#include "grid/measurement.hpp"
#include "io/case_registry.hpp"
#include "grid/power_flow.hpp"
#include "mtd/effectiveness.hpp"
#include "mtd/random_mtd.hpp"
#include "mtd/selection.hpp"
#include "mtd/spa.hpp"
#include "opf/reactance_opf.hpp"
#include "stats/distributions.hpp"
#include "stats/rng.hpp"

namespace {

std::optional<mtdgrid::grid::PowerSystem> system_by_name(
    const std::string& name) {
  const auto& registry = mtdgrid::io::CaseRegistry::global();
  if (!registry.knows(name)) return std::nullopt;
  try {
    return registry.load(name);
  } catch (const mtdgrid::io::CaseIoError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return std::nullopt;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mtdgrid;

  // "--threads N" may appear anywhere in argv; the positional arguments
  // keep their original contract (case first, then keyspace_size).
  std::string case_name = "ieee14";
  int keyspace_size = 200;
  std::size_t num_positionals = 0;
  examples::Cli cli(argv[0], {"[--threads N] [case] [keyspace_size]"});
  cli.note("  keyspace_size must be a positive integer (default 200)");
  cli.note("  --threads N sizes the worker pool of the parallel "
           "effectiveness sweep");
  cli.positional([&](const std::string& arg) {
    if (num_positionals == 1) {
      unsigned long long parsed = 0;
      if (!examples::parse_u64(arg.c_str(), 1, 1000000, parsed))
        return false;
      keyspace_size = static_cast<int>(parsed);
    } else if (num_positionals == 0) {
      case_name = arg;
    } else {
      return false;  // at most two positionals
    }
    ++num_positionals;
    return true;
  });
  cli.flag_threads();
  if (!cli.parse(argc, argv)) return 2;

  std::optional<grid::PowerSystem> maybe_sys = system_by_name(case_name);
  if (!maybe_sys) {
    std::fprintf(stderr, "unknown case '%s'\n", case_name.c_str());
    return cli.usage();
  }
  grid::PowerSystem sys = std::move(*maybe_sys);

  stats::Rng rng(99);
  const opf::DispatchResult base = opf::solve_dc_opf(sys);
  if (!base.feasible) {
    std::fprintf(stderr, "base OPF infeasible\n");
    return 1;
  }
  const linalg::SparseMatrix h0 = grid::sparse_measurement_matrix(sys);
  const linalg::Vector z0 = grid::noiseless_measurements(
      sys, sys.reactances(), base.theta_reduced);

  mtd::EffectivenessOptions eff;
  eff.num_attacks = 300;
  eff.sigma_mw = 0.005;  // high-precision BDD; see EXPERIMENTS.md
  eff.deltas = {0.5};

  std::printf("Auditing a +/-2%% random keyspace of %d members on %s...\n\n",
              keyspace_size, sys.name().c_str());
  // Batched evaluation: one shared attack sample scores every keyspace
  // member (paired comparison), and the SPA evaluator, keyed by the
  // nominal reactances, scores each member from its k x k tables without
  // factoring H0 again. Members are materialized in bounded
  // chunks; re-seeding the attack rng per chunk keeps the sample identical
  // across chunks (the analytic method draws rng only for the attacks).
  const mtd::SpaEvaluator spa_eval(sys, sys.reactances());
  constexpr int kChunk = 256;
  constexpr std::uint64_t kAttackSeed = 424242;
  std::vector<double> etas;
  std::vector<double> gammas;
  etas.reserve(keyspace_size);
  gammas.reserve(keyspace_size);
  for (int start = 0; start < keyspace_size; start += kChunk) {
    const int count = std::min(kChunk, keyspace_size - start);
    std::vector<linalg::SparseMatrix> chunk;
    chunk.reserve(count);
    for (int k = 0; k < count; ++k) {
      const linalg::Vector x = mtd::random_reactance_perturbation(
          sys, sys.reactances(), 0.02, rng);
      gammas.push_back(spa_eval.gamma(x));
      chunk.push_back(grid::sparse_measurement_matrix(sys, x));
    }
    stats::Rng attack_rng(kAttackSeed);
    const auto results =
        mtd::evaluate_candidates(h0, chunk, z0, eff, attack_rng);
    for (const auto& r : results) etas.push_back(r.eta[0]);
  }

  const stats::Summary eta_summary = stats::summarize(etas.data(),
                                                      etas.size());
  const stats::Summary gamma_summary =
      stats::summarize(gammas.data(), gammas.size());
  const auto fraction_above = [&](double level) {
    return static_cast<double>(
               std::count_if(etas.begin(), etas.end(),
                             [&](double e) { return e >= level; })) /
           etas.size();
  };

  std::printf("Keyspace eta'(0.5):  mean %.3f  stddev %.3f  min %.3f  "
              "max %.3f\n",
              eta_summary.mean, eta_summary.stddev, eta_summary.min,
              eta_summary.max);
  std::printf("Keyspace gamma:      mean %.4f rad (max %.4f)\n",
              gamma_summary.mean, gamma_summary.max);
  std::printf("Members with eta'(0.5) >= 0.9:  %.1f%%\n",
              100.0 * fraction_above(0.9));
  std::printf("Members with eta'(0.5) >= 0.5:  %.1f%%\n\n",
              100.0 * fraction_above(0.5));

  // The designed alternative at full device range.
  mtd::MtdSelectionOptions sel;
  sel.gamma_threshold = 0.25;
  sel.extra_starts = 4;
  const mtd::MtdSelectionResult designed =
      mtd::select_mtd_perturbation(sys, sys.reactances(), base.cost, sel,
                                   rng);
  const linalg::Vector z_mtd = grid::noiseless_measurements(
      sys, designed.reactances, designed.dispatch.theta_reduced);
  const auto designed_eff = mtd::evaluate_effectiveness(
      h0, grid::sparse_measurement_matrix(sys, designed.reactances), z_mtd,
      eff, rng);

  std::printf("SPA-designed perturbation (gamma_th = 0.25):\n");
  std::printf("  gamma = %.3f rad, eta'(0.5) = %.3f, cost increase = "
              "%.3f%%\n",
              designed.spa, designed_eff.eta[0],
              100.0 * std::max(0.0, designed.cost_increase));
  std::printf("\nVerdict: the random keyspace is a lottery (stddev %.3f); "
              "the designed\nperturbation guarantees its effectiveness "
              "level by construction.\n",
              eta_summary.stddev);
  return 0;
}
