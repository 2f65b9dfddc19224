#include "obs/metrics.hpp"

namespace mtdgrid::obs {

namespace {

constexpr WorkInfo kWorkInfo[kWorkCount] = {
    {"simplex_solves", "Linear programs solved by opf::solve_linear_program",
     true},
    {"simplex_phase1_iterations", "Simplex phase-1 (feasibility) pivots",
     true},
    {"simplex_phase2_iterations", "Simplex phase-2 (optimality) pivots", true},
    {"simplex_bland_pivots", "Simplex pivots taken under the Bland fallback",
     true},
    {"cg_iterations",
     "Retired conjugate-gradient iteration count; always 0", true},
    {"cholesky_factorizations", "Sparse Cholesky factorization attempts",
     true},
    {"cholesky_factor_nnz",
     "Nonzeros of L summed over successful sparse Cholesky factorizations",
     true},
    {"spa_fastpath_evals", "SPA gamma evaluations on the rank-k fast path",
     true},
    {"spa_full_evals", "SPA gamma evaluations on the full-matrix fallback",
     true},
    {"mc_trials", "Monte-Carlo detection trials run", true},
    {"engine_hours", "DailyEngine hours advanced", true},
    {"zones_selected",
     "Per-zone MTD selections completed by mtd::select_mtd_zones", true},
    {"boundary_rechecks",
     "Full-model boundary effectiveness rechecks in zone-decomposed "
     "selection",
     true},
    {"attacker_probes",
     "Probe-oracle samples drawn by attack::probe_and_estimate_key", true},
    {"stale_replays",
     "Stale-knowledge attacks replayed across a re-keying boundary", true},
    {"campaign_cells", "Campaign frontier cells completed", true},
    {"pool_regions", "Parallel regions entered (structural, not "
                     "thread-count invariant)",
     false},
    {"pool_tasks", "Tasks submitted to parallel regions (structural, not "
                   "thread-count invariant)",
     false},
    {"power_flow_solves",
     "DC power flows solved by grid::solve_dc_power_flow (one sparse "
     "Cholesky factorization each)",
     true},
};

}  // namespace

const WorkInfo& work_info(Work w) {
  return kWorkInfo[static_cast<std::size_t>(w)];
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace mtdgrid::obs
