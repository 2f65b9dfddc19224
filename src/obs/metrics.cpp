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
};

}  // namespace

const WorkInfo& work_info(Work w) {
  return kWorkInfo[static_cast<std::size_t>(w)];
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Counter& c : counters_) {
    if (c.name() == name) return c;
  }
  return counters_.emplace_back(name, help);
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Gauge& g : gauges_) {
    if (g.name() == name) return g;
  }
  return gauges_.emplace_back(name, help);
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::string& help,
                                      std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Histogram& h : histograms_) {
    if (h.name() == name) return h;
  }
  return histograms_.emplace_back(name, help, std::move(bounds));
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  out.work = work_snapshot();
  std::lock_guard<std::mutex> lock(mutex_);
  out.counters.reserve(counters_.size());
  for (const Counter& c : counters_) {
    out.counters.push_back({c.name(), c.help(), c.value()});
  }
  out.gauges.reserve(gauges_.size());
  for (const Gauge& g : gauges_) {
    out.gauges.push_back({g.name(), g.help(), g.value()});
  }
  out.histograms.reserve(histograms_.size());
  for (const Histogram& h : histograms_) {
    out.histograms.push_back({h.name(), h.help(), h.bounds(),
                              h.bucket_counts(), h.count(), h.sum()});
  }
  return out;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace mtdgrid::obs
