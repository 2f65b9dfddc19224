#include "attack/adaptive.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "grid/measurement.hpp"
#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "stats/rng.hpp"

namespace mtdgrid::attack {

linalg::Vector probe_measurement(const linalg::Vector& z_ref, double sigma,
                                 std::uint64_t probe_root, std::size_t hour,
                                 std::uint64_t id) {
  stats::Rng stream =
      stats::make_stream(stats::stream_seed(probe_root, hour), id);
  linalg::Vector z = z_ref;
  for (std::size_t i = 0; i < z.size(); ++i) z[i] += stream.gaussian() * sigma;
  return z;
}

KeyEstimate estimate_key(const grid::PowerSystem& sys,
                         const std::vector<linalg::Vector>& probes,
                         const KeyEstimationOptions& options) {
  if (probes.empty())
    throw std::invalid_argument("estimate_key: need at least one probe");
  const std::size_t num_branches = sys.num_branches();
  const std::size_t num_buses = sys.num_buses();
  const std::size_t m = grid::measurement_count(sys);
  for (const linalg::Vector& z : probes)
    if (z.size() != m)
      throw std::invalid_argument(
          "estimate_key: probe has wrong measurement dimension");

  // 1. Mean flows. Row l is f_l, row L+l is -f_l, so averaging the pair
  // (and all probes) quarters the noise variance of the flow estimate.
  linalg::Vector flows_mw(num_branches);
  for (std::size_t l = 0; l < num_branches; ++l) {
    double acc = 0.0;
    for (const linalg::Vector& z : probes)
      acc += 0.5 * (z[l] - z[num_branches + l]);
    flows_mw[l] = acc / static_cast<double>(probes.size());
  }

  // 2. Bus angles from the slack outward. Known-reactance (non-D-FACTS)
  // branches pin exact angle differences; D-FACTS branches extend
  // reachability at their *nominal* reactance only where the known
  // subgraph is disconnected, and are then excluded from identification
  // (their angle difference would just reproduce the nominal assumption).
  // Fixed-point sweeps in branch-index order keep the walk deterministic.
  std::vector<double> theta(num_buses, 0.0);
  std::vector<bool> known(num_buses, false);
  std::vector<bool> used_for_propagation(num_branches, false);
  known[sys.slack_bus()] = true;
  const double base_mva = sys.base_mva();
  const auto propagate = [&](bool allow_dfacts) {
    bool changed = true;
    bool any = false;
    while (changed) {
      changed = false;
      for (std::size_t l = 0; l < num_branches; ++l) {
        const grid::Branch& br = sys.branch(l);
        if (br.has_dfacts && !allow_dfacts) continue;
        if (known[br.from] == known[br.to]) continue;
        const double dtheta = flows_mw[l] * br.reactance / base_mva;
        if (known[br.from]) {
          theta[br.to] = theta[br.from] - dtheta;
          known[br.to] = true;
        } else {
          theta[br.from] = theta[br.to] + dtheta;
          known[br.from] = true;
        }
        if (br.has_dfacts) used_for_propagation[l] = true;
        changed = true;
        any = true;
      }
    }
    return any;
  };
  propagate(false);
  // Alternate: one nominal-reactance hop only where needed, then resume
  // exact propagation from the newly reached component.
  while (std::find(known.begin(), known.end(), false) != known.end()) {
    if (!propagate(true)) break;  // disconnected even with every branch
    propagate(false);
  }

  // 3. Identify the D-FACTS reactances, clamped to the public device
  // limits the key must lie in.
  const linalg::Vector lo = sys.reactance_lower_limits();
  const linalg::Vector hi = sys.reactance_upper_limits();
  KeyEstimate est;
  est.reactances = sys.reactances();
  est.probes_used = probes.size();
  for (const std::size_t l : sys.dfacts_branches()) {
    const grid::Branch& br = sys.branch(l);
    if (used_for_propagation[l]) continue;  // nominal by construction
    if (!known[br.from] || !known[br.to]) continue;
    if (std::abs(flows_mw[l]) < options.min_flow_mw) continue;
    const double x = base_mva * (theta[br.from] - theta[br.to]) / flows_mw[l];
    if (!(x > 0.0)) continue;  // noise flipped the sign: unidentifiable
    est.reactances[l] = std::clamp(x, lo[l], hi[l]);
    ++est.identified_branches;
  }
  return est;
}

KeyEstimate probe_and_estimate_key(const grid::PowerSystem& sys,
                                   const linalg::Vector& z_ref, double sigma,
                                   std::uint64_t probe_root, std::size_t hour,
                                   int probe_budget,
                                   const KeyEstimationOptions& options) {
  if (probe_budget < 1)
    throw std::invalid_argument(
        "probe_and_estimate_key: probe_budget must be >= 1");
  std::vector<linalg::Vector> probes;
  probes.reserve(static_cast<std::size_t>(probe_budget));
  for (int id = 0; id < probe_budget; ++id)
    probes.push_back(probe_measurement(z_ref, sigma, probe_root, hour,
                                       static_cast<std::uint64_t>(id)));
  obs::add(obs::Work::kAttackerProbes,
           static_cast<std::uint64_t>(probe_budget));
  return estimate_key(sys, probes, options);
}

}  // namespace mtdgrid::attack
