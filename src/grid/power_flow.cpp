#include "grid/power_flow.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "linalg/sparse_cholesky.hpp"
#include "linalg/sparse_matrix.hpp"
#include "obs/scope.hpp"

namespace mtdgrid::grid {

DcPowerFlowResult solve_dc_power_flow(const PowerSystem& sys,
                                      const linalg::Vector& x,
                                      const linalg::Vector& injections_mw) {
  const std::size_t n = sys.num_buses();
  if (injections_mw.size() != n)
    throw std::invalid_argument("power flow: wrong injection vector length");
  constexpr double kBalanceTol = 1e-6;
  const double imbalance = injections_mw.sum();
  if (std::abs(imbalance) >
      kBalanceTol * std::max(1.0, injections_mw.norm1()))
    throw std::invalid_argument("power flow: injections do not balance");

  // Reduced system: drop the slack bus equation and angle. Reduced
  // index = bus-1 because the slack is pinned at bus 0.
  linalg::Vector p_reduced(n - 1);
  for (std::size_t i = 1; i < n; ++i) p_reduced[i - 1] = injections_mw[i];

  // Reduced susceptance matrix in CSR: per-branch contributions in branch
  // order (the TripletBuilder insertion-order contract).
  const linalg::Vector d = sys.branch_susceptances(x);
  linalg::TripletBuilder builder(n - 1, n - 1);
  builder.reserve(4 * sys.num_branches());
  for (std::size_t l = 0; l < sys.num_branches(); ++l) {
    const std::size_t i = sys.branch(l).from;
    const std::size_t j = sys.branch(l).to;
    if (i != 0) builder.add(i - 1, i - 1, d[l]);
    if (j != 0) builder.add(j - 1, j - 1, d[l]);
    if (i != 0 && j != 0) {
      builder.add(i - 1, j - 1, -d[l]);
      builder.add(j - 1, i - 1, -d[l]);
    }
  }
  obs::add(obs::Work::kPowerFlowSolves);
  const linalg::SparseCholesky chol(builder.build());
  if (chol.failed())
    throw std::runtime_error("power flow: singular susceptance matrix");

  DcPowerFlowResult result;
  result.theta_reduced = chol.solve(p_reduced);
  result.theta_full = linalg::Vector(n);
  for (std::size_t i = 1; i < n; ++i)
    result.theta_full[i] = result.theta_reduced[i - 1];
  result.flows_mw = branch_flows(sys, x, result.theta_reduced);
  return result;
}

linalg::Vector branch_flows(const PowerSystem& sys, const linalg::Vector& x,
                            const linalg::Vector& theta_reduced) {
  assert(theta_reduced.size() == sys.num_buses() - 1);
  const linalg::Vector d = sys.branch_susceptances(x);

  // Recover the full angle vector (slack angle = 0).
  linalg::Vector theta(sys.num_buses());
  std::size_t k = 0;
  for (std::size_t i = 0; i < sys.num_buses(); ++i) {
    if (i == sys.slack_bus()) continue;
    theta[i] = theta_reduced[k++];
  }

  linalg::Vector flows(sys.num_branches());
  for (std::size_t l = 0; l < sys.num_branches(); ++l) {
    const Branch& br = sys.branch(l);
    flows[l] = d[l] * (theta[br.from] - theta[br.to]);
  }
  return flows;
}

linalg::Vector nodal_injections(const PowerSystem& sys,
                                const linalg::Vector& generation_mw) {
  assert(generation_mw.size() == sys.num_generators());
  linalg::Vector injections(sys.num_buses());
  for (std::size_t i = 0; i < sys.num_buses(); ++i)
    injections[i] = -sys.bus(i).load_mw;
  for (std::size_t g = 0; g < sys.num_generators(); ++g)
    injections[sys.generator(g).bus] += generation_mw[g];
  return injections;
}

}  // namespace mtdgrid::grid
