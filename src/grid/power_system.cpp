#include "grid/power_system.hpp"

#include <cmath>
#include <queue>
#include <stdexcept>

namespace mtdgrid::grid {

PowerSystem::PowerSystem(std::string name, std::vector<Bus> buses,
                         std::vector<Branch> branches,
                         std::vector<Generator> generators, double base_mva)
    : name_(std::move(name)),
      buses_(std::move(buses)),
      branches_(std::move(branches)),
      generators_(std::move(generators)),
      base_mva_(base_mva) {
  validate();
}

linalg::Vector PowerSystem::reactances() const {
  linalg::Vector x(num_branches());
  for (std::size_t l = 0; l < num_branches(); ++l)
    x[l] = branches_[l].reactance;
  return x;
}

void PowerSystem::set_reactances(const linalg::Vector& x) {
  if (x.size() != num_branches())
    throw std::invalid_argument("set_reactances: wrong vector length");
  for (std::size_t l = 0; l < num_branches(); ++l) {
    if (x[l] <= 0.0)
      throw std::invalid_argument("set_reactances: non-positive reactance");
    branches_[l].reactance = x[l];
  }
}

linalg::Vector PowerSystem::loads_mw() const {
  linalg::Vector loads(num_buses());
  for (std::size_t i = 0; i < num_buses(); ++i) loads[i] = buses_[i].load_mw;
  return loads;
}

void PowerSystem::set_loads_mw(const linalg::Vector& loads) {
  if (loads.size() != num_buses())
    throw std::invalid_argument("set_loads_mw: wrong vector length");
  for (std::size_t i = 0; i < num_buses(); ++i) buses_[i].load_mw = loads[i];
}

void PowerSystem::scale_loads(double factor) {
  for (Bus& b : buses_) b.load_mw *= factor;
}

double PowerSystem::total_load_mw() const {
  double total = 0.0;
  for (const Bus& b : buses_) total += b.load_mw;
  return total;
}

std::vector<std::size_t> PowerSystem::dfacts_branches() const {
  std::vector<std::size_t> out;
  for (std::size_t l = 0; l < num_branches(); ++l)
    if (branches_[l].has_dfacts) out.push_back(l);
  return out;
}

linalg::Vector PowerSystem::reactance_lower_limits() const {
  linalg::Vector lo(num_branches());
  for (std::size_t l = 0; l < num_branches(); ++l) {
    const Branch& br = branches_[l];
    lo[l] = br.has_dfacts ? br.dfacts_min_factor * br.reactance
                          : br.reactance;
  }
  return lo;
}

linalg::Vector PowerSystem::reactance_upper_limits() const {
  linalg::Vector hi(num_branches());
  for (std::size_t l = 0; l < num_branches(); ++l) {
    const Branch& br = branches_[l];
    hi[l] = br.has_dfacts ? br.dfacts_max_factor * br.reactance
                          : br.reactance;
  }
  return hi;
}

bool PowerSystem::reactances_within_limits(const linalg::Vector& x,
                                           double tol) const {
  if (x.size() != num_branches()) return false;
  const linalg::Vector lo = reactance_lower_limits();
  const linalg::Vector hi = reactance_upper_limits();
  for (std::size_t l = 0; l < num_branches(); ++l) {
    if (x[l] < lo[l] - tol || x[l] > hi[l] + tol) return false;
  }
  return true;
}

linalg::Matrix PowerSystem::branch_incidence() const {
  linalg::Matrix at(num_branches(), num_buses());
  for (std::size_t l = 0; l < num_branches(); ++l) {
    at(l, branches_[l].from) = 1.0;
    at(l, branches_[l].to) = -1.0;
  }
  return at;
}

linalg::Matrix PowerSystem::reduced_branch_incidence() const {
  return branch_incidence().without_col(slack_bus());
}

linalg::Vector PowerSystem::branch_susceptances(
    const linalg::Vector& x) const {
  if (x.size() != num_branches())
    throw std::invalid_argument("reactance vector length must equal the "
                                "branch count");
  linalg::Vector d(num_branches());
  for (std::size_t l = 0; l < num_branches(); ++l) {
    if (!(x[l] > 0.0) || !std::isfinite(x[l]))
      throw std::invalid_argument("branch reactances must be positive and "
                                  "finite");
    d[l] = base_mva_ / x[l];
  }
  return d;
}

linalg::Matrix PowerSystem::susceptance_matrix(const linalg::Vector& x) const {
  const linalg::Vector d = branch_susceptances(x);
  linalg::Matrix b(num_buses(), num_buses());
  for (std::size_t l = 0; l < num_branches(); ++l) {
    const std::size_t i = branches_[l].from;
    const std::size_t j = branches_[l].to;
    b(i, i) += d[l];
    b(j, j) += d[l];
    b(i, j) -= d[l];
    b(j, i) -= d[l];
  }
  return b;
}

void PowerSystem::validate() const {
  if (buses_.empty()) throw std::invalid_argument("power system has no buses");
  if (branches_.empty())
    throw std::invalid_argument("power system has no branches");
  if (base_mva_ <= 0.0)
    throw std::invalid_argument("base MVA must be positive");

  for (const Branch& br : branches_) {
    if (br.from >= num_buses() || br.to >= num_buses())
      throw std::invalid_argument("branch endpoint out of range");
    if (br.from == br.to)
      throw std::invalid_argument("branch connects a bus to itself");
    if (br.reactance <= 0.0)
      throw std::invalid_argument("branch reactance must be positive");
    if (br.flow_limit_mw <= 0.0)
      throw std::invalid_argument("branch flow limit must be positive");
    if (br.has_dfacts &&
        (br.dfacts_min_factor <= 0.0 ||
         br.dfacts_min_factor > br.dfacts_max_factor))
      throw std::invalid_argument("invalid D-FACTS reactance range");
  }
  for (const Generator& g : generators_) {
    if (g.bus >= num_buses())
      throw std::invalid_argument("generator bus out of range");
    if (g.min_mw < 0.0 || g.min_mw > g.max_mw)
      throw std::invalid_argument("invalid generator limits");
  }

  // Connectivity check (BFS over branches): state estimation and power flow
  // both require a connected network.
  std::vector<bool> seen(num_buses(), false);
  std::queue<std::size_t> frontier;
  frontier.push(0);
  seen[0] = true;
  while (!frontier.empty()) {
    const std::size_t u = frontier.front();
    frontier.pop();
    for (const Branch& br : branches_) {
      const std::size_t v =
          (br.from == u) ? br.to : (br.to == u ? br.from : u);
      if (v != u && !seen[v]) {
        seen[v] = true;
        frontier.push(v);
      }
    }
  }
  for (bool s : seen)
    if (!s) throw std::invalid_argument("power network is not connected");
}

}  // namespace mtdgrid::grid
