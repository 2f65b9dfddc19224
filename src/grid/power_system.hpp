#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace mtdgrid::grid {

/// A bus (node) of the transmission network.
struct Bus {
  double load_mw = 0.0;  ///< real-power demand at this bus, in MW
};

/// A transmission line between two buses, following the DC power-flow
/// model of the paper: the flow on line l is F_l = (theta_i - theta_j) / x_l
/// (in per-unit; converted to MW through the system MVA base).
struct Branch {
  std::size_t from = 0;        ///< sending bus index (0-based)
  std::size_t to = 0;          ///< receiving bus index (0-based)
  double reactance = 0.0;      ///< nominal series reactance, per-unit
  double flow_limit_mw = 0.0;  ///< thermal limit F^max, in MW
  bool has_dfacts = false;     ///< true when a D-FACTS device is installed
  double dfacts_min_factor = 1.0;  ///< x_min = factor * nominal reactance
  double dfacts_max_factor = 1.0;  ///< x_max = factor * nominal reactance
};

/// A dispatchable generator with the paper's linear cost C_i(G) = c_i * G.
struct Generator {
  std::size_t bus = 0;        ///< bus index the generator is attached to
  double min_mw = 0.0;        ///< dispatch lower limit G^min
  double max_mw = 0.0;        ///< dispatch upper limit G^max
  double cost_per_mwh = 0.0;  ///< marginal cost c_i, $/MWh
};

/// The static description of a power network: buses, branches, generators,
/// and which branches carry D-FACTS devices. This is the substrate every
/// other module (OPF, state estimation, attack construction, MTD) builds on.
///
/// Conventions:
///  * bus/branch/generator indices are 0-based;
///  * bus 0 is the angle-reference (slack) bus;
///  * reactances are per-unit on `base_mva()`; loads/flows/dispatch in MW.
class PowerSystem {
 public:
  PowerSystem(std::string name, std::vector<Bus> buses,
              std::vector<Branch> branches, std::vector<Generator> generators,
              double base_mva = 100.0);

  const std::string& name() const { return name_; }
  double base_mva() const { return base_mva_; }

  std::size_t num_buses() const { return buses_.size(); }
  std::size_t num_branches() const { return branches_.size(); }
  std::size_t num_generators() const { return generators_.size(); }

  /// Index of the angle-reference (slack) bus; fixed at 0.
  std::size_t slack_bus() const { return 0; }

  const std::vector<Bus>& buses() const { return buses_; }
  const std::vector<Branch>& branches() const { return branches_; }
  const std::vector<Generator>& generators() const { return generators_; }

  Bus& bus(std::size_t i) { return buses_.at(i); }
  const Bus& bus(std::size_t i) const { return buses_.at(i); }
  Branch& branch(std::size_t l) { return branches_.at(l); }
  const Branch& branch(std::size_t l) const { return branches_.at(l); }
  const Generator& generator(std::size_t g) const { return generators_.at(g); }

  /// Vector of nominal branch reactances x (length L).
  linalg::Vector reactances() const;

  /// Overwrites the nominal branch reactances (length must equal L).
  void set_reactances(const linalg::Vector& x);

  /// Vector of bus loads in MW (length N).
  linalg::Vector loads_mw() const;

  /// Overwrites the bus loads (length must equal N).
  void set_loads_mw(const linalg::Vector& loads);

  /// Scales every bus load by the same factor (used to replay load traces).
  void scale_loads(double factor);

  /// Sum of all bus loads, MW.
  double total_load_mw() const;

  /// Indices of branches equipped with D-FACTS devices.
  std::vector<std::size_t> dfacts_branches() const;

  /// Per-branch reactance lower limits x^min (nominal value for non-D-FACTS
  /// branches, `dfacts_min_factor * nominal` otherwise).
  linalg::Vector reactance_lower_limits() const;

  /// Per-branch reactance upper limits x^max.
  linalg::Vector reactance_upper_limits() const;

  /// True when `x` is inside [x^min, x^max] elementwise (with tolerance).
  bool reactances_within_limits(const linalg::Vector& x,
                                double tol = 1e-9) const;

  /// Branch-bus incidence matrix A^T as used in the paper: L x N, with
  /// +1 at the sending bus and -1 at the receiving bus of each branch.
  /// (The paper's A is N x L; we expose its transpose which is what the
  /// measurement model multiplies by.)
  linalg::Matrix branch_incidence() const;

  /// Reduced incidence: L x (N-1), slack-bus column removed.
  linalg::Matrix reduced_branch_incidence() const;

  /// Diagonal of D: base_mva / x_l, so that D A^T theta yields MW flows.
  /// Throws std::invalid_argument when `x` does not have length L or has
  /// an entry that is not a positive finite number; every dispatch and
  /// power-flow entry point reads `x` through here.
  linalg::Vector branch_susceptances(const linalg::Vector& x) const;

  /// Full nodal susceptance matrix B = A D A^T (N x N, singular).
  linalg::Matrix susceptance_matrix(const linalg::Vector& x) const;

  /// Validates structural sanity (indices in range, positive reactances,
  /// connected network). Throws std::invalid_argument on violation.
  void validate() const;

 private:
  std::string name_;
  std::vector<Bus> buses_;
  std::vector<Branch> branches_;
  std::vector<Generator> generators_;
  double base_mva_;
};

}  // namespace mtdgrid::grid
