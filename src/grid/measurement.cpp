#include "grid/measurement.hpp"

#include <cassert>
#include <cmath>

namespace mtdgrid::grid {

std::size_t measurement_count(const PowerSystem& sys) {
  return 2 * sys.num_branches() + sys.num_buses();
}

linalg::Matrix measurement_matrix(const PowerSystem& sys,
                                  const linalg::Vector& x) {
  assert(x.size() == sys.num_branches());
  const std::size_t num_branches = sys.num_branches();
  const std::size_t num_buses = sys.num_buses();
  const std::size_t state_dim = num_buses - 1;

  const linalg::Matrix a_reduced = sys.reduced_branch_incidence();  // L x N-1
  const linalg::Vector d = sys.branch_susceptances(x);

  linalg::Matrix h(measurement_count(sys), state_dim);

  // Forward flow rows: D A_r^T  (row l scaled by d_l).
  for (std::size_t l = 0; l < num_branches; ++l) {
    for (std::size_t j = 0; j < state_dim; ++j) {
      const double value = d[l] * a_reduced(l, j);
      h(l, j) = value;                      // forward flow
      h(num_branches + l, j) = -value;      // reverse flow
    }
  }

  // Injection rows: the full B = A D A^T with the slack *column* removed;
  // injections are measured at every bus including the slack.
  const linalg::Matrix b_full = sys.susceptance_matrix(x);
  const linalg::Matrix b_cols = b_full.without_col(sys.slack_bus());
  for (std::size_t i = 0; i < num_buses; ++i) {
    for (std::size_t j = 0; j < state_dim; ++j) {
      h(2 * num_branches + i, j) = b_cols(i, j);
    }
  }
  return h;
}

linalg::Matrix measurement_matrix(const PowerSystem& sys) {
  return measurement_matrix(sys, sys.reactances());
}

linalg::SparseMatrix sparse_measurement_matrix(const PowerSystem& sys,
                                               const linalg::Vector& x) {
  assert(x.size() == sys.num_branches());
  const std::size_t num_branches = sys.num_branches();
  const std::size_t num_buses = sys.num_buses();
  const std::size_t state_dim = num_buses - 1;
  const linalg::Vector d = sys.branch_susceptances(x);

  linalg::TripletBuilder builder(measurement_count(sys), state_dim);
  builder.reserve(8 * num_branches);
  for (std::size_t l = 0; l < num_branches; ++l) {
    const Branch& br = sys.branch(l);
    const std::size_t cf = reduced_state_column(sys, br.from);
    const std::size_t ct = reduced_state_column(sys, br.to);
    // Flow rows l (forward) and L + l (reverse): d_l * (e_from - e_to)^T
    // with the slack column dropped.
    if (cf < num_buses) {
      builder.add(l, cf, d[l]);
      builder.add(num_branches + l, cf, -d[l]);
    }
    if (ct < num_buses) {
      builder.add(l, ct, -d[l]);
      builder.add(num_branches + l, ct, d[l]);
    }
    // Injection rows: B = A D A^T accumulated per branch in branch order
    // (matching PowerSystem::susceptance_matrix bit for bit), slack
    // column dropped, slack row kept.
    const std::size_t row_f = 2 * num_branches + br.from;
    const std::size_t row_t = 2 * num_branches + br.to;
    if (cf < num_buses) {
      builder.add(row_f, cf, d[l]);
      builder.add(row_t, cf, -d[l]);
    }
    if (ct < num_buses) {
      builder.add(row_t, ct, d[l]);
      builder.add(row_f, ct, -d[l]);
    }
  }
  return builder.build();
}

linalg::SparseMatrix sparse_measurement_matrix(const PowerSystem& sys) {
  return sparse_measurement_matrix(sys, sys.reactances());
}

std::size_t reduced_state_column(const PowerSystem& sys, std::size_t bus) {
  const std::size_t slack = sys.slack_bus();
  if (bus == slack) return sys.num_buses();  // sentinel: no column
  return (bus < slack) ? bus : bus - 1;
}

std::vector<std::size_t> changed_branches(const linalg::Vector& x_old,
                                          const linalg::Vector& x_new,
                                          double rel_tol) {
  assert(x_old.size() == x_new.size());
  std::vector<std::size_t> changed;
  for (std::size_t l = 0; l < x_old.size(); ++l) {
    if (std::abs(x_new[l] - x_old[l]) > rel_tol * std::abs(x_old[l]))
      changed.push_back(l);
  }
  return changed;
}

linalg::Vector noiseless_measurements(const PowerSystem& sys,
                                      const linalg::Vector& x,
                                      const linalg::Vector& theta_reduced) {
  assert(theta_reduced.size() == sys.num_buses() - 1);
  return sparse_measurement_matrix(sys, x) * theta_reduced;
}

}  // namespace mtdgrid::grid
