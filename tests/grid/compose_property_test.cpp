// Property harness for the mega-grid composition layer (ISSUE 9): the
// renumbering contract, determinism, MATPOWER round-trip bit-exactness,
// the identity composition, per-bus DC balance of composed dispatches,
// and the partition/extract inverse. Comparisons use exact == on doubles
// on purpose — compose is specified as a pure function of
// (base, copies, seed), and "close enough" would hide draw-order bugs.

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "grid/compose.hpp"
#include "grid/power_flow.hpp"
#include "io/case_registry.hpp"
#include "io/matpower.hpp"
#include "opf/dc_opf.hpp"

namespace mtdgrid {
namespace {

// Field-for-field bit equality of two systems (name compared only when
// `check_name`).
void expect_systems_equal(const grid::PowerSystem& a,
                          const grid::PowerSystem& b, bool check_name) {
  if (check_name) EXPECT_EQ(a.name(), b.name());
  EXPECT_EQ(a.base_mva(), b.base_mva());
  ASSERT_EQ(a.num_buses(), b.num_buses());
  ASSERT_EQ(a.num_branches(), b.num_branches());
  ASSERT_EQ(a.num_generators(), b.num_generators());
  for (std::size_t i = 0; i < a.num_buses(); ++i)
    EXPECT_EQ(a.bus(i).load_mw, b.bus(i).load_mw) << "bus " << i;
  for (std::size_t l = 0; l < a.num_branches(); ++l) {
    const grid::Branch& ba = a.branch(l);
    const grid::Branch& bb = b.branch(l);
    EXPECT_EQ(ba.from, bb.from) << "branch " << l;
    EXPECT_EQ(ba.to, bb.to) << "branch " << l;
    EXPECT_EQ(ba.reactance, bb.reactance) << "branch " << l;
    EXPECT_EQ(ba.flow_limit_mw, bb.flow_limit_mw) << "branch " << l;
    EXPECT_EQ(ba.has_dfacts, bb.has_dfacts) << "branch " << l;
    EXPECT_EQ(ba.dfacts_min_factor, bb.dfacts_min_factor) << "branch " << l;
    EXPECT_EQ(ba.dfacts_max_factor, bb.dfacts_max_factor) << "branch " << l;
  }
  for (std::size_t g = 0; g < a.num_generators(); ++g) {
    const grid::Generator& ga = a.generator(g);
    const grid::Generator& gb = b.generator(g);
    EXPECT_EQ(ga.bus, gb.bus) << "gen " << g;
    EXPECT_EQ(ga.min_mw, gb.min_mw) << "gen " << g;
    EXPECT_EQ(ga.max_mw, gb.max_mw) << "gen " << g;
    EXPECT_EQ(ga.cost_per_mwh, gb.cost_per_mwh) << "gen " << g;
  }
}

grid::PowerSystem base_case14() { return io::load_case("case14"); }

TEST(ComposePropertyTest, RenumberingContract) {
  const grid::PowerSystem base = base_case14();
  grid::ComposeOptions opt;
  opt.copies = 3;
  const grid::ComposeResult r = grid::compose_cases(base, opt);

  const std::size_t nb = base.num_buses();
  const std::size_t nl = base.num_branches();
  const std::size_t ng = base.num_generators();
  EXPECT_EQ(r.buses_per_copy, nb);
  EXPECT_EQ(r.branches_per_copy, nl);
  EXPECT_EQ(r.gens_per_copy, ng);
  EXPECT_EQ(r.system.num_buses(), 3 * nb);
  EXPECT_EQ(r.system.num_generators(), 3 * ng);
  // Ring of 3 copies, 2 ties per interface, 3 interfaces.
  EXPECT_EQ(r.tie_branches.size(), 6u);
  EXPECT_EQ(r.system.num_branches(), 3 * nl + 6);
  EXPECT_EQ(r.system.name(), "ieee14x3");

  // Copied branches: branch l of copy k is global k*nl + l with endpoints
  // shifted by k*nb; every non-topology field is inherited bit-for-bit.
  for (std::size_t k = 0; k < 3; ++k) {
    for (std::size_t l = 0; l < nl; ++l) {
      const grid::Branch& src = base.branch(l);
      const grid::Branch& dst = r.system.branch(k * nl + l);
      EXPECT_EQ(dst.from, src.from + k * nb);
      EXPECT_EQ(dst.to, src.to + k * nb);
      EXPECT_EQ(dst.reactance, src.reactance);
      EXPECT_EQ(dst.flow_limit_mw, src.flow_limit_mw);
      EXPECT_EQ(dst.has_dfacts, src.has_dfacts);
    }
    for (std::size_t g = 0; g < ng; ++g)
      EXPECT_EQ(r.system.generator(k * ng + g).bus,
                base.generator(g).bus + k * nb);
  }
  // Ties are the trailing branches, joining consecutive copies at the
  // declared boundary buses (offset pairing).
  ASSERT_EQ(r.boundary_buses.size(), 2u);
  for (std::size_t t = 0; t < r.tie_branches.size(); ++t) {
    EXPECT_EQ(r.tie_branches[t], 3 * nl + t);
    const grid::Branch& tie = r.system.branch(r.tie_branches[t]);
    EXPECT_FALSE(tie.has_dfacts);
    EXPECT_EQ(tie.reactance, opt.tie_reactance);
  }
  const grid::Branch& tie0 = r.system.branch(r.tie_branches[0]);
  EXPECT_EQ(tie0.from, 0 * nb + r.boundary_buses[0]);
  EXPECT_EQ(tie0.to, 1 * nb + r.boundary_buses[1]);
  const grid::Branch& tie1 = r.system.branch(r.tie_branches[1]);
  EXPECT_EQ(tie1.from, 0 * nb + r.boundary_buses[1]);
  EXPECT_EQ(tie1.to, 1 * nb + r.boundary_buses[0]);
}

TEST(ComposePropertyTest, CompositionIsDeterministic) {
  const grid::PowerSystem base = base_case14();
  grid::ComposeOptions opt;
  opt.copies = 4;
  opt.seed = 991;
  const grid::ComposeResult a = grid::compose_cases(base, opt);
  const grid::ComposeResult b = grid::compose_cases(base, opt);
  expect_systems_equal(a.system, b.system, true);
  EXPECT_EQ(a.tie_branches, b.tie_branches);
  EXPECT_EQ(a.boundary_buses, b.boundary_buses);
}

TEST(ComposePropertyTest, SingleCopyZeroJitterIsIdentity) {
  const grid::PowerSystem base = base_case14();
  grid::ComposeOptions opt;
  opt.copies = 1;
  opt.load_jitter = 0.0;
  opt.gen_jitter = 0.0;
  opt.cost_jitter = 0.0;
  opt.name = base.name();
  const grid::ComposeResult r = grid::compose_cases(base, opt);
  EXPECT_TRUE(r.tie_branches.empty());  // one copy has no interfaces
  expect_systems_equal(r.system, base, true);
}

TEST(ComposePropertyTest, JitterDrawsArePerCopySubstreams) {
  // Copy k's fields depend only on (seed, k): composing 2 and 4 copies
  // must agree on the shared prefix, and jitter amplitude 0 must hit the
  // base exactly (the jitter factor is exactly 1.0, not 1.0 + 0*u).
  const grid::PowerSystem base = base_case14();
  grid::ComposeOptions opt2;
  opt2.copies = 2;
  grid::ComposeOptions opt4;
  opt4.copies = 4;
  const grid::ComposeResult r2 = grid::compose_cases(base, opt2);
  const grid::ComposeResult r4 = grid::compose_cases(base, opt4);
  for (std::size_t i = 0; i < 2 * base.num_buses(); ++i)
    EXPECT_EQ(r2.system.bus(i).load_mw, r4.system.bus(i).load_mw);
  for (std::size_t g = 0; g < 2 * base.num_generators(); ++g)
    EXPECT_EQ(r2.system.generator(g).cost_per_mwh,
              r4.system.generator(g).cost_per_mwh);

  grid::ComposeOptions zero = opt2;
  zero.load_jitter = 0.0;
  const grid::ComposeResult rz = grid::compose_cases(base, zero);
  for (std::size_t k = 0; k < 2; ++k)
    for (std::size_t i = 0; i < base.num_buses(); ++i)
      EXPECT_EQ(rz.system.bus(k * base.num_buses() + i).load_mw,
                base.bus(i).load_mw);
}

TEST(ComposePropertyTest, ComposedDispatchBalancesPerBus) {
  const grid::PowerSystem base = base_case14();
  grid::ComposeOptions opt;
  opt.copies = 3;
  const grid::ComposeResult r = grid::compose_cases(base, opt);

  const opf::DispatchResult d = opf::solve_dc_opf(r.system);
  ASSERT_TRUE(d.feasible);
  const linalg::Vector inj =
      grid::nodal_injections(r.system, d.generation_mw);
  std::vector<double> net(r.system.num_buses(), 0.0);
  for (std::size_t l = 0; l < r.system.num_branches(); ++l) {
    net[r.system.branch(l).from] += d.flows_mw[l];
    net[r.system.branch(l).to] -= d.flows_mw[l];
  }
  for (std::size_t i = 0; i < r.system.num_buses(); ++i)
    EXPECT_NEAR(net[i], inj[i], 1e-6) << "bus " << i;

  // The power flow at the dispatch's injections reproduces its operating
  // point on the composed network (to solver tolerance when the LP, not
  // the merit-order certificate, produced the dispatch).
  const grid::DcPowerFlowResult pf = grid::solve_dc_power_flow(
      r.system, r.system.reactances(), inj);
  for (std::size_t l = 0; l < r.system.num_branches(); ++l)
    EXPECT_NEAR(pf.flows_mw[l], d.flows_mw[l], 1e-6) << "branch " << l;
}

TEST(ComposePropertyTest, MatpowerRoundTripIsBitExact) {
  const grid::PowerSystem base = base_case14();
  grid::ComposeOptions opt;
  opt.copies = 3;
  opt.name = "case14x3";
  const grid::ComposeResult r = grid::compose_cases(base, opt);

  io::ParseError error;
  const std::optional<io::MatpowerCase> mpc =
      io::parse_matpower(io::write_matpower(r.system), &error);
  ASSERT_TRUE(mpc.has_value()) << error.to_string();
  const std::optional<grid::PowerSystem> parsed =
      io::to_power_system(*mpc, &error);
  ASSERT_TRUE(parsed.has_value()) << error.to_string();
  expect_systems_equal(*parsed, r.system, true);
}

TEST(ComposePropertyTest, PartitionInvertsComposition) {
  const grid::PowerSystem base = base_case14();
  grid::ComposeOptions opt;
  opt.copies = 3;
  const grid::ComposeResult r = grid::compose_cases(base, opt);

  const grid::ZonePartition p = r.zones();
  ASSERT_EQ(p.num_zones, 3u);
  EXPECT_EQ(p.tie_branches, r.tie_branches);
  for (std::size_t b = 0; b < r.system.num_buses(); ++b)
    EXPECT_EQ(p.bus_zone[b], b / base.num_buses());

  for (std::size_t z = 0; z < 3; ++z) {
    const grid::ZoneSystem zone = grid::extract_zone(r.system, p, z);
    ASSERT_EQ(zone.system.num_buses(), base.num_buses());
    ASSERT_EQ(zone.system.num_branches(), base.num_branches());
    ASSERT_EQ(zone.system.num_generators(), base.num_generators());
    // The extracted zone IS the jittered copy: same topology as the
    // base, loads/capacities from copy z's substream, bit-for-bit.
    for (std::size_t l = 0; l < base.num_branches(); ++l) {
      EXPECT_EQ(zone.system.branch(l).from, base.branch(l).from);
      EXPECT_EQ(zone.system.branch(l).to, base.branch(l).to);
      EXPECT_EQ(zone.system.branch(l).reactance, base.branch(l).reactance);
      EXPECT_EQ(zone.branch_map[l], z * base.num_branches() + l);
    }
    for (std::size_t i = 0; i < base.num_buses(); ++i) {
      EXPECT_EQ(zone.system.bus(i).load_mw,
                r.system.bus(z * base.num_buses() + i).load_mw);
      EXPECT_EQ(zone.bus_map[i], z * base.num_buses() + i);
    }
  }
}

TEST(ComposePropertyTest, RegistryComposedGrammar) {
  const io::CaseRegistry& reg = io::CaseRegistry::global();
  EXPECT_TRUE(reg.knows("case14x2"));
  EXPECT_TRUE(reg.knows("ieee14x2"));  // aliases compose too
  EXPECT_TRUE(reg.knows("case118x9"));
  EXPECT_FALSE(reg.knows("case14x1"));    // identity tiling is not a name
  EXPECT_FALSE(reg.knows("case14x2x2"));  // composed bases do not nest
  EXPECT_FALSE(reg.knows("nosuchx3"));
  EXPECT_THROW(reg.load("nosuchx3"), io::CaseIoError);

  // The registry name means exactly the default composition at the
  // default seed, under the canonical name.
  const grid::PowerSystem via_registry = io::load_case("case14x2");
  grid::ComposeOptions opt;
  opt.copies = 2;
  opt.name = "case14x2";
  const grid::ComposeResult direct =
      grid::compose_cases(io::load_case("case14"), opt);
  expect_systems_equal(via_registry, direct.system, true);
}

TEST(ComposePropertyTest, OptionValidation) {
  const grid::PowerSystem base = base_case14();
  grid::ComposeOptions opt;
  opt.copies = 0;
  EXPECT_THROW(grid::compose_cases(base, opt), std::invalid_argument);
  opt = {};
  opt.load_jitter = 1.0;
  EXPECT_THROW(grid::compose_cases(base, opt), std::invalid_argument);
  opt = {};
  opt.ties_per_interface = 0;
  EXPECT_THROW(grid::compose_cases(base, opt), std::invalid_argument);
  opt = {};
  opt.tie_reactance = 0.0;
  EXPECT_THROW(grid::compose_cases(base, opt), std::invalid_argument);
  opt = {};
  opt.tie_limit_mw = -1.0;
  EXPECT_THROW(grid::compose_cases(base, opt), std::invalid_argument);
  opt = {};
  opt.boundary_buses = {base.num_buses()};
  EXPECT_THROW(grid::compose_cases(base, opt), std::invalid_argument);
  opt = {};
  opt.tie_dfacts_min = 1.5;  // min > max
  EXPECT_THROW(grid::compose_cases(base, opt), std::invalid_argument);

  const grid::ComposeResult two = grid::compose_cases(base, {});
  EXPECT_THROW(grid::partition_into_copies(two.system, 3),
               std::invalid_argument);
  const grid::ZonePartition p = grid::partition_into_copies(two.system, 2);
  EXPECT_THROW(grid::extract_zone(two.system, p, 2), std::invalid_argument);
}

}  // namespace
}  // namespace mtdgrid
