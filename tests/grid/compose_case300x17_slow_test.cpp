// case300x17 mega-grid scale test (slow tier): the 5100-bus composed
// scenario must load through the registry, obey the renumbering
// contract, round-trip through the MATPOWER writer bit-exactly, and
// admit the (sparse-Cholesky) power flow. Dense whole-grid algebra (the
// dense-LP OPF, full SPA) is intentionally absent here — at this
// scale only the sparse backbone and the zone-decomposed paths are
// tractable, which is exactly the point of the composition layer; the
// full acceptance run is `case_audit --zones 17 case300x17` (CI perf
// job audits a composed artifact the same way).

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "grid/compose.hpp"
#include "grid/power_flow.hpp"
#include "io/case_registry.hpp"
#include "io/matpower.hpp"

namespace mtdgrid {
namespace {

TEST(ComposeCase300x17SlowTest, LoadsWithComposedStructure) {
  const grid::PowerSystem sys = io::load_case("case300x17");
  EXPECT_EQ(sys.name(), "case300x17");
  EXPECT_EQ(sys.num_buses(), 17u * 300u);
  EXPECT_EQ(sys.num_generators(), 17u * 69u);
  // 17 copies of 411 branches + 2 ties per interface on the closed ring
  // of 17 interfaces.
  EXPECT_EQ(sys.num_branches(), 17u * 411u + 34u);

  const grid::ZonePartition p = grid::partition_into_copies(sys, 17);
  EXPECT_EQ(p.num_zones, 17u);
  EXPECT_EQ(p.tie_branches.size(), 34u);
  for (std::size_t z = 0; z < p.num_zones; ++z) {
    EXPECT_EQ(p.zone_buses[z].size(), 300u);
    EXPECT_EQ(p.zone_branches[z].size(), 411u);
    EXPECT_EQ(p.zone_generators[z].size(), 69u);
  }
}

TEST(ComposeCase300x17SlowTest, MatpowerRoundTripIsBitExact) {
  const grid::PowerSystem sys = io::load_case("case300x17");
  io::ParseError error;
  const std::optional<io::MatpowerCase> mpc =
      io::parse_matpower(io::write_matpower(sys), &error);
  ASSERT_TRUE(mpc.has_value()) << error.to_string();
  const std::optional<grid::PowerSystem> parsed =
      io::to_power_system(*mpc, &error);
  ASSERT_TRUE(parsed.has_value()) << error.to_string();

  EXPECT_EQ(parsed->name(), sys.name());
  ASSERT_EQ(parsed->num_buses(), sys.num_buses());
  ASSERT_EQ(parsed->num_branches(), sys.num_branches());
  ASSERT_EQ(parsed->num_generators(), sys.num_generators());
  for (std::size_t i = 0; i < sys.num_buses(); ++i)
    ASSERT_EQ(parsed->bus(i).load_mw, sys.bus(i).load_mw) << "bus " << i;
  for (std::size_t l = 0; l < sys.num_branches(); ++l) {
    const grid::Branch& a = parsed->branch(l);
    const grid::Branch& b = sys.branch(l);
    ASSERT_EQ(a.from, b.from) << "branch " << l;
    ASSERT_EQ(a.to, b.to) << "branch " << l;
    ASSERT_EQ(a.reactance, b.reactance) << "branch " << l;
    ASSERT_EQ(a.flow_limit_mw, b.flow_limit_mw) << "branch " << l;
    ASSERT_EQ(a.has_dfacts, b.has_dfacts) << "branch " << l;
    ASSERT_EQ(a.dfacts_min_factor, b.dfacts_min_factor) << "branch " << l;
    ASSERT_EQ(a.dfacts_max_factor, b.dfacts_max_factor) << "branch " << l;
  }
  for (std::size_t g = 0; g < sys.num_generators(); ++g) {
    ASSERT_EQ(parsed->generator(g).bus, sys.generator(g).bus) << "gen " << g;
    ASSERT_EQ(parsed->generator(g).max_mw, sys.generator(g).max_mw)
        << "gen " << g;
    ASSERT_EQ(parsed->generator(g).cost_per_mwh,
              sys.generator(g).cost_per_mwh)
        << "gen " << g;
  }
}

TEST(ComposeCase300x17SlowTest, SparsePowerFlowBalances) {
  const grid::PowerSystem sys = io::load_case("case300x17");
  // A synthetic balanced injection: every bus pays its load, the slack
  // absorbs the total. This exercises the CSR assembly + minimum-degree
  // Cholesky at 5099 unknowns without any dense O(N^2) storage.
  linalg::Vector inj(sys.num_buses());
  double total = 0.0;
  for (std::size_t i = 1; i < sys.num_buses(); ++i) {
    inj[i] = -sys.bus(i).load_mw;
    total += sys.bus(i).load_mw;
  }
  inj[0] = total - sys.bus(0).load_mw;
  inj[0] += sys.bus(0).load_mw;  // slack supplies everything

  const grid::DcPowerFlowResult pf =
      grid::solve_dc_power_flow(sys, sys.reactances(), inj);
  ASSERT_EQ(pf.flows_mw.size(), sys.num_branches());
  std::vector<double> net(sys.num_buses(), 0.0);
  for (std::size_t l = 0; l < sys.num_branches(); ++l) {
    net[sys.branch(l).from] += pf.flows_mw[l];
    net[sys.branch(l).to] -= pf.flows_mw[l];
  }
  for (std::size_t i = 0; i < sys.num_buses(); ++i)
    ASSERT_NEAR(net[i], inj[i], 1e-5) << "bus " << i;
}

}  // namespace
}  // namespace mtdgrid
