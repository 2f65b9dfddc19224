#include "grid/compose.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "stats/rng.hpp"

namespace mtdgrid::grid {

namespace {

// Mirror of io::kUnlimitedFlowMw (grid cannot include io): a tie limit of
// 0 means "never binds", stored as the sentinel the MATPOWER writer maps
// back to RATE_A = 0.
constexpr double kUnlimitedTieMw = 1e6;

// Highest-degree boundary buses of the base case: `count` buses sorted by
// (degree descending, index ascending), returned ascending. High-degree
// buses are the transmission-level nodes a real interconnection tie would
// terminate at, and the deterministic tie-break keeps composition a pure
// function of the inputs.
std::vector<std::size_t> default_boundary_buses(const PowerSystem& base,
                                                std::size_t count) {
  std::vector<std::size_t> degree(base.num_buses(), 0);
  for (const Branch& br : base.branches()) {
    ++degree[br.from];
    ++degree[br.to];
  }
  std::vector<std::size_t> order(base.num_buses());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (degree[a] != degree[b]) return degree[a] > degree[b];
    return a < b;
  });
  order.resize(count);
  std::sort(order.begin(), order.end());
  return order;
}

// One uniform factor in [1 - jitter, 1 + jitter). Draws exactly one value
// regardless of the jitter amplitude, so the substream layout — and with
// it every downstream draw — does not depend on which jitters are on.
double jitter_factor(stats::Rng& rng, double jitter) {
  const double u = rng.uniform();
  return 1.0 + jitter * (2.0 * u - 1.0);
}

}  // namespace

ComposeResult compose_cases(const PowerSystem& base,
                            const ComposeOptions& options) {
  if (options.copies == 0)
    throw std::invalid_argument("compose: copies must be >= 1");
  for (double j :
       {options.load_jitter, options.gen_jitter, options.cost_jitter}) {
    if (j < 0.0 || j >= 1.0)
      throw std::invalid_argument("compose: jitter must be in [0, 1)");
  }
  if (options.ties_per_interface == 0)
    throw std::invalid_argument("compose: ties_per_interface must be >= 1");
  if (options.tie_reactance <= 0.0)
    throw std::invalid_argument("compose: tie reactance must be positive");
  if (options.tie_limit_mw < 0.0)
    throw std::invalid_argument("compose: tie limit must be >= 0");

  std::vector<std::size_t> boundary = options.boundary_buses;
  if (boundary.empty()) {
    if (options.ties_per_interface > base.num_buses())
      throw std::invalid_argument(
          "compose: more ties per interface than base buses");
    boundary = default_boundary_buses(base, options.ties_per_interface);
  } else {
    for (std::size_t b : boundary)
      if (b >= base.num_buses())
        throw std::invalid_argument("compose: boundary bus out of range");
    std::sort(boundary.begin(), boundary.end());
    boundary.erase(std::unique(boundary.begin(), boundary.end()),
                   boundary.end());
  }

  const std::size_t nb = base.num_buses();
  const std::size_t nl = base.num_branches();
  const std::size_t ng = base.num_generators();
  const std::size_t copies = options.copies;

  std::vector<Bus> buses;
  std::vector<Branch> branches;
  std::vector<Generator> generators;
  buses.reserve(nb * copies);
  branches.reserve(nl * copies + 8);
  generators.reserve(ng * copies);

  for (std::size_t k = 0; k < copies; ++k) {
    // One substream per copy: bus-load factors in bus order, then
    // (capacity, cost) factor pairs in generator order. The draw order is
    // part of the composition contract — changing it changes every
    // composed case name's meaning.
    stats::Rng jitter = stats::make_stream(options.seed, k);
    const std::size_t bus_off = k * nb;
    for (std::size_t i = 0; i < nb; ++i) {
      Bus b = base.bus(i);
      b.load_mw *= jitter_factor(jitter, options.load_jitter);
      buses.push_back(b);
    }
    for (std::size_t l = 0; l < nl; ++l) {
      Branch br = base.branch(l);
      br.from += bus_off;
      br.to += bus_off;
      branches.push_back(br);
    }
    for (std::size_t g = 0; g < ng; ++g) {
      Generator gen = base.generator(g);
      gen.bus += bus_off;
      const double cap = jitter_factor(jitter, options.gen_jitter);
      const double cost = jitter_factor(jitter, options.cost_jitter);
      // Capacity jitter never pushes max below min (the base headroom is
      // what keeps the jittered copy OPF-feasible).
      gen.max_mw = std::max(gen.max_mw * cap, gen.min_mw);
      gen.cost_per_mwh *= cost;
      generators.push_back(gen);
    }
  }

  // Tie lines: a chain of copy interfaces (k, k+1), closed into a ring
  // when copies >= 3 and options.ring. Tie t of an interface joins
  // boundary bus t on the lower copy to boundary bus (t+1) mod B on the
  // higher one — the offset pairing avoids the pure parallel-circuit
  // structure that same-bus pairing would create.
  std::vector<std::size_t> tie_branches;
  std::vector<std::pair<std::size_t, std::size_t>> interfaces;
  for (std::size_t k = 0; k + 1 < copies; ++k) interfaces.push_back({k, k + 1});
  if (options.ring && copies >= 3) interfaces.push_back({copies - 1, 0});
  const double tie_limit =
      options.tie_limit_mw == 0.0 ? kUnlimitedTieMw : options.tie_limit_mw;
  for (const auto& [a, b] : interfaces) {
    for (std::size_t t = 0; t < options.ties_per_interface; ++t) {
      Branch tie;
      tie.from = a * nb + boundary[t % boundary.size()];
      tie.to = b * nb + boundary[(t + 1) % boundary.size()];
      tie.reactance = options.tie_reactance;
      tie.flow_limit_mw = tie_limit;
      tie_branches.push_back(branches.size());
      branches.push_back(tie);
    }
  }

  const std::string name = options.name.empty()
                               ? base.name() + "x" + std::to_string(copies)
                               : options.name;
  ComposeResult result{PowerSystem(name, std::move(buses),
                                   std::move(branches), std::move(generators),
                                   base.base_mva()),
                       copies,
                       nb,
                       nl,
                       ng,
                       std::move(tie_branches),
                       std::move(boundary)};
  return result;
}

ZonePartition ComposeResult::zones() const {
  return partition_into_copies(system, copies);
}

ZonePartition partition_into_copies(const PowerSystem& sys,
                                    std::size_t copies) {
  if (copies == 0)
    throw std::invalid_argument("partition: copies must be >= 1");
  if (sys.num_buses() % copies != 0)
    throw std::invalid_argument(
        "partition: bus count is not divisible by the copy count");
  const std::size_t per_zone = sys.num_buses() / copies;

  ZonePartition p;
  p.num_zones = copies;
  p.bus_zone.resize(sys.num_buses());
  p.zone_buses.resize(copies);
  p.zone_branches.resize(copies);
  p.zone_generators.resize(copies);
  for (std::size_t b = 0; b < sys.num_buses(); ++b) {
    p.bus_zone[b] = b / per_zone;
    p.zone_buses[b / per_zone].push_back(b);
  }
  for (std::size_t l = 0; l < sys.num_branches(); ++l) {
    const std::size_t zf = p.bus_zone[sys.branch(l).from];
    const std::size_t zt = p.bus_zone[sys.branch(l).to];
    if (zf == zt)
      p.zone_branches[zf].push_back(l);
    else
      p.tie_branches.push_back(l);
  }
  for (std::size_t g = 0; g < sys.num_generators(); ++g)
    p.zone_generators[p.bus_zone[sys.generator(g).bus]].push_back(g);

  // Every zone must be internally connected (union-find over the
  // intra-zone branches): a disconnected zone has no standalone power
  // flow, so the partition would be unusable for zone decomposition.
  std::vector<std::size_t> parent(sys.num_buses());
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  const auto find = [&](std::size_t v) {
    while (parent[v] != v) v = parent[v] = parent[parent[v]];
    return v;
  };
  for (std::size_t z = 0; z < copies; ++z)
    for (std::size_t l : p.zone_branches[z])
      parent[find(sys.branch(l).from)] = find(sys.branch(l).to);
  for (std::size_t b = 0; b < sys.num_buses(); ++b) {
    if (find(b) != find(p.zone_buses[p.bus_zone[b]].front()))
      throw std::invalid_argument(
          "partition: zone " + std::to_string(p.bus_zone[b]) +
          " is internally disconnected");
  }
  return p;
}

ZoneSystem extract_zone(const PowerSystem& sys,
                        const ZonePartition& partition, std::size_t zone) {
  if (zone >= partition.num_zones)
    throw std::invalid_argument("extract_zone: zone out of range");

  std::vector<std::size_t> bus_map = partition.zone_buses[zone];
  std::vector<std::size_t> branch_map = partition.zone_branches[zone];
  std::vector<std::size_t> gen_map = partition.zone_generators[zone];

  std::vector<std::size_t> local(sys.num_buses(), sys.num_buses());
  for (std::size_t i = 0; i < bus_map.size(); ++i) local[bus_map[i]] = i;

  std::vector<Bus> buses;
  buses.reserve(bus_map.size());
  for (std::size_t b : bus_map) buses.push_back(sys.bus(b));
  std::vector<Branch> branches;
  branches.reserve(branch_map.size());
  for (std::size_t l : branch_map) {
    Branch br = sys.branch(l);
    br.from = local[br.from];
    br.to = local[br.to];
    branches.push_back(br);
  }
  std::vector<Generator> generators;
  generators.reserve(gen_map.size());
  for (std::size_t g : gen_map) {
    Generator gen = sys.generator(g);
    gen.bus = local[gen.bus];
    generators.push_back(gen);
  }

  return ZoneSystem{PowerSystem(sys.name() + ":z" + std::to_string(zone),
                                std::move(buses), std::move(branches),
                                std::move(generators), sys.base_mva()),
                    std::move(bus_map), std::move(branch_map),
                    std::move(gen_map)};
}

}  // namespace mtdgrid::grid
