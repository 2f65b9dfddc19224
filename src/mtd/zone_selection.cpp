#include "mtd/zone_selection.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/parallel.hpp"
#include "mtd/spa.hpp"
#include "obs/scope.hpp"
#include "opf/dc_opf.hpp"
#include "stats/rng.hpp"

namespace mtdgrid::mtd {

namespace {

// One standalone selection on zone z, round `round`. The substream index
// `round * num_zones + z` is the determinism contract of the header: the
// same (seed, zone, round) triple always sees the same random starts, no
// matter which worker runs it or how often other zones were re-solved.
void solve_zone(const grid::ZoneSystem& zs, std::size_t zone,
                std::size_t round, std::size_t num_zones,
                const ZoneSelectionOptions& options, std::uint64_t seed,
                ZoneSelectionZoneResult& out) {
  const grid::PowerSystem& zsys = zs.system;
  const opf::DispatchResult base = opf::solve_dc_opf(zsys);
  if (!base.feasible)
    throw std::invalid_argument("zone selection: zone " +
                                std::to_string(zone) +
                                " has no feasible no-MTD dispatch");
  out.zone = zone;
  out.base_opf_cost = base.cost;
  out.rounds = round + 1;

  if (zsys.dfacts_branches().empty()) {
    // Nothing to select: the zone keeps its nominal reactances, which
    // leave the column space unchanged (gamma = 0).
    out.result = MtdSelectionResult{};
    out.result.reactances = zsys.reactances();
    out.result.dispatch = base;
    out.result.spa = 0.0;
    out.result.opf_cost = base.cost;
    out.result.base_opf_cost = base.cost;
    out.result.feasible = options.selection.gamma_threshold <= 0.0;
    return;
  }

  // Each fallback round enlarges the zone's candidate set.
  constexpr int kExtraStartsPerRound = 4;
  MtdSelectionOptions sel = options.selection;
  sel.extra_starts += static_cast<int>(round) * kExtraStartsPerRound;
  stats::Rng rng = stats::make_stream(seed, round * num_zones + zone);
  out.result = select_mtd_perturbation(
      zsys, zsys.reactances(), base.cost, sel, rng);
  obs::add(obs::Work::kZonesSelected);
}

// Stitches the per-zone reactances into the full-length vector: local
// branch l of zone z writes global branch `branch_map[l]`. Tie branches
// belong to no zone and keep their nominal entries.
linalg::Vector stitch(const grid::PowerSystem& sys,
                      const std::vector<grid::ZoneSystem>& zones,
                      const std::vector<ZoneSelectionZoneResult>& zres) {
  linalg::Vector x = sys.reactances();
  for (std::size_t z = 0; z < zones.size(); ++z) {
    const std::vector<std::size_t>& bmap = zones[z].branch_map;
    for (std::size_t l = 0; l < bmap.size(); ++l)
      x[bmap[l]] = zres[z].result.reactances[l];
  }
  return x;
}

}  // namespace

ZoneSelectionResult select_mtd_zones(const grid::PowerSystem& sys,
                                     const grid::ZonePartition& partition,
                                     const ZoneSelectionOptions& options,
                                     std::uint64_t seed,
                                     core::ThreadPool* pool) {
  if (partition.num_zones == 0 ||
      partition.bus_zone.size() != sys.num_buses())
    throw std::invalid_argument(
        "zone selection: partition does not describe the system");
  if (options.max_rounds == 0)
    throw std::invalid_argument("zone selection: max_rounds must be >= 1");
  const std::size_t num_zones = partition.num_zones;
  const double full_th = options.selection.gamma_threshold;

  std::vector<grid::ZoneSystem> zones;
  zones.reserve(num_zones);
  for (std::size_t z = 0; z < num_zones; ++z)
    zones.push_back(grid::extract_zone(sys, partition, z));

  // The full-model boundary check: the attacker's key is the nominal
  // full-network reactance vector, and the stitched candidates ride the
  // k x k gamma tables built from its sparse Gram factor.
  const SpaEvaluator full_eval(sys, sys.reactances());

  ZoneSelectionResult result;
  result.zones.resize(num_zones);

  // Round 0: every zone, in parallel, index-ordered slots.
  core::parallel_for(
      num_zones,
      [&](std::size_t z) {
        solve_zone(zones[z], z, 0, num_zones, options, seed,
                   result.zones[z]);
      },
      pool);

  const auto full_check = [&](const linalg::Vector& x) {
    obs::add(obs::Work::kBoundaryRechecks);
    ++result.boundary_rechecks;
    return full_eval.gamma(x);
  };
  const auto zones_feasible = [&] {
    return std::all_of(result.zones.begin(), result.zones.end(),
                       [](const ZoneSelectionZoneResult& zr) {
                         return zr.result.feasible;
                       });
  };

  result.reactances = stitch(sys, zones, result.zones);
  result.full_spa = full_check(result.reactances);
  const double tol = options.selection.constraint_tol;
  bool ok = zones_feasible() && result.full_spa >= full_th - tol;

  // Fallback rounds: re-solve the offending zones — infeasible ones and
  // those sitting closest to the threshold, where tie coupling can erode
  // the margin — with an enlarged start portfolio, then re-check the
  // stitched perturbation on the full model.
  for (std::size_t round = 1; !ok && round < options.max_rounds; ++round) {
    std::vector<std::size_t> offenders;
    for (std::size_t z = 0; z < num_zones; ++z) {
      const ZoneSelectionZoneResult& zr = result.zones[z];
      if (!zr.result.feasible || zr.result.spa < full_th + tol)
        offenders.push_back(z);
    }
    if (offenders.empty()) {
      // Every zone clears the margin yet the coupled model falls short:
      // enlarge the zone with the smallest achieved angle (first
      // minimum, so the pick is deterministic).
      std::size_t worst = 0;
      for (std::size_t z = 1; z < num_zones; ++z)
        if (result.zones[z].result.spa < result.zones[worst].result.spa)
          worst = z;
      offenders.push_back(worst);
    }
    core::parallel_for(
        offenders.size(),
        [&](std::size_t i) {
          const std::size_t z = offenders[i];
          solve_zone(zones[z], z, round, num_zones, options, seed,
                     result.zones[z]);
        },
        pool);
    result.reactances = stitch(sys, zones, result.zones);
    result.full_spa = full_check(result.reactances);
    ok = zones_feasible() && result.full_spa >= full_th - tol;
  }
  result.feasible = ok;

  for (const ZoneSelectionZoneResult& zr : result.zones) {
    result.opf_cost += zr.result.opf_cost;
    result.base_opf_cost += zr.base_opf_cost;
  }
  result.cost_increase =
      (result.opf_cost - result.base_opf_cost) / result.base_opf_cost;
  return result;
}

}  // namespace mtdgrid::mtd
