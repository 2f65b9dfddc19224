// Zone-decomposed selection conformance (ISSUE 9): per-zone solves must
// reproduce standalone selection on the extracted zone bit-exactly (the
// decomposition is a partition, not an approximation, of the per-zone
// problems), the stitched perturbation must clear the full-model SPA
// threshold under tie coupling, and the whole pipeline must be
// bit-identical across thread counts 1/2/8 — exact == on doubles, as in
// the rest of the determinism suite.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/thread_pool.hpp"
#include "grid/compose.hpp"
#include "io/case_registry.hpp"
#include "mtd/selection.hpp"
#include "mtd/zone_selection.hpp"
#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "opf/dc_opf.hpp"
#include "stats/rng.hpp"

namespace mtdgrid {
namespace {

constexpr std::uint64_t kSeed = 7117;

mtd::ZoneSelectionOptions small_budget_options() {
  mtd::ZoneSelectionOptions opt;
  opt.selection.gamma_threshold = 0.1;
  opt.selection.extra_starts = 1;
  opt.selection.search.max_evaluations = 120;
  opt.max_rounds = 1;  // conformance wants pure round-0 results
  return opt;
}

// Standalone selection on one extracted zone, seeded exactly like round
// `round` of a decomposed run over `num_zones` zones: substream
// round * num_zones + z, and 4 more multi-starts per fallback round.
mtd::MtdSelectionResult standalone(const grid::ZoneSystem& zone,
                                   std::size_t z,
                                   const mtd::ZoneSelectionOptions& opt,
                                   std::size_t round = 0,
                                   std::size_t num_zones = 1) {
  const opf::DispatchResult base = opf::solve_dc_opf(zone.system);
  EXPECT_TRUE(base.feasible);
  mtd::MtdSelectionOptions sel = opt.selection;
  sel.extra_starts += 4 * static_cast<int>(round);
  stats::Rng rng = stats::make_stream(kSeed, round * num_zones + z);
  return mtd::select_mtd_perturbation(zone.system, zone.system.reactances(),
                                      base.cost, sel, rng);
}

void expect_results_equal(const mtd::MtdSelectionResult& a,
                          const mtd::MtdSelectionResult& b) {
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.spa, b.spa);
  EXPECT_EQ(a.opf_cost, b.opf_cost);
  EXPECT_EQ(a.base_opf_cost, b.base_opf_cost);
  ASSERT_EQ(a.reactances.size(), b.reactances.size());
  for (std::size_t l = 0; l < a.reactances.size(); ++l)
    EXPECT_EQ(a.reactances[l], b.reactances[l]) << "branch " << l;
}

TEST(ZoneSelectionTest, RoundZeroMatchesStandaloneSelectionCase14x2) {
  const grid::PowerSystem sys = io::load_case("case14x2");
  const grid::ZonePartition p = grid::partition_into_copies(sys, 2);
  const mtd::ZoneSelectionOptions opt = small_budget_options();

  const mtd::ZoneSelectionResult r =
      mtd::select_mtd_zones(sys, p, opt, kSeed);
  ASSERT_EQ(r.zones.size(), 2u);
  EXPECT_EQ(r.boundary_rechecks, 1u);

  for (std::size_t z = 0; z < 2; ++z) {
    SCOPED_TRACE("zone " + std::to_string(z));
    const grid::ZoneSystem zone = grid::extract_zone(sys, p, z);
    expect_results_equal(r.zones[z].result, standalone(zone, z, opt));
    // The stitched vector carries zone z's reactances verbatim.
    for (std::size_t l = 0; l < zone.branch_map.size(); ++l)
      EXPECT_EQ(r.reactances[zone.branch_map[l]],
                r.zones[z].result.reactances[l]);
  }
}

TEST(ZoneSelectionTest, RoundZeroMatchesStandaloneSelectionCase57x2) {
  const grid::PowerSystem sys = io::load_case("case57x2");
  const grid::ZonePartition p = grid::partition_into_copies(sys, 2);
  mtd::ZoneSelectionOptions opt = small_budget_options();
  opt.selection.extra_starts = 0;  // corners + warm starts only
  opt.selection.search.max_evaluations = 40;

  const mtd::ZoneSelectionResult r =
      mtd::select_mtd_zones(sys, p, opt, kSeed);
  ASSERT_EQ(r.zones.size(), 2u);
  for (std::size_t z = 0; z < 2; ++z) {
    SCOPED_TRACE("zone " + std::to_string(z));
    expect_results_equal(r.zones[z].result,
                         standalone(grid::extract_zone(sys, p, z), z, opt));
  }
}

TEST(ZoneSelectionTest, FallbackRoundMatchesStandaloneWithFourMoreStarts) {
  // An unreachable threshold leaves both zones infeasible after round 0,
  // so round 1 re-solves both, each with 4 more multi-starts on its own
  // round-1 substream. Every candidate costs one power flow, so the
  // power-flow count also pins how many starts each round searched.
  const grid::PowerSystem sys = io::load_case("case14x2");
  const grid::ZonePartition p = grid::partition_into_copies(sys, 2);
  mtd::ZoneSelectionOptions opt = small_budget_options();
  opt.selection.gamma_threshold = 1.0;
  opt.max_rounds = 2;

  obs::MetricsRegistry decomposed;
  mtd::ZoneSelectionResult r;
  {
    obs::ScopedRegistry scope(&decomposed);
    r = mtd::select_mtd_zones(sys, p, opt, kSeed);
  }
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.boundary_rechecks, 2u);
  ASSERT_EQ(r.zones.size(), 2u);
  obs::MetricsRegistry standalone_runs;
  obs::ScopedRegistry scope(&standalone_runs);
  for (std::size_t z = 0; z < 2; ++z) {
    SCOPED_TRACE("zone " + std::to_string(z));
    const grid::ZoneSystem zone = grid::extract_zone(sys, p, z);
    standalone(zone, z, opt);
    EXPECT_EQ(r.zones[z].rounds, 2u);
    expect_results_equal(r.zones[z].result, standalone(zone, z, opt, 1, 2));
  }
  EXPECT_EQ(decomposed.value(obs::Work::kPowerFlowSolves),
            standalone_runs.value(obs::Work::kPowerFlowSolves));
}

TEST(ZoneSelectionTest, DecoupledTiesReproducePerCopySpa) {
  // With the tie reactance cranked up the copies are effectively
  // decoupled (ties carry ~no susceptance), so the full-model check sees
  // what the zones achieved — the stitched SPA clears the threshold
  // whenever both zone solves did.
  grid::ComposeOptions copt;
  copt.copies = 2;
  copt.tie_reactance = 1e5;
  const grid::ComposeResult composed =
      grid::compose_cases(io::load_case("case14"), copt);
  const mtd::ZoneSelectionOptions opt = small_budget_options();

  const mtd::ZoneSelectionResult r =
      mtd::select_mtd_zones(composed.system, composed.zones(), opt, kSeed);
  ASSERT_TRUE(r.zones[0].result.feasible);
  ASSERT_TRUE(r.zones[1].result.feasible);
  EXPECT_TRUE(r.feasible);
  EXPECT_GE(r.full_spa,
            opt.selection.gamma_threshold - opt.selection.constraint_tol);
}

TEST(ZoneSelectionTest, CoupledStitchMeetsFullModelThreshold) {
  const grid::PowerSystem sys = io::load_case("case14x2");
  mtd::ZoneSelectionOptions opt = small_budget_options();
  opt.max_rounds = 2;  // allow one boundary-fallback round

  const mtd::ZoneSelectionResult r = mtd::select_mtd_zones(
      sys, grid::partition_into_copies(sys, 2), opt, kSeed);
  EXPECT_TRUE(r.feasible);
  EXPECT_GE(r.full_spa,
            opt.selection.gamma_threshold - opt.selection.constraint_tol);
  EXPECT_GT(r.opf_cost, 0.0);
  EXPECT_GT(r.base_opf_cost, 0.0);
  EXPECT_EQ(r.cost_increase,
            (r.opf_cost - r.base_opf_cost) / r.base_opf_cost);
}

TEST(ZoneSelectionTest, BitIdenticalAcrossThreadCounts) {
  const grid::PowerSystem sys = io::load_case("case14x2");
  const grid::ZonePartition p = grid::partition_into_copies(sys, 2);
  mtd::ZoneSelectionOptions opt = small_budget_options();
  opt.max_rounds = 2;

  const std::vector<std::size_t> thread_counts = {1, 2, 8};
  std::vector<mtd::ZoneSelectionResult> runs;
  std::vector<obs::WorkSnapshot> counters;
  for (std::size_t threads : thread_counts) {
    core::ThreadPool::set_global_num_threads(threads);
    obs::MetricsRegistry registry;
    obs::ScopedRegistry scope(&registry);
    runs.push_back(mtd::select_mtd_zones(sys, p, opt, kSeed));
    counters.push_back(registry.work_snapshot());
  }
  core::ThreadPool::set_global_num_threads(0);

  for (std::size_t k = 1; k < runs.size(); ++k) {
    SCOPED_TRACE("threads=" + std::to_string(thread_counts[k]));
    EXPECT_EQ(runs[0].feasible, runs[k].feasible);
    EXPECT_EQ(runs[0].full_spa, runs[k].full_spa);
    EXPECT_EQ(runs[0].opf_cost, runs[k].opf_cost);
    EXPECT_EQ(runs[0].boundary_rechecks, runs[k].boundary_rechecks);
    ASSERT_EQ(runs[0].reactances.size(), runs[k].reactances.size());
    for (std::size_t l = 0; l < runs[0].reactances.size(); ++l)
      EXPECT_EQ(runs[0].reactances[l], runs[k].reactances[l])
          << "branch " << l;
    // The new work counters are deterministic: thread-count invariant.
    const auto zsel = static_cast<std::size_t>(obs::Work::kZonesSelected);
    const auto brc = static_cast<std::size_t>(obs::Work::kBoundaryRechecks);
    EXPECT_EQ(counters[0][zsel], counters[k][zsel]);
    EXPECT_EQ(counters[0][brc], counters[k][brc]);
  }
  // Round 0 solves both zones and runs at least one full-model check.
  const auto zsel = static_cast<std::size_t>(obs::Work::kZonesSelected);
  const auto brc = static_cast<std::size_t>(obs::Work::kBoundaryRechecks);
  EXPECT_GE(counters[0][zsel], 2u);
  EXPECT_EQ(counters[0][brc], runs[0].boundary_rechecks);
}

TEST(ZoneSelectionTest, WorkCountersMatchResultMetadata) {
  const grid::PowerSystem sys = io::load_case("case14x2");
  const grid::ZonePartition p = grid::partition_into_copies(sys, 2);
  const mtd::ZoneSelectionOptions opt = small_budget_options();

  obs::MetricsRegistry registry;
  obs::ScopedRegistry scope(&registry);
  const mtd::ZoneSelectionResult r =
      mtd::select_mtd_zones(sys, p, opt, kSeed);
  EXPECT_EQ(registry.value(obs::Work::kZonesSelected), 2u);
  EXPECT_EQ(registry.value(obs::Work::kBoundaryRechecks), 1u);
  EXPECT_EQ(r.boundary_rechecks, 1u);
}

TEST(ZoneSelectionTest, InvalidInputsThrow) {
  const grid::PowerSystem sys = io::load_case("case14x2");
  const grid::ZonePartition p = grid::partition_into_copies(sys, 2);
  mtd::ZoneSelectionOptions opt = small_budget_options();

  opt.max_rounds = 0;
  EXPECT_THROW(mtd::select_mtd_zones(sys, p, opt, kSeed),
               std::invalid_argument);

  const grid::ZonePartition empty;
  EXPECT_THROW(
      mtd::select_mtd_zones(sys, empty, small_budget_options(), kSeed),
      std::invalid_argument);
}

}  // namespace
}  // namespace mtdgrid
