#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/thread_pool.hpp"
#include "grid/compose.hpp"
#include "grid/power_system.hpp"
#include "linalg/vector.hpp"
#include "mtd/selection.hpp"

namespace mtdgrid::mtd {

/// Zone-decomposed D-FACTS selection for composed mega-grids (ROADMAP
/// "Synthetic mega-grids"). Whole-grid `select_mtd_perturbation` slows
/// with the network — every candidate costs an OPF certificate (a sparse
/// power flow) and a gamma update on the full network — so the selection
/// is decomposed along the `grid::ZonePartition`: each zone is lifted out
/// with `grid::extract_zone`, solved as a standalone selection problem,
/// and the per-zone perturbations are stitched back into one full-length
/// reactance vector. The stitched perturbation is then re-checked on the
/// FULL model (the zones are coupled through the tie lines, which
/// per-zone solves cannot see) and offending zones are re-solved with
/// enlarged candidate sets when the coupled SPA falls short.

/// Options for `select_mtd_zones`.
struct ZoneSelectionOptions {
  /// Per-zone selection options (threshold, multi-start budget); each
  /// per-zone solve builds its own evaluator pair, since every zone is a
  /// different system.
  MtdSelectionOptions selection;
  /// Total selection rounds: 1 disables the fallback, each further round
  /// re-solves the offending zones with 4 more multi-starts than the
  /// round before (round r runs with `selection.extra_starts + 4 r`),
  /// then re-checks the full model. The stitched perturbation must meet
  /// `selection.gamma_threshold` on the full model, with
  /// `selection.constraint_tol` slack, mirroring the per-zone
  /// feasibility test.
  std::size_t max_rounds = 2;
};

/// One zone's slice of the decomposed selection.
struct ZoneSelectionZoneResult {
  std::size_t zone = 0;        ///< zone index in the partition
  MtdSelectionResult result;   ///< standalone selection on the zone system
  double base_opf_cost = 0.0;  ///< zone no-MTD OPF cost C_OPF
  /// Selection rounds this zone ran (1 + the fallback re-solves it was
  /// picked for).
  std::size_t rounds = 1;
};

/// Result of `select_mtd_zones`.
struct ZoneSelectionResult {
  /// True when every zone's selection is feasible AND the stitched
  /// perturbation meets the full-model SPA threshold.
  bool feasible = false;
  /// Stitched full-length reactance vector x' (tie branches stay at
  /// nominal — zone solves never touch them).
  linalg::Vector reactances;
  /// gamma(H_nominal, H(x')) on the FULL network, from the final
  /// boundary re-check.
  double full_spa = 0.0;
  /// Boundary-coupled full-model SPA checks run (== the
  /// `obs::Work::kBoundaryRechecks` delta of this call).
  std::size_t boundary_rechecks = 0;
  /// Per-zone selection outcomes, indexed by zone.
  std::vector<ZoneSelectionZoneResult> zones;
  double opf_cost = 0.0;       ///< sum of per-zone post-MTD OPF costs
  double base_opf_cost = 0.0;  ///< sum of per-zone no-MTD OPF costs
  double cost_increase = 0.0;  ///< (opf_cost - base) / base, paper eq. (3)
};

/// Runs the zone-decomposed selection over `partition` (typically
/// `grid::ComposeResult::zones()` or `grid::partition_into_copies`).
///
/// Determinism contract: zone z in round r draws from the counter-based
/// substream `stats::make_stream(seed, r * num_zones + z)`, per-zone
/// results land in index-ordered slots, and all full-model checks are
/// sequential — the result is bit-identical for every thread count, and
/// round 0 of zone z is bit-identical to a standalone
/// `select_mtd_perturbation` on `grid::extract_zone(sys, partition, z)`
/// seeded with `stats::make_stream(seed, z)` (the conformance tests pin
/// both). Zones are solved across `pool` (default: the global pool), one
/// zone per task; each per-zone solve's inner parallel regions serialize
/// under the nested-region rule.
///
/// Records `obs::Work::kZonesSelected` per per-zone solve and
/// `obs::Work::kBoundaryRechecks` per full-model SPA check (both
/// deterministic counters).
///
/// Throws std::invalid_argument when the partition does not describe
/// `sys` (size mismatch) or a zone's no-MTD OPF is infeasible (a
/// mis-composed case; run `case_audit` first).
ZoneSelectionResult select_mtd_zones(const grid::PowerSystem& sys,
                                     const grid::ZonePartition& partition,
                                     const ZoneSelectionOptions& options,
                                     std::uint64_t seed,
                                     core::ThreadPool* pool = nullptr);

}  // namespace mtdgrid::mtd
