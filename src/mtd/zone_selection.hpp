#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/thread_pool.hpp"
#include "grid/compose.hpp"
#include "grid/power_system.hpp"
#include "linalg/vector.hpp"
#include "mtd/effectiveness.hpp"
#include "mtd/selection.hpp"

namespace mtdgrid::mtd {

/// Zone-decomposed D-FACTS selection for composed mega-grids (ROADMAP
/// "Synthetic mega-grids"). Whole-grid `select_mtd_perturbation` is
/// intractable past a few hundred buses — every candidate costs a dense
/// SPA update and an OPF certificate on the full network — so the
/// selection is decomposed along the `grid::ZonePartition`: each zone is
/// lifted out with `grid::extract_zone`, solved as a standalone selection
/// problem, and the per-zone perturbations are stitched back into one
/// full-length reactance vector. The stitched perturbation is then
/// re-checked on the FULL model (the zones are coupled through the tie
/// lines, which per-zone solves cannot see) and offending zones are
/// re-solved with enlarged candidate sets when the coupled SPA falls
/// short.

/// Options for `select_mtd_zones`.
struct ZoneSelectionOptions {
  /// Per-zone selection options (threshold, multi-start budget); each
  /// per-zone solve builds its own evaluator pair, since every zone is a
  /// different system.
  MtdSelectionOptions selection;
  /// SPA threshold the stitched perturbation must meet on the full
  /// model; 0 (the default) reuses `selection.gamma_threshold`. The
  /// comparison allows `selection.constraint_tol` slack, mirroring the
  /// per-zone feasibility test.
  double full_gamma_threshold = 0.0;
  /// Total selection rounds: 1 disables the fallback, each further round
  /// re-solves the offending zones with `enlarge_extra_starts` more
  /// multi-starts before the full model is re-checked.
  std::size_t max_rounds = 2;
  /// Extra multi-starts added to an offending zone's candidate set per
  /// fallback round (round r runs with `selection.extra_starts +
  /// r * enlarge_extra_starts`).
  int enlarge_extra_starts = 4;
  /// Also evaluate the stitched perturbation's attack-detection
  /// effectiveness on the full model (fills
  /// `ZoneSelectionResult::detection`): attacks are crafted from the
  /// attacker's nominal full-network matrix, the defender operates at
  /// the stitched reactances, and the operating point comes from the
  /// stitched per-zone dispatches through the sparse power flow. Off by
  /// default — the dense measurement matrices make this the most
  /// expensive step at mega-grid scale.
  bool check_detection = false;
  /// Effectiveness evaluation options used when `check_detection`.
  EffectivenessOptions detection;
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
  /// Full-model effectiveness of the stitched perturbation (only when
  /// `ZoneSelectionOptions::check_detection`).
  bool has_detection = false;
  EffectivenessResult detection;  ///< valid iff `has_detection`
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
