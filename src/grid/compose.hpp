#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "grid/power_system.hpp"
#include "linalg/vector.hpp"

namespace mtdgrid::grid {

/// Synthetic mega-grid composition (ROADMAP "Synthetic mega-grids"):
/// tiles N copies of a base case into one connected network with
/// parameterized tie lines, the DMNetwork `-nc`-copies idiom. The result
/// is a pure function of `(base, options)` — every stochastic choice
/// (per-copy load/generation jitter) draws from counter-based substreams
/// of `options.seed`, so composing the same inputs always yields the
/// same network, bit for bit, on any machine or thread count.
///
/// Renumbering contract (DESIGN.md "Mega-grid composition"):
///  * bus i of copy k      -> global bus   k * N_base + i
///  * branch l of copy k   -> global branch k * L_base + l
///  * generator g of copy k -> global gen   k * G_base + g
///  * tie lines are appended AFTER all copied branches, interface by
///    interface (copy order), so the last `tie_branches().size()`
///    branches are exactly the ties;
///  * bus 0 of copy 0 is the global slack (the PowerSystem convention).
/// D-FACTS flags and factors are inherited per copy; tie lines carry no
/// D-FACTS (zone-decomposed selection leaves them at nominal).

/// Default jitter/tie substream root used by the registry's bundled
/// composed scenarios (case118x9, case300x17) and the `case_compose`
/// tool when `--seed` is not given. Composition is deterministic in
/// (base, copies, seed); this constant is what makes "case118x9" name a
/// unique network.
inline constexpr std::uint64_t kDefaultComposeSeed = 118300;

/// Parameters of the composition. The defaults produce a ring of copies
/// joined by 2 ties per interface at the base case's highest-degree
/// buses, with +/-5% per-copy load/capacity jitter and +/-2% cost jitter
/// (the cost jitter breaks the merit-order ties that N identical copies
/// would otherwise create).
struct ComposeOptions {
  std::size_t copies = 2;      ///< number of copies N (>= 1)
  std::uint64_t seed = kDefaultComposeSeed;  ///< jitter substream root
  /// Per-copy relative load jitter: bus loads of copy k scale by
  /// uniform factors in [1-j, 1+j) drawn from `stream_seed(seed, k)`.
  double load_jitter = 0.05;
  /// Per-copy relative generation-capacity jitter on `max_mw`.
  double gen_jitter = 0.05;
  /// Per-copy relative cost jitter on `cost_per_mwh`.
  double cost_jitter = 0.02;
  /// Tie lines per copy-to-copy interface (>= 1).
  std::size_t ties_per_interface = 2;
  /// Series reactance of every tie line, per-unit.
  double tie_reactance = 0.02;
  /// Tie thermal limit in MW; 0 means "never binds" (the io-layer
  /// RATE_A = 0 convention, written back as such by the writer).
  double tie_limit_mw = 0.0;
  /// Boundary buses (base-case indices) that anchor tie lines. Empty
  /// selects the `ties_per_interface` highest-degree buses of the base
  /// case (ties broken toward the lower index), listed ascending.
  std::vector<std::size_t> boundary_buses;
  /// Close the copy ring (interface copies-1 -> 0) when copies >= 3;
  /// with false the copies form an open chain.
  bool ring = true;
  /// Name of the composed system; empty means "<base>x<copies>".
  std::string name;
};

/// Zone structure of a partitioned network: which zone every bus belongs
/// to, the intra-zone branch/generator sets, and the cross-zone (tie)
/// branches. Produced by `compose_cases` (zones = copies) or inferred
/// from any composed system with `partition_into_copies`; consumed by
/// `extract_zone` and `mtd::select_mtd_zones`.
struct ZonePartition {
  std::size_t num_zones = 1;
  std::vector<std::size_t> bus_zone;  ///< zone of every bus (size N)
  /// Global bus indices per zone, ascending (local index = position).
  std::vector<std::vector<std::size_t>> zone_buses;
  /// Global indices of intra-zone branches per zone, ascending.
  std::vector<std::vector<std::size_t>> zone_branches;
  /// Global generator indices per zone, ascending.
  std::vector<std::vector<std::size_t>> zone_generators;
  /// Branches whose endpoints lie in different zones, ascending.
  std::vector<std::size_t> tie_branches;
};

/// Result of `compose_cases`: the network plus the composition metadata
/// the zone-decomposed algorithms key off.
struct ComposeResult {
  PowerSystem system;              ///< the composed network
  std::size_t copies = 1;          ///< N
  std::size_t buses_per_copy = 0;  ///< base-case bus count
  std::size_t branches_per_copy = 0;  ///< base-case branch count
  std::size_t gens_per_copy = 0;   ///< base-case generator count
  /// Global indices of the tie branches (the trailing branches).
  std::vector<std::size_t> tie_branches;
  /// Boundary buses actually used (base-case indices, ascending).
  std::vector<std::size_t> boundary_buses;

  /// The per-copy zone partition of the composed system.
  ZonePartition zones() const;
};

/// Composes `copies` jittered copies of `base` into one connected
/// network under the renumbering contract above. Throws
/// std::invalid_argument on degenerate options (zero copies, jitter
/// >= 1, non-positive tie reactance, boundary bus out of range, more
/// requested boundary buses than the base has).
ComposeResult compose_cases(const PowerSystem& base,
                            const ComposeOptions& options);

/// Reconstructs the per-copy partition of a composed system from bus
/// blocks: bus b belongs to zone b / (N / copies). This is the inverse
/// of the renumbering contract, so it works on any network produced by
/// `compose_cases` — including one that went through a
/// write_matpower/parse round trip, where the composition metadata is
/// not stored. Throws std::invalid_argument when the bus count is not
/// divisible by `copies` or a zone's internal network is disconnected.
ZonePartition partition_into_copies(const PowerSystem& sys,
                                    std::size_t copies);

/// A zone lifted out of a partitioned network as a standalone
/// PowerSystem (local bus 0 — the zone's smallest global bus — becomes
/// the zone slack), plus the local-to-global index maps needed to
/// stitch per-zone results back into full-network vectors.
struct ZoneSystem {
  PowerSystem system;                    ///< the standalone zone network
  std::vector<std::size_t> bus_map;      ///< local bus -> global bus
  std::vector<std::size_t> branch_map;   ///< local branch -> global branch
  std::vector<std::size_t> gen_map;      ///< local gen -> global gen
};

/// Extracts zone `zone` of `partition` from `sys`. The zone's buses,
/// branches, and generators keep their ascending global order, so for a
/// copy-composed system the extracted network equals the jittered base
/// copy field-for-field (the conformance tests pin this). Throws
/// std::invalid_argument when the zone's internal network is
/// disconnected (a partition that cuts through a copy).
ZoneSystem extract_zone(const PowerSystem& sys,
                        const ZonePartition& partition, std::size_t zone);

}  // namespace mtdgrid::grid
