#pragma once

#include <cstdint>
#include <vector>

#include "grid/power_system.hpp"
#include "linalg/vector.hpp"

namespace mtdgrid::attack {

/// Substream family tag of the probe oracle: probe randomness is rooted at
/// `stats::stream_seed(seed, kProbeOracleTag)`, both in the serving
/// daemon's `probe` verb and in the campaign engine's attacker-side
/// estimators. Sharing the tag is what makes the campaign's probe-based
/// attacker observe *exactly* the samples a real client probing the daemon
/// at the same `(seed, hour, id)` would receive (DESIGN.md "Adaptive
/// adversary & campaigns").
inline constexpr std::uint64_t kProbeOracleTag = 0x70726f6265ULL;  // "probe"

/// The probe-oracle wire formula, factored out of the daemon's
/// `reply_probe` so the attacker-side key estimators and the serving layer
/// share one definition: an attack-free noisy sample on the request's own
/// counter-based substream,
///
///   z = z_ref + sigma * N(0, I),  stream = (stream_seed(root, hour), id).
///
/// A pure function of `(z_ref, sigma, probe_root, hour, id)` — probing is
/// idempotent, replies never depend on request interleaving, and the
/// attacker cannot widen their sample by re-asking with the same id.
linalg::Vector probe_measurement(const linalg::Vector& z_ref, double sigma,
                                 std::uint64_t probe_root, std::size_t hour,
                                 std::uint64_t id);

/// The attacker's reconstruction of the defender's current D-FACTS key
/// from probe-oracle samples: like every key, a reactance vector.
struct KeyEstimate {
  linalg::Vector reactances;      ///< estimated full reactance vector x-hat
  std::size_t probes_used = 0;    ///< oracle samples consumed
  /// D-FACTS branches whose reactance was actually identified from the
  /// probes (the rest fell back to nominal: flow too small, or an endpoint
  /// unreachable through known-reactance branches).
  std::size_t identified_branches = 0;
};

/// Estimates the current reactance key from attack-free probe samples.
///
/// The attacker knows the public case data — topology, base MVA, nominal
/// reactances, D-FACTS device limits — but not the defender's current
/// D-FACTS setpoints. Probes alone cannot span Col(H'): every sample
/// clusters around the one operating point z_ref. The estimator instead
/// inverts the DC measurement model around that point:
///
///  1. average the probes (noise shrinks as sigma / sqrt(B); the forward
///     and reverse flow rows are averaged against each other too);
///  2. recover bus angles by walking branches of *known* (non-D-FACTS)
///     reactance from the slack bus: theta_to = theta_from -
///     f_l x_l / base_mva, then extend through D-FACTS branches at nominal
///     reactance for any bus the known subgraph cannot reach;
///  3. identify each remaining D-FACTS reactance as
///     x_l = base_mva (theta_i - theta_j) / f_l, clamped to the device
///     limits, falling back to nominal when |f_l| < 1 MW (the ratio
///     degenerates as the flow vanishes).
///
/// H(x-hat) converges to the defender's Col(H') as the probe budget grows
/// and goes stale the moment the defender re-keys — the two properties
/// the campaign engine's knowledge frontier measures.
/// Deterministic: a pure function of `(sys, probes)`.
KeyEstimate estimate_key(const grid::PowerSystem& sys,
                         const std::vector<linalg::Vector>& probes);

/// Draws `probe_budget` oracle samples via `probe_measurement` (ids
/// 0..budget-1) and runs `estimate_key` on them. Adds `probe_budget` to
/// `obs::Work::kAttackerProbes`. Requires `probe_budget >= 1` (a
/// zero-budget attacker is the zero-knowledge policy: nominal H, no
/// probes); throws std::invalid_argument otherwise.
KeyEstimate probe_and_estimate_key(const grid::PowerSystem& sys,
                                   const linalg::Vector& z_ref, double sigma,
                                   std::uint64_t probe_root, std::size_t hour,
                                   int probe_budget);

}  // namespace mtdgrid::attack
