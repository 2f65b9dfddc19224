#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "attack/adaptive.hpp"
#include "grid/load_trace.hpp"
#include "grid/power_system.hpp"
#include "mtd/daily.hpp"
#include "stats/rng.hpp"

namespace mtdgrid::attack {

/// How much the attacker knows about the defender's current D-FACTS key
/// when crafting a = H_attacker c (DESIGN.md "Adaptive adversary &
/// campaigns"). The policies form the knowledge axis of the campaign
/// frontier, from nothing to everything:
enum class AttackerPolicy {
  kZeroKnowledge,  ///< public case data only: nominal-reactance H
  kStaleKey,       ///< the key the defender retired at the last re-key
  kProbe,          ///< probe-oracle subspace estimate of the current key
  kOmniscient,     ///< the current key itself (the paper's attacker)
  kRamp,           ///< omniscient at ramp start, then a multi-hour
                   ///< magnitude ramp on that aging knowledge
};

/// The wire/report name of a policy ("zero", "stale", "probe",
/// "omniscient", "ramp").
const char* attacker_policy_name(AttackerPolicy policy);

/// Parses a policy name; returns false on an unknown name.
bool parse_attacker_policy(const std::string& name, AttackerPolicy& out);

/// One attacker configuration of a campaign.
struct AttackerSpec {
  AttackerPolicy policy = AttackerPolicy::kZeroKnowledge;
  /// Probe-oracle samples per evaluated hour (kProbe only, >= 1).
  int probe_budget = 8;
  /// Ramp window length in hours (kRamp only, >= 1): the attacker locks
  /// in the key in force at the window's first hour and ramps the attack
  /// magnitude linearly to the configured maximum across the window.
  std::size_t ramp_hours = 4;
};

/// The default attacker panel: zero-knowledge, stale-key, probe at two
/// budgets (4 and 32), omniscient, and a 3-hour ramp.
std::vector<AttackerSpec> default_attackers();

/// The keys one scored hour offers the attacker policies, each a full
/// length-L reactance vector the caller holds for the call.
struct HourKeys {
  std::size_t hour;              ///< the hour the probe oracle samples
  const linalg::Vector& key;     ///< the key in force
  const linalg::Vector& z_ref;   ///< noiseless measurements at the hour
  const linalg::Vector& prev;    ///< the key retired at the last re-key
  /// kRamp: the key in force at the ramp window's first hour (null: none,
  /// so the nominal key). Not `&key` itself means a boundary replay.
  const linalg::Vector* ramp_key = nullptr;
  std::size_t ramp_step = 0;     ///< kRamp: hours into the window
};

/// How every hour is scored: the effectiveness methodology (eta is
/// reported at `target_delta`) and the probe oracle's root
/// `stream_seed(seed, kProbeOracleTag)`.
struct HourScoring {
  mtd::EffectivenessOptions effectiveness;  ///< `deltas` is ignored
  double target_delta = 0.9;                ///< the delta eta is read at
  std::uint64_t probe_root = 0;             ///< probe-oracle root
};

/// One attacker's score for one hour.
struct HourScore {
  double mean_detection = 0.0;  ///< mean P'_D over the attack sample
  double eta = 0.0;             ///< eta'(target_delta)
  std::uint64_t probes = 0;     ///< oracle samples the attacker drew
  bool replayed = false;        ///< attacked with a retired key
};

/// Scores one attacker against one hour's key: the one place a policy
/// picks the attacker's key (zero: nominal; stale: `prev`, a replay;
/// probe: `probe_and_estimate_key` of hour `keys.hour`; omniscient:
/// `key`; ramp: `ramp_key` at (ramp_step + 1) / ramp_hours of the attack
/// magnitude). Then `mtd::evaluate_effectiveness` on the CSR H of the
/// attacker's key and of `key`, drawing twice from `rng`. Adds one
/// `obs::Work::kStaleReplays` per replay. Throws std::invalid_argument
/// ("score_hour: ramp_step must be below ramp_hours") for a ramp attacker
/// outside its window.
HourScore score_hour(const grid::PowerSystem& sys,
                     const AttackerSpec& attacker, const HourKeys& keys,
                     const HourScoring& scoring, stats::Rng& rng);

/// Campaign configuration: the scenario grid is
/// `rekey_every x attackers`, played on the given case against one
/// defender engine whose hourly keys every re-keying schedule reads.
struct CampaignOptions {
  /// Root seed. Every number in the frontier is a pure function of
  /// (seed, options) — see the seeding contract in DESIGN.md.
  std::uint64_t seed = 7;
  /// Defender hours simulated (>= 2; hour 0 only establishes the first
  /// key and is never scored).
  std::size_t horizon_hours = 6;
  /// Defender re-keying schedules: a schedule P adopts the hour's freshly
  /// selected key every P hours and holds it in between (the OPF keeps
  /// tracking the hourly load at the held reactances). All schedules read
  /// the keys of one engine, so a schedule's cells do not depend on which
  /// other schedules run beside it.
  std::vector<std::size_t> rekey_every = {1};
  /// The attacker panel (default: `default_attackers()` when empty).
  std::vector<AttackerSpec> attackers;
  /// Re-keying budgets and targets of the defender trajectory; the
  /// embedded effectiveness options also score every campaign cell
  /// (eta is reported at `daily.target_delta`).
  mtd::DailySimulationOptions daily;
};

/// One cell of the frontier: one attacker against one re-keying schedule,
/// aggregated over every scored hour of the trajectory.
struct CampaignCell {
  AttackerSpec attacker;                      ///< the attacker scored
  std::size_t rekey_every = 1;                ///< the defender schedule
  std::size_t hours_scored = 0;               ///< hours entering the means
  std::vector<double> hourly_mean_detection;  ///< per-hour mean P'_D
  std::vector<double> hourly_eta;             ///< per-hour eta'(delta)
  double mean_detection = 0.0;  ///< mean over hours of the hourly means
  double eta = 0.0;             ///< mean over hours of eta'(delta)
  std::uint64_t probes_used = 0;      ///< oracle samples this cell drew
  /// Evaluations whose attacker knowledge predated the key in force (the
  /// stale/ramp replays that crossed a re-keying boundary).
  std::uint64_t boundary_replays = 0;
};

/// The campaign result: the detection-probability-vs-attacker-knowledge
/// frontier, cells in schedule-major, attacker-minor order.
struct CampaignFrontier {
  std::string case_name;          ///< the case the campaign ran on
  std::uint64_t seed = 0;         ///< the root seed
  double target_delta = 0.9;      ///< the delta eta is reported at
  std::size_t horizon_hours = 0;  ///< defender hours per schedule
  std::vector<CampaignCell> cells;
};

/// Serializes a frontier as one compact JSON object (stable field order,
/// shortest-round-trip doubles) — the CLI report format, and what the
/// determinism tests byte-compare across thread counts.
std::string to_json(const CampaignFrontier& frontier);

/// Runs a campaign. One `mtd::DailyEngine`, advanced `horizon_hours`
/// times, selects each hour's key once. Each re-keying schedule P adopts
/// that key every P hours and holds its key in between, re-dispatched at
/// the hour's loads. For each schedule and each attacker of the panel, one
/// frontier cell is scored hour by hour against the key actually in force.
/// Sharing the engine is exact: pass 1 draws nothing from the rng and
/// `advance_hour` does not depend on the schedule, so a per-schedule engine
/// would compute the same keys bit for bit.
///
/// Scoring starts at the first re-keying boundary (every scored hour has
/// a current *and* a previous key, so the stale policy is well defined on
/// exactly the hours every other policy is scored on) and skips hours
/// where the defender has no feasible key or dispatch.
///
/// Every cell hour is one `score_hour` call, the scorer the daemon's
/// `campaign` verb shares.
///
/// Seeding contract: the engine consumes `Rng(seed)` exactly as
/// `run_daily_simulation` would; the probe oracle is rooted at
/// `stream_seed(seed, kProbeOracleTag)` — the daemon's derivation, so
/// campaign probes match daemon probes sample for sample; cell `i` scores
/// hour `h` on the substream `(stream_seed(campaign_root, i), h)` with
/// `campaign_root = stream_seed(seed, kCampaignStreamTag)`. Every cell is
/// therefore a bit-identical pure function of (seed, options) at any
/// thread count — the only parallelism is inside
/// `mtd::evaluate_effectiveness`, which already guarantees it.
///
/// Work counters: `kAttackerProbes` per oracle sample, `kStaleReplays`
/// per boundary-crossing replay, `kCampaignCells` per completed cell (all
/// deterministic, so they appear in default `metrics` replies).
CampaignFrontier run_campaign(const grid::PowerSystem& sys,
                              const grid::DailyLoadTrace& trace,
                              const CampaignOptions& options);

/// Convenience: loads `case_name` through `io::load_case` (registry
/// names, composed `<case>xN` grids, or a `.m` path) and replays the
/// NYISO winter-weekday shape scaled to the case's nominal total load —
/// the serving daemon's default trace, so a campaign and a daemon on the
/// same case see the same defender.
CampaignFrontier run_campaign(const std::string& case_name,
                              const CampaignOptions& options);

/// Substream family tag of the campaign cell evaluations (see the seeding
/// contract on `run_campaign`).
inline constexpr std::uint64_t kCampaignStreamTag =
    0x63616d706169676eULL;  // "campaign"

}  // namespace mtdgrid::attack
