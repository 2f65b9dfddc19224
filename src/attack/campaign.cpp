#include "attack/campaign.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

#include "grid/measurement.hpp"
#include "io/case_registry.hpp"
#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "opf/dc_opf.hpp"
#include "serve/json.hpp"
#include "stats/rng.hpp"

namespace mtdgrid::attack {

namespace {

/// One adopted key, its full reactance vector: what the defender operates
/// and what an attacker who captured it can replay. Schedules holding the
/// same key share one copy.
using KeyState = std::shared_ptr<const linalg::Vector>;

/// One trajectory hour as the campaign scores it.
struct HourState {
  bool scored = false;  ///< keyed, dispatched, and past the first re-key
  KeyState key;         ///< key in force this hour
  KeyState prev;        ///< key retired at the last re-key
  linalg::Vector z_ref;  ///< noiseless measurements at the operating point
};

/// Every re-keying schedule's defender trajectory from one engine advanced
/// hourly on `Rng(seed)` exactly as `run_daily_simulation` would. Neither
/// pass 1 nor `advance_hour` depends on the schedule, so schedule P adopts
/// the hour's fresh key every P hours and holds its key in between, with
/// the OPF re-tracking the hourly load at the held reactances.
std::vector<std::vector<HourState>> defender_trajectories(
    const grid::PowerSystem& sys, const grid::DailyLoadTrace& trace,
    const CampaignOptions& options) {
  mtd::DailyEngine engine(sys, trace, options.daily);
  stats::Rng rng(options.seed);
  std::vector<std::vector<HourState>> trajectories(options.rekey_every.size());
  for (std::size_t h = 0; h < options.horizon_hours; ++h) {
    mtd::DailyHourOutcome out = engine.advance_hour(rng);
    KeyState fresh;  // shared by adopting schedules
    if (out.record.feasible)
      fresh = std::make_shared<const linalg::Vector>(std::move(out.reactances));
    for (std::size_t s = 0; s < trajectories.size(); ++s) {
      std::vector<HourState>& hours = trajectories[s];
      HourState hour;  // the keys carry over from the schedule's last hour
      if (h > 0) hour = {false, hours.back().key, hours.back().prev, {}};
      if (h % options.rekey_every[s] == 0 && fresh) {
        if (hour.key) hour.prev = hour.key;
        hour.key = fresh;
        hour.z_ref = out.z_ref;
        hour.scored = true;
      } else if (hour.key) {
        // Held key: re-dispatch for this hour's loads (the engine applied
        // them during advance_hour).
        const opf::DispatchResult d =
            opf::solve_dc_opf(engine.system(), *hour.key);
        if (d.feasible) {
          hour.z_ref = grid::noiseless_measurements(engine.system(), *hour.key,
                                                    d.theta_reduced);
          hour.scored = true;
        }
      }
      // Scoring starts at the first re-keying boundary so the stale policy
      // is defined on exactly the hours every other policy sees.
      hour.scored = hour.scored && hour.prev != nullptr;
      hours.push_back(std::move(hour));
    }
  }
  return trajectories;
}

}  // namespace

const char* attacker_policy_name(AttackerPolicy policy) {
  switch (policy) {
    case AttackerPolicy::kZeroKnowledge: return "zero";
    case AttackerPolicy::kStaleKey: return "stale";
    case AttackerPolicy::kProbe: return "probe";
    case AttackerPolicy::kOmniscient: return "omniscient";
    case AttackerPolicy::kRamp: return "ramp";
  }
  return "?";
}

bool parse_attacker_policy(const std::string& name, AttackerPolicy& out) {
  if (name == "zero") out = AttackerPolicy::kZeroKnowledge;
  else if (name == "stale") out = AttackerPolicy::kStaleKey;
  else if (name == "probe") out = AttackerPolicy::kProbe;
  else if (name == "omniscient") out = AttackerPolicy::kOmniscient;
  else if (name == "ramp") out = AttackerPolicy::kRamp;
  else return false;
  return true;
}

std::vector<AttackerSpec> default_attackers() {
  std::vector<AttackerSpec> panel;
  panel.push_back({AttackerPolicy::kZeroKnowledge, 0, 0});
  panel.push_back({AttackerPolicy::kStaleKey, 0, 0});
  panel.push_back({AttackerPolicy::kProbe, 4, 0});
  panel.push_back({AttackerPolicy::kProbe, 32, 0});
  panel.push_back({AttackerPolicy::kOmniscient, 0, 0});
  panel.push_back({AttackerPolicy::kRamp, 0, 3});
  return panel;
}

HourScore score_hour(const grid::PowerSystem& sys,
                     const AttackerSpec& attacker, const HourKeys& keys,
                     const HourScoring& scoring, stats::Rng& rng) {
  mtd::EffectivenessOptions eff = scoring.effectiveness;
  eff.deltas = {scoring.target_delta};
  const linalg::Vector nominal = sys.reactances();
  HourScore score;
  KeyEstimate estimate;
  const linalg::Vector* known = &nominal;  // the attacker's key
  switch (attacker.policy) {
    case AttackerPolicy::kZeroKnowledge:
      break;
    case AttackerPolicy::kStaleKey:
      known = &keys.prev;
      score.replayed = true;  // the replayed key is retired
      break;
    case AttackerPolicy::kProbe:
      estimate = probe_and_estimate_key(sys, keys.z_ref, eff.sigma_mw,
                                        scoring.probe_root, keys.hour,
                                        attacker.probe_budget);
      known = &estimate.reactances;
      score.probes = static_cast<std::uint64_t>(attacker.probe_budget);
      break;
    case AttackerPolicy::kOmniscient:
      known = &keys.key;
      break;
    case AttackerPolicy::kRamp:
      // Knowledge locked at the ramp window's first hour; magnitude ramps
      // linearly across the window. Until the defender re-keys mid-window
      // the attack stays stealthy; afterwards the locked key is a
      // boundary-crossing replay.
      if (keys.ramp_step >= attacker.ramp_hours)
        throw std::invalid_argument(
            "score_hour: ramp_step must be below ramp_hours");
      if (keys.ramp_key != nullptr) known = keys.ramp_key;
      score.replayed = keys.ramp_key != &keys.key;
      eff.attack_relative_magnitude *=
          static_cast<double>(keys.ramp_step + 1) /
          static_cast<double>(attacker.ramp_hours);
      break;
  }
  if (score.replayed) obs::add(obs::Work::kStaleReplays);
  const mtd::EffectivenessResult er = mtd::evaluate_effectiveness(
      grid::sparse_measurement_matrix(sys, *known),
      grid::sparse_measurement_matrix(sys, keys.key), keys.z_ref, eff, rng);
  score.mean_detection = er.mean_detection;
  score.eta = er.eta[0];
  return score;
}

std::string to_json(const CampaignFrontier& frontier) {
  using serve::Json;
  const auto number_array = [](const std::vector<double>& v) {
    Json arr{Json::Array{}};
    for (const double x : v) arr.push_back(Json(x));
    return arr;
  };
  Json doc;
  doc.set("case", Json(frontier.case_name));
  doc.set("seed", Json(frontier.seed));
  doc.set("delta", Json(frontier.target_delta));
  doc.set("horizon_hours", Json(frontier.horizon_hours));
  Json cells{Json::Array{}};
  for (const CampaignCell& cell : frontier.cells) {
    Json c;
    c.set("policy", Json(attacker_policy_name(cell.attacker.policy)));
    if (cell.attacker.policy == AttackerPolicy::kProbe)
      c.set("probe_budget", Json(cell.attacker.probe_budget));
    if (cell.attacker.policy == AttackerPolicy::kRamp)
      c.set("ramp_hours", Json(cell.attacker.ramp_hours));
    c.set("rekey_every", Json(cell.rekey_every));
    c.set("hours_scored", Json(cell.hours_scored));
    c.set("mean_detection", Json(cell.mean_detection));
    c.set("eta", Json(cell.eta));
    c.set("probes_used", Json(cell.probes_used));
    c.set("boundary_replays", Json(cell.boundary_replays));
    c.set("hourly_mean_detection",
          number_array(cell.hourly_mean_detection));
    c.set("hourly_eta", number_array(cell.hourly_eta));
    cells.push_back(std::move(c));
  }
  doc.set("cells", std::move(cells));
  return doc.dump();
}

CampaignFrontier run_campaign(const grid::PowerSystem& sys,
                              const grid::DailyLoadTrace& trace,
                              const CampaignOptions& options) {
  CampaignOptions opt = options;
  if (opt.attackers.empty()) opt.attackers = default_attackers();
  if (opt.horizon_hours < 2)
    throw std::invalid_argument("campaign: horizon_hours must be >= 2");
  if (opt.rekey_every.empty())
    throw std::invalid_argument("campaign: need a re-keying schedule");
  for (const std::size_t p : opt.rekey_every)
    if (p == 0)
      throw std::invalid_argument("campaign: rekey_every must be >= 1");
  for (const AttackerSpec& a : opt.attackers) {
    if (a.policy == AttackerPolicy::kProbe && a.probe_budget < 1)
      throw std::invalid_argument("campaign: probe_budget must be >= 1");
    if (a.policy == AttackerPolicy::kRamp && a.ramp_hours < 1)
      throw std::invalid_argument("campaign: ramp_hours must be >= 1");
  }

  CampaignFrontier frontier;
  frontier.case_name = sys.name();
  frontier.seed = opt.seed;
  frontier.target_delta = opt.daily.target_delta;
  frontier.horizon_hours = opt.horizon_hours;

  const HourScoring scoring{opt.daily.effectiveness, opt.daily.target_delta,
                            stats::stream_seed(opt.seed, kProbeOracleTag)};
  const std::uint64_t campaign_root =
      stats::stream_seed(opt.seed, kCampaignStreamTag);

  const std::vector<std::vector<HourState>> trajectories =
      defender_trajectories(sys, trace, opt);
  std::uint64_t cell_index = 0;
  for (std::size_t s = 0; s < opt.rekey_every.size(); ++s) {
    const std::vector<HourState>& hours = trajectories[s];
    for (const AttackerSpec& spec : opt.attackers) {
      CampaignCell cell;
      cell.attacker = spec;
      cell.rekey_every = opt.rekey_every[s];
      const std::uint64_t cell_root =
          stats::stream_seed(campaign_root, cell_index);
      double detection_sum = 0.0;
      double eta_sum = 0.0;
      for (std::size_t h = 0; h < hours.size(); ++h) {
        const HourState& hour = hours[h];
        if (!hour.scored) continue;
        // The ramp window holding hour h opened at hour h0.
        const std::size_t h0 =
            spec.ramp_hours > 0 ? h - h % spec.ramp_hours : h;
        const HourKeys keys{h, *hour.key, hour.z_ref, *hour.prev,
                            hours[h0].key.get(), h - h0};
        stats::Rng cell_rng = stats::make_stream(cell_root, h);
        const HourScore score = score_hour(sys, spec, keys, scoring, cell_rng);
        cell.probes_used += score.probes;
        if (score.replayed) ++cell.boundary_replays;
        cell.hourly_mean_detection.push_back(score.mean_detection);
        cell.hourly_eta.push_back(score.eta);
        detection_sum += score.mean_detection;
        eta_sum += score.eta;
      }
      cell.hours_scored = cell.hourly_mean_detection.size();
      if (cell.hours_scored > 0) {
        cell.mean_detection =
            detection_sum / static_cast<double>(cell.hours_scored);
        cell.eta = eta_sum / static_cast<double>(cell.hours_scored);
      }
      obs::add(obs::Work::kCampaignCells);
      frontier.cells.push_back(std::move(cell));
      ++cell_index;
    }
  }
  return frontier;
}

CampaignFrontier run_campaign(const std::string& case_name,
                              const CampaignOptions& options) {
  grid::PowerSystem sys = io::load_case(case_name);
  // The serving daemon's default trace (serve::default_daemon_trace):
  // the NYISO winter-weekday shape scaled from its 14-bus fit to this
  // case's nominal total load, so a campaign and a daemon on the same
  // case face the same defender.
  const grid::DailyLoadTrace base =
      grid::DailyLoadTrace::nyiso_winter_weekday();
  constexpr double kCase14NominalMw = 259.0;
  const double scale = sys.total_load_mw() / kCase14NominalMw;
  std::vector<double> totals(base.size());
  for (std::size_t h = 0; h < base.size(); ++h)
    totals[h] = base.total_mw(h) * scale;
  CampaignFrontier frontier = run_campaign(
      sys, grid::DailyLoadTrace(std::move(totals)), options);
  frontier.case_name = case_name;  // report the registry name
  return frontier;
}

}  // namespace mtdgrid::attack
